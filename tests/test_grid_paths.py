"""Grid operations have one path for dims 1 and 2. The reference_* functions
keep the earlier per-dimension bodies, and every test asserts that the single
path gives the same arrays (shape, dtype and bits) and the same floats; the
cube series, whose summation order changed, agrees to 1e-13 relative."""

import itertools

import numpy as np
import pytest

from invdiff import experiments, forward
from invdiff.mesh import Mesh, Partition
from invdiff.field import (CoefficientField, ScalarField, FieldArgumentError,
                           corner_average, face_gradient, norm_h10,
                           coefficient_h1_seminorm)
from invdiff.forward import (RightHandSide, SolveReport, load_functional,
                             energy_form, face_coefficients, series_cube,
                             solve_1d, _antiderivative_at_centers)
from invdiff.experiments import (coefficient_family, stability_scan,
                                 sine_basis, sine_series)
from invdiff.positivity import compute_weight
from invdiff.recovery import (subcube_bump, recover_1d, MalformedInputError,
                              AmbiguousPivotError)
from invdiff.mollify import bump_profile

DIMS = (1, 2)
NS = (2, 3, 8, 9, 64)
PARTS = (1, 2, 4)


def reference_padded(u):
    n = u.mesh.n
    full = np.zeros((n + 1,) * u.mesh.dim)
    if u.mesh.dim == 1:
        full[1:n] = u.values
    else:
        full[1:n, 1:n] = u.values
    return full


def reference_gradient(u):
    full = reference_padded(u)
    h = u.mesh.h
    if u.mesh.dim == 1:
        return (np.diff(full) / h,)
    return (np.diff(full, axis=0) / h, np.diff(full, axis=1) / h)


def reference_norm_h10(u):
    total = sum(float(np.sum(c * c)) for c in reference_gradient(u))
    return float(np.sqrt(u.mesh.h ** u.mesh.dim * total))


def reference_coefficient_h1_seminorm(a):
    mesh, values = a.mesh, np.asarray(a.values, dtype=float)
    h = mesh.h
    if mesh.dim == 1:
        g = np.diff(values) / h
        return float(np.sqrt(h * np.sum(g * g)))
    gx = np.diff(values, axis=0) / h
    gy = np.diff(values, axis=1) / h
    return float(np.sqrt(h ** 2 * (np.sum(gx * gx) + np.sum(gy * gy))))


def reference_node_average_of_cells(values):
    if values.ndim == 1:
        return 0.5 * (values[:-1] + values[1:])
    return 0.25 * (values[:-1, :-1] + values[1:, :-1]
                   + values[:-1, 1:] + values[1:, 1:])


def reference_load_functional(f, v):
    mesh = f.mesh
    if mesh.dim == 1:
        fbar = 0.5 * (f.values[:-1] + f.values[1:])
        total = mesh.h * float(np.sum(fbar * v.values))
        # a mass acts on node k = the number of cell centers at or left of
        # it, where solve_1d puts it; nodes 0 and N carry v = 0
        centers = mesh.cell_centers_1d()
        for loc, w in f.point_masses:
            k = int(np.count_nonzero(centers <= loc))
            if 0 < k < mesh.n:
                total += w * float(v.values[k - 1])
        return total
    fbar = reference_node_average_of_cells(f.values)
    return float(mesh.h ** 2 * np.sum(fbar * v.values))


def reference_u_to_cells(u):
    full = reference_padded(u)
    if u.mesh.dim == 1:
        return 0.5 * (full[:-1] + full[1:])
    return 0.25 * (full[:-1, :-1] + full[1:, :-1]
                   + full[:-1, 1:] + full[1:, 1:])


def reference_gradient_sq_to_cells(u):
    g = reference_gradient(u)
    if u.mesh.dim == 1:
        return g[0] ** 2
    gx, gy = g
    gxc = 0.5 * (gx[:, :-1] + gx[:, 1:])
    gyc = 0.5 * (gy[:-1, :] + gy[1:, :])
    return gxc ** 2 + gyc ** 2


def reference_weight(a, u, f):
    return (a.values * reference_gradient_sq_to_cells(u)
            + f.values * reference_u_to_cells(u))


def reference_boundary_distances(mesh):
    x = mesh.cell_centers_1d()
    axis_dist = np.minimum(x, 1.0 - x)
    if mesh.dim == 1:
        return axis_dist
    return np.minimum(axis_dist[:, None], axis_dist[None, :])


def reference_subcube_of_cells(part):
    q1 = np.arange(part.mesh.n) // part.cells_per_side
    if part.mesh.dim == 1:
        return q1
    return q1[:, None] * part.n + q1[None, :]


def reference_subcube_center(part, q):
    side = 1.0 / part.n
    if part.mesh.dim == 1:
        return np.array([(q + 0.5) * side])
    return np.array([(q // part.n + 0.5) * side, (q % part.n + 0.5) * side])


def reference_subcube_bump(part, q):
    mesh = part.mesh
    h = mesh.h
    radius = 0.5 / part.n - h
    center = reference_subcube_center(part, q)
    xc = mesh.cell_centers_1d()
    xn = np.arange(mesh.n + 1) * h
    if mesh.dim == 1:
        cell_vals = bump_profile((xc - center[0]) / radius)
        node_vals = bump_profile((xn - center[0]) / radius)
    else:
        cell_vals = np.multiply.outer(bump_profile((xc - center[0]) / radius),
                                      bump_profile((xc - center[1]) / radius))
        node_vals = np.multiply.outer(bump_profile((xn - center[0]) / radius),
                                      bump_profile((xn - center[1]) / radius))
    mass = float(mesh.h ** mesh.dim * cell_vals.sum())
    return cell_vals / mass, node_vals / mass


def assert_same(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert np.array_equal(new, ref)


def random_fields(dim, n):
    """A coefficient, a sign-changing right side and a solution-type field
    with random entries, so that any change of summation order shows."""
    mesh = Mesh(dim, n)
    rng = np.random.default_rng([dim, n])
    a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape), 0.5, 2.0)
    f = RightHandSide(mesh, rng.standard_normal(mesh.cell_shape))
    u = ScalarField(mesh, rng.standard_normal(mesh.node_shape))
    return a, f, u


MESHES = list(itertools.product(DIMS, NS))
PARTITIONS = [(dim, n, p) for dim, n in MESHES for p in PARTS if n % p == 0]
# subcube_bump needs a one-cell margin inside each subcube: N > 2n
BUMPS = [(dim, n, p) for dim, n, p in PARTITIONS if n > 2 * p]


@pytest.mark.parametrize("dim, n", MESHES)
def test_padded_and_gradient(dim, n):
    _, _, u = random_fields(dim, n)
    assert_same(u.padded(), reference_padded(u))
    new = [face_gradient(u, k) for k in range(dim)]
    ref = reference_gradient(u)
    assert len(new) == len(ref) == dim
    for g_new, g_ref in zip(new, ref):
        assert_same(g_new, g_ref)


@pytest.mark.parametrize("dim, n", MESHES)
def test_difference_norms(dim, n):
    a, _, u = random_fields(dim, n)
    assert norm_h10(u) == reference_norm_h10(u)
    assert coefficient_h1_seminorm(a) == reference_coefficient_h1_seminorm(a)


@pytest.mark.parametrize("dim, n", MESHES)
def test_corner_average_cells_to_nodes(dim, n):
    _, f, v = random_fields(dim, n)
    assert_same(corner_average(f.values),
                reference_node_average_of_cells(f.values))
    assert load_functional(f, v) == reference_load_functional(f, v)


@pytest.mark.parametrize("n", NS)
def test_load_functional_with_point_masses(n):
    _, f, v = random_fields(1, n)
    f = RightHandSide(f.mesh, f.values, point_masses=((0.3, 1.5), (0.8, -0.25)))
    assert load_functional(f, v) == reference_load_functional(f, v)


@pytest.mark.parametrize("dim, n", MESHES)
def test_corner_average_nodes_to_cells(dim, n):
    _, _, u = random_fields(dim, n)
    assert_same(corner_average(u.padded()), reference_u_to_cells(u))


@pytest.mark.parametrize("dim, n", MESHES)
def test_weight(dim, n):
    a, f, u = random_fields(dim, n)
    assert_same(compute_weight(a, u, f).values, reference_weight(a, u, f))


@pytest.mark.parametrize("dim, n", MESHES)
def test_boundary_distances(dim, n):
    mesh = Mesh(dim, n)
    assert_same(mesh.boundary_distances(), reference_boundary_distances(mesh))


@pytest.mark.parametrize("dim, n, p", PARTITIONS)
def test_subcube_maps(dim, n, p):
    part = Partition(Mesh(dim, n), p)
    assert_same(part.subcube_of_cells(), reference_subcube_of_cells(part))
    for q in range(part.n_subcubes):
        assert_same(part.subcube_center(q), reference_subcube_center(part, q))


@pytest.mark.parametrize("dim, n, p", BUMPS)
def test_subcube_bump(dim, n, p):
    part = Partition(Mesh(dim, n), p)
    for q in range(part.n_subcubes):
        cells, nodes = subcube_bump(part, q)
        ref_cells, ref_nodes = reference_subcube_bump(part, q)
        assert_same(cells, ref_cells)
        assert_same(nodes, ref_nodes)


def reference_energy_form(a, u, v):
    mesh = a.mesh
    U, V = u.padded(), v.padded()
    if mesh.dim == 1:
        du, dv = np.diff(U), np.diff(V)
        return float(np.sum(a.values * du * dv) / mesh.h)
    ax, ay = face_coefficients(a)
    dux, dvx = np.diff(U, axis=0), np.diff(V, axis=0)
    duy, dvy = np.diff(U, axis=1), np.diff(V, axis=1)
    total = np.sum(ax * dux[:, 1:-1] * dvx[:, 1:-1])
    total += np.sum(ay * duy[1:-1, :] * dvy[1:-1, :])
    return float(total)


def reference_series_cube(pt, n_max, d):
    odd = np.arange(1, n_max + 1, 2, dtype=float)
    if d == 1:
        coef = 4.0 / (np.pi ** 3 * odd ** 3)
        return float(np.sum(coef * np.sin(np.pi * odd * pt[0])))
    m2 = odd[:, None] ** 2 + odd[None, :] ** 2
    coef = 16.0 / (np.pi ** 4 * m2 * odd[:, None] * odd[None, :])
    sx = np.sin(np.pi * odd * pt[0])
    sy = np.sin(np.pi * odd * pt[1])
    return float(sx @ coef @ sy)


def reference_recover_1d(u, f, w_excl, lam, Lam):
    """The body of recover_1d after its argument checks, returning
    (values, gamma_hat, n_clamped)."""
    mesh = u.mesh
    h = mesh.h
    x = mesh.cell_centers_1d()
    du = np.diff(u.padded()) / h
    sign = np.sign(du)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(flips) == 0:
        raise MalformedInputError("discrete derivative has no sign change")
    if len(flips) > 1:
        crossings = [float(x[i] + h * du[i] / (du[i] - du[i + 1])) for i in flips]
        raise AmbiguousPivotError(crossings)
    i = int(flips[0])
    gamma = float(x[i] + h * du[i] / (du[i] - du[i + 1]))
    F = _antiderivative_at_centers(f)
    F_gamma = float(np.interp(gamma, x, F))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (F_gamma - F) / du
    inside = np.abs(x - gamma) < w_excl
    outside = np.nonzero(~inside)[0]
    if len(outside) == 0:
        raise FieldArgumentError("exclusion window swallows the whole domain")
    left = outside[outside < np.nonzero(inside)[0][0]] if inside.any() else outside
    right = outside[outside > np.nonzero(inside)[0][-1]] if inside.any() else outside
    if inside.any():
        if len(left) and len(right):
            x0, x1 = x[left[-1]], x[right[0]]
            y0, y1 = a[left[-1]], a[right[0]]
            a[inside] = y0 + (x[inside] - x0) * (y1 - y0) / (x1 - x0)
        else:
            edge = a[left[-1]] if len(left) else a[right[0]]
            a[inside] = edge
    n_clamped = int(np.count_nonzero((a < lam) | (a > Lam)))
    a = np.clip(a, lam, Lam)
    return a, gamma, n_clamped


@pytest.mark.parametrize("dim, n", MESHES)
def test_energy_form(dim, n):
    a, _, u = random_fields(dim, n)
    v = ScalarField(u.mesh, np.random.default_rng([dim, n, 1]).standard_normal(
        u.mesh.node_shape))
    assert energy_form(a, u, v) == reference_energy_form(a, u, v)
    assert energy_form(a, u, u) == reference_energy_form(a, u, u)


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("n_max", (1, 3, 99))
def test_series_cube(d, n_max):
    rng = np.random.default_rng([d, n_max])
    points = [rng.uniform(0, 1, d) for _ in range(5)]
    points += [np.full(d, 0.5), np.zeros(d), np.ones(d)]
    for pt in points:
        assert series_cube(pt, n_max, d) == pytest.approx(
            reference_series_cube(pt, n_max, d), rel=1e-13, abs=0.0)


def recover_1d_outcome(recover, u, f, w_excl, lam, Lam):
    """(values bytes, gamma_hat, n_clamped) of a recovery, or (error type,
    message, crossings) of the error it raises."""
    try:
        values, gamma, n_clamped = recover(u, f, w_excl, lam, Lam)
    except (MalformedInputError, AmbiguousPivotError, FieldArgumentError) as exc:
        return type(exc), str(exc), getattr(exc, "crossings", None)
    return values.tobytes(), gamma, n_clamped


def new_recover_1d(u, f, w_excl, lam, Lam):
    rec = recover_1d(u, f, w_excl, lam=lam, Lam=Lam)
    return rec.values, rec.gamma_hat, rec.n_clamped


def pivot_cases():
    """(u, f) pairs: solutions with one pivot anywhere in (0, 1), a pivot
    next to either end, several pivots and none."""
    for n in (16, 17, 64, 1000, 4096):
        mesh = Mesh(1, n)
        rng = np.random.default_rng([n])
        a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape), 0.5, 2.0)
        for f in (RightHandSide.constant(mesh, 1.0),
                  RightHandSide(mesh, rng.uniform(0.0, 3.0, mesh.cell_shape)),
                  RightHandSide.point_mass(mesh, 0.07, 1.0),
                  RightHandSide.point_mass(mesh, 0.93, 1.0)):
            yield solve_1d(a, f)[0], f
        x = mesh.node_coords_1d()
        f = RightHandSide.constant(mesh, 1.0)
        yield ScalarField(mesh, np.sin(3 * np.pi * x)), f
        yield ScalarField(mesh, np.zeros(mesh.node_shape)), f


@pytest.mark.parametrize("case", list(enumerate(pivot_cases())),
                         ids=lambda case: str(case[0]))
def test_recover_1d(case):
    _, (u, f) = case
    h = u.mesh.h
    # no cell, a few cells, windows cut off at one end, the whole domain
    for w_excl in (0.1 * h, 0.5 * h, 4 * h, 0.05, 0.2, 0.6, 2.0):
        for lam, Lam in ((0.5, 2.0), (0.9, 1.1)):
            new = recover_1d_outcome(new_recover_1d, u, f, w_excl, lam, Lam)
            ref = recover_1d_outcome(reference_recover_1d, u, f, w_excl, lam, Lam)
            assert new == ref


# ---------------------------------------------------------------------------
# Scan invariants computed once: the antiderivative per right side, the sine
# basis per mesh, and the 1D solve's cumulative sum in place.

def reference_solve_1d(a, f):
    """solve_1d with F rebuilt per call and u assembled by concatenate."""
    mesh = a.mesh
    h = mesh.h
    with np.errstate(over="ignore", invalid="ignore"):
        A = 1.0 / a.values
        F = _antiderivative_at_centers(f)
        c = float(np.sum(A * F) / np.sum(A))
        u_full = np.concatenate(([0.0], np.cumsum(h * A * (c - F))))
    scale = float(np.max(np.abs(u_full)))
    closure = abs(float(u_full[-1])) / scale if scale > 0 else 0.0
    report = SolveReport(iterations=0, residual=closure,
                         solver="exact1d")
    return ScalarField(mesh, u_full[1:-1].copy()), c, report


def reference_fourier_sampler(x, dim, k_max):
    """The sampler with a writable basis built on every call."""
    k = np.arange(1, k_max + 1)
    if dim == 1:
        basis = sine_basis(x, k_max)
    else:
        s = np.sin(np.pi * np.outer(k, x))
        decay = np.outer(k ** -2.0, k ** -2.0)

    def draw(rng):
        if dim == 1:
            xi = rng.standard_normal(k_max)
            series = sine_series(xi, basis)
            bound = np.sum(np.abs(xi) * k ** -2.0)
        else:
            xi = rng.standard_normal((k_max, k_max))
            series = s.T @ (xi * decay) @ s
            bound = np.sum(np.abs(xi) * decay)
        return series / bound if bound > 0 else series

    return draw


def right_sides_1d(mesh, rng):
    """f = 1, a sign-changing f, and f with a mass left of the first
    center, one inside and one within h/2 of 1."""
    h = mesh.h
    yield RightHandSide.constant(mesh, 1.0)
    yield RightHandSide(mesh, rng.standard_normal(mesh.cell_shape))
    masses = ((0.25 * h, 0.7), (float(rng.uniform(0.1, 0.9)), -1.3),
              (1.0 - 0.25 * h, 2.0))
    yield RightHandSide(mesh, rng.uniform(0.0, 2.0, mesh.cell_shape),
                        point_masses=masses)
    yield RightHandSide(mesh, np.zeros(mesh.cell_shape), point_masses=masses[1:])


@pytest.mark.parametrize("n", (2, 3, 64, 1000, 65536))
def test_solve_1d_matches_reference(n):
    mesh = Mesh(1, n)
    rng = np.random.default_rng([n, 1])
    a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape), 0.5, 2.0)
    for f in right_sides_1d(mesh, rng):
        u_ref, gamma_ref, report_ref = reference_solve_1d(a, f)
        # the second solve reads the antiderivative the first one cached
        for _ in range(2):
            u, gamma, report = solve_1d(a, f)
            assert_same(u.values, u_ref.values)
            assert gamma == gamma_ref and report == report_ref


def test_scan_builds_one_antiderivative(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return _antiderivative_at_centers(f)

    monkeypatch.setattr(forward, "_antiderivative_at_centers", counted)
    mesh = Mesh(1, 256)
    f = RightHandSide.constant(mesh, 1.0)
    samples, _ = stability_scan(
        coefficient_family("smooth-fourier", [0], mesh, n_pairs=12),
        lambda a: solve_1d(a, f)[0])
    assert len(samples) == 12 and len(calls) == 1


def family_values(seed, mesh, k_max):
    return [(a.values, b.values) for a, b, _ in coefficient_family(
        "smooth-fourier", [seed], mesh, n_pairs=3, k_max=k_max)]


def test_family_basis_follows_the_mesh(monkeypatch):
    runs = [(Mesh(1, 64), 6), (Mesh(1, 100), 6), (Mesh(1, 64), 6),
            (Mesh(2, 12), 6), (Mesh(1, 64), 3), (Mesh(2, 12), 6)]
    with monkeypatch.context() as m:
        # the expected fields come from bases the stream does not build
        m.setattr(experiments, "_fourier_sampler", reference_fourier_sampler)
        expect = [family_values(seed, mesh, k_max)
                  for seed, (mesh, k_max) in enumerate(runs)]
    # alternating meshes and k_max: each stream builds its own basis
    for seed, ((mesh, k_max), fields) in enumerate(zip(runs, expect)):
        for (a, b), (a_ref, b_ref) in zip(family_values(seed, mesh, k_max),
                                          fields, strict=True):
            assert_same(a, a_ref)
            assert_same(b, b_ref)


def test_replaced_sampler_is_not_bypassed_by_the_cache(monkeypatch):
    mesh = Mesh(1, 64)
    family_values(0, mesh, 6)  # caches the sampler for this mesh
    monkeypatch.setattr(experiments, "_fourier_sampler",
                        lambda x, dim, k_max: lambda rng: np.zeros(x.shape))
    # a zero series leaves a at the class midpoint and b == a
    for a, b in family_values(0, mesh, 6):
        assert np.all(a == 1.25) and np.all(b == 1.25)


def closure_arrays(fn):
    """The arrays fn reads from its enclosing scope."""
    arrays = []
    for cell in fn.__closure__:
        try:
            value = cell.cell_contents
        except ValueError:  # the 2D names of a 1D sampler, and vice versa
            continue
        if isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


def test_cached_arrays_are_read_only():
    f = RightHandSide.constant(Mesh(1, 64), 1.0)
    assert f.antiderivative is f.antiderivative
    cached = [f.antiderivative]
    for mesh in (Mesh(1, 64), Mesh(2, 12)):
        draw = experiments._fourier_sampler(mesh.cell_centers_1d(), mesh.dim, 6)
        arrays = closure_arrays(draw)
        assert len(arrays) == (2 if mesh.dim == 1 else 3)
        cached += arrays
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
