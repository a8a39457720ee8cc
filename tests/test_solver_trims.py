"""The 2D solve holds fewer arrays than before: the inverse eigenvalue table
is cached and shared, CG takes over the right side as its residual, and the
stencil and the dots share one scratch array. The sine transform comes from
scipy's pocketfft extension, loaded without the scipy.fft package. The
reference_* functions keep the earlier bodies on public scipy.fft, and every
test asserts that the leaner solve gives the same iterate bits, iteration
count and residual."""

import importlib.machinery
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import invdiff
from invdiff.mesh import Mesh, Partition
from invdiff.field import CoefficientField, corner_average
from invdiff.forward import (RightHandSide, SolverError, face_coefficients,
                             solve_fd_2d, _inverse_eigenvalues, _five_point,
                             _pocketfft)

NS = (3, 8, 33, 128)


def reference_five_point(a):
    ax, ay = face_coefficients(a)
    diag = ax[1:] + ax[:-1] + ay[:, 1:] + ay[:, :-1]
    fx, fy = ax[1:-1], ay[:, 1:-1]
    tmp = np.empty_like(diag)

    def apply(x, out=None):
        y = np.multiply(diag, x, out=out)
        y[:-1] -= np.multiply(fx, x[1:], out=tmp[:-1])
        y[1:] -= np.multiply(fx, x[:-1], out=tmp[:-1])
        y[:, :-1] -= np.multiply(fy, x[:, 1:], out=tmp[:, :-1])
        y[:, 1:] -= np.multiply(fy, x[:, :-1], out=tmp[:, :-1])
        return y

    return apply


def reference_laplacian_inverse(n):
    import scipy.fft

    s = np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    inv_eig = 1.0 / (4.0 * (s[:, None] + s[None, :]))

    def apply(r, out):
        np.copyto(out, r)
        c = scipy.fft.dstn(out, type=1, workers=1, overwrite_x=True)
        c *= inv_eig
        return scipy.fft.idstn(c, type=1, workers=1, overwrite_x=True)

    return apply


def reference_dot(x, y, scratch):
    return float(np.sum(np.multiply(x, y, out=scratch)))


def reference_pcg(apply_A, apply_M, b, tol, max_iter):
    scratch = np.empty_like(b)
    norm_b = math.sqrt(reference_dot(b, b, scratch))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b)
    r = b.copy()
    z = apply_M(r, np.empty_like(b))
    p = z.copy()
    Ap = np.empty_like(b)
    rz = reference_dot(r, z, scratch)
    rel = 1.0
    for it in range(1, max_iter + 1):
        apply_A(p, Ap)
        pAp = reference_dot(p, Ap, scratch)
        if not (0.0 < rz < math.inf and 0.0 < pAp < math.inf):
            raise SolverError("breakdown", residual=rel, iterations=it)
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(Ap, alpha, out=scratch)
        rel = math.sqrt(reference_dot(r, r, scratch)) / norm_b
        if rel <= tol:
            return x, it, rel
        z = apply_M(r, z)
        rz_new = reference_dot(r, z, scratch)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError("stalled", residual=rel, iterations=max_iter)


def reference_solve(a, f, tol=1e-10, max_iter=50000):
    b = a.mesh.h ** 2 * corner_average(f.values)
    apply_M = reference_laplacian_inverse(a.mesh.n)
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_pcg(reference_five_point(a), apply_M, b, tol,
                             max_iter)


def coefficient(kind, n, seed=0):
    mesh = Mesh(2, n)
    rng = np.random.default_rng([seed, n])
    if kind == "pwc":
        part = Partition(mesh, next(p for p in (4, 3) if n % p == 0))
        values = rng.uniform(0.5, 2.0, part.n_subcubes)[part.subcube_of_cells()]
    else:  # fourier
        x = mesh.cell_centers_1d()
        k = np.arange(1, 7)
        s = np.sin(np.pi * np.outer(k, x))
        xi = rng.standard_normal((6, 6)) * np.outer(k ** -2.0, k ** -2.0)
        series = s.T @ xi @ s
        values = 1.25 + 0.5 * series / np.max(np.abs(series))
    return CoefficientField(mesh, values, 0.5, 2.0)


@pytest.mark.parametrize("kind", ["pwc", "fourier"])
@pytest.mark.parametrize("n", NS)
def test_solve_matches_reference_bits(kind, n):
    a = coefficient(kind, n)
    rng = np.random.default_rng(n)
    for f in (RightHandSide.constant(a.mesh, 1.0),
              RightHandSide(a.mesh, rng.uniform(-1.0, 1.0, a.mesh.cell_shape))):
        rhs = f.values.copy()
        u, report = solve_fd_2d(a, f)
        x, iterations, rel = reference_solve(a, f)
        assert u.values.dtype == x.dtype and np.array_equal(u.values, x)
        assert report.iterations == iterations
        assert report.residual == rel
        # the right side CG overwrites is built inside the solve
        assert np.array_equal(f.values, rhs)


@pytest.mark.parametrize("n", NS[1:])
def test_stall_matches_reference(n):
    a = coefficient("pwc", n, seed=1)
    f = RightHandSide.constant(a.mesh, 1.0)
    with pytest.raises(SolverError) as new:
        solve_fd_2d(a, f, tol=1e-14, max_iter=2)
    with pytest.raises(SolverError) as ref:
        reference_solve(a, f, tol=1e-14, max_iter=2)
    assert new.value.residual == ref.value.residual
    assert new.value.iterations == ref.value.iterations == 2


@pytest.mark.parametrize("n", NS)
def test_shared_scratch_stencil_matches_reference(n):
    a = coefficient("fourier", n)
    x = np.random.default_rng(n).standard_normal(a.mesh.node_shape)
    expected = reference_five_point(a)(x)
    scratch = np.full_like(x, np.nan)
    apply = _five_point(a, scratch)
    out = np.empty_like(x)
    for _ in range(2):  # scratch content left by other work does not leak in
        assert np.array_equal(apply(x, out), expected)
        scratch.fill(np.inf)


@pytest.mark.parametrize("n", NS)
def test_eigenvalue_table_is_cached_and_read_only(n):
    s = np.sin(np.pi * np.arange(1, n) / (2 * n)) ** 2
    table = _inverse_eigenvalues(n)
    assert np.array_equal(table, 1.0 / (4.0 * (s[:, None] + s[None, :])))
    assert _inverse_eigenvalues(n) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


@pytest.mark.parametrize("n", [33, 128])
def test_threaded_solves_match_sequential_bits(n):
    fields = [coefficient(kind, n, seed) for kind in ("pwc", "fourier")
              for seed in (2, 3)]
    f = RightHandSide.constant(fields[0].mesh, 1.0)
    sequential = [solve_fd_2d(a, f) for a in fields]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(lambda a: solve_fd_2d(a, f), fields))
    for (u, report), (v, other) in zip(sequential, threaded):
        assert np.array_equal(u.values, v.values)
        assert report == other


@pytest.mark.parametrize("n", list(range(2, 41)) + [127, 128, 511, 512])
def test_pocketfft_matches_public_dstn_bits(n):
    import scipy.fft

    pfft = _pocketfft()
    assert _pocketfft() is pfft
    x = np.random.default_rng(n).standard_normal((n, n))
    # inorm 0 and 2 are scipy.fft's "backward" norm, forward and inverse;
    # the solver transforms in place, out being its input
    for inorm, public in ((0, scipy.fft.dstn), (2, scipy.fft.idstn)):
        expected = public(x, type=1, workers=1)
        y = x.copy()
        assert pfft.dst(y, 1, (0, 1), inorm, y, 1) is y
        assert y.tobytes() == expected.tobytes()


def test_pocketfft_coexists_with_scipy_fft():
    # in a fresh process: the direct load registers nothing in sys.modules,
    # and a later import of scipy.fft still works and gives the same bytes
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from invdiff.forward import _pocketfft\n"
        "pfft = _pocketfft()\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "import scipy.fft\n"
        "x = np.random.default_rng(5).standard_normal((63, 63))\n"
        "ours = pfft.dst(x, 1, (0, 1), 2, None, 1)\n"
        "print(ours.tobytes() == scipy.fft.idstn(x, type=1, workers=1).tobytes())\n")
    src = str(Path(invdiff.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=os.environ | {"PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_missing_pocketfft_names_the_directory(monkeypatch):
    # no fallback: a scipy without the extension fails at the first 2D solve
    find_spec = importlib.machinery.PathFinder.find_spec
    monkeypatch.setattr(
        importlib.machinery.PathFinder, "find_spec",
        lambda name, path=None, target=None:
            None if name.endswith(".pypocketfft") else find_spec(name, path, target))
    where = re.escape(os.path.join("scipy", "fft", "_pocketfft"))
    with pytest.raises(ImportError, match=f"not found in .*{where}$"):
        _pocketfft.__wrapped__()
