import json
import math
import threading
import time

import numpy as np
import pytest

from invdiff import experiments
from invdiff.cli import main
from invdiff.mesh import Mesh, Partition
from invdiff.field import CoefficientField, FieldArgumentError
from invdiff.forward import (RightHandSide, SolverError, solve_1d,
                             solve_fd_2d)
from invdiff.experiments import (PIVOT_ALPHA0, coefficient_family,
                                 stability_scan, fit_exponent,
                                 envelope_constant, lower_bound_closed_form,
                                 weighted_estimate_monitor,
                                 nonidentifiability_demo, PairSample)


def g(t):
    return (1 - t * t / 2) / (2 - t)


def solver_1d(mesh):
    f = RightHandSide.constant(mesh, 1.0)
    return f, lambda a: solve_1d(a, f)[0]


def solver_2d(mesh, tol=1e-10):
    f = RightHandSide.constant(mesh, 1.0)
    return f, lambda a: solve_fd_2d(a, f, tol=tol)[0]


class TestPivot:
    def test_alpha0_is_the_in_range_stationary_point(self):
        assert PIVOT_ALPHA0 == pytest.approx(2 - math.sqrt(2), rel=1e-15)
        assert 1 - 2 * PIVOT_ALPHA0 + PIVOT_ALPHA0 ** 2 / 2 == pytest.approx(0, abs=1e-15)
        assert g(PIVOT_ALPHA0) == pytest.approx(PIVOT_ALPHA0, abs=1e-14)
        eps = 1e-6
        deriv = (g(PIVOT_ALPHA0 + eps) - g(PIVOT_ALPHA0 - eps)) / (2 * eps)
        assert abs(deriv) < 1e-5


class TestLowerBoundClosedForm:
    def test_identical_coefficients(self):
        lb = lower_bound_closed_form(PIVOT_ALPHA0)
        assert lb.delta_a_l2 == 0.0
        assert lb.eta == 0.0
        assert lb.e_prime_l2_upper == 0.0
        assert lb.e_prime_l2_exact == 0.0

    def test_eta_formula(self):
        beta = PIVOT_ALPHA0 + 0.1
        lb = lower_bound_closed_form(beta)
        formula = 0.1 ** 2 / (2 * (2 - beta))
        assert lb.eta == pytest.approx(formula, rel=1e-12)
        assert lb.eta == pytest.approx(abs(g(beta) - g(PIVOT_ALPHA0)), rel=1e-12)
        assert lb.eta < 0.5 * 0.1 ** 2

    @pytest.mark.parametrize("offset", [-0.2, -0.05, 0.01, 0.1, 0.3])
    def test_exact_below_upper_bound(self, offset):
        lb = lower_bound_closed_form(PIVOT_ALPHA0 + offset)
        assert 0 < lb.e_prime_l2_exact <= lb.e_prime_l2_upper

    def test_delta_monotone_in_offset(self):
        off04 = [lower_bound_closed_form(PIVOT_ALPHA0 + o).delta_a_l2
                 for o in (0.01, 0.02, 0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(off04, off04[1:]))

    def test_exact_matches_quadrature(self):
        # cross-check the piecewise integration against dense numerical
        # quadrature of E'(x)^2
        beta = PIVOT_ALPHA0 + 0.17
        lb = lower_bound_closed_form(beta)
        x = (np.arange(2_000_000) + 0.5) / 2_000_000
        A = np.where(x <= PIVOT_ALPHA0, 1.0, 2.0)
        B = np.where(x <= beta, 1.0, 2.0)
        e_prime = -(A - B) * (x - g(PIVOT_ALPHA0)) + B * (g(PIVOT_ALPHA0) - g(beta))
        dense = np.sqrt(np.mean(e_prime ** 2))
        assert lb.e_prime_l2_exact == pytest.approx(dense, rel=1e-5)

    def test_beta_range_checked(self):
        for beta in (0.0, 1.0, -0.5):
            with pytest.raises(FieldArgumentError):
                lower_bound_closed_form(beta)


class TestCoefficientFamily:
    def test_deterministic(self):
        mesh = Mesh(1, 256)
        first = [(a.values, b.values) for a, b, _ in
                 coefficient_family("smooth-fourier", [4], mesh, n_pairs=3)]
        second = [(a.values, b.values) for a, b, _ in
                  coefficient_family("smooth-fourier", [4], mesh, n_pairs=3)]
        for (a1, b1), (a2, b2) in zip(first, second):
            assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_step_family_values(self):
        mesh = Mesh(1, 4096)
        for a, b, meta in coefficient_family("step-1d-lowerbound", [0], mesh,
                                             n_pairs=5):
            for field in (a, b):
                assert set(np.unique(field.values)) <= {0.5, 1.0}
                assert field.lam == 0.4 and field.Lam == 1.1
            assert meta["beta_eff"] > meta["alpha_eff"]

    def test_pwc_family_class_membership(self):
        mesh = Mesh(2, 64)
        for a, b, _ in coefficient_family("pwc-random", [3], mesh, n_pairs=4,
                                          partition_n=4):
            for field in (a, b):
                assert len(np.unique(field.values)) <= 16
                assert field.values.min() >= field.lam
                assert field.values.max() <= field.Lam

    def test_unknown_tag(self):
        with pytest.raises(FieldArgumentError):
            list(coefficient_family("nope", [0], Mesh(1, 64)))

    @pytest.mark.parametrize("tag, n, builds", [("pwc-random", 64, 1),
                                                ("smooth-fourier", 63, 0)])
    def test_partition_built_once_per_family(self, monkeypatch, tag, n, builds):
        made = []

        def counted(*args):
            made.append(args)
            return Partition(*args)

        monkeypatch.setattr(experiments, "Partition", counted)
        pairs = list(coefficient_family(tag, [2], Mesh(2, n), n_pairs=12))
        assert len(pairs) == 12 and len(made) == builds

    @pytest.mark.parametrize("tag,dim", [("smooth-fourier", 1),
                                         ("smooth-fourier", 2),
                                         ("pwc-random", 2),
                                         ("step-1d-lowerbound", 1)])
    def test_stream_is_each_seed_in_turn(self, monkeypatch, tag, dim):
        mesh = Mesh(dim, 16 if dim == 2 else 128)
        built = {"Partition": [], "_fourier_sampler": []}

        def counted(calls, original):
            def call(*args):
                calls.append(args)
                return original(*args)
            return call

        for name, calls in built.items():
            monkeypatch.setattr(experiments, name,
                                counted(calls, getattr(experiments, name)))
        stream = list(coefficient_family(tag, [5, 2], mesh, n_pairs=3))
        # what the pairs share is built once for the whole stream
        assert {name: len(calls) for name, calls in built.items()} == {
            "Partition": int(tag == "pwc-random"),
            "_fourier_sampler": int(tag == "smooth-fourier")}
        apart = [pair for seed in (5, 2)
                 for pair in coefficient_family(tag, [seed], mesh, n_pairs=3)]
        assert len(stream) == len(apart) == 6
        for (a, b, meta), (a_ref, b_ref, meta_ref) in zip(stream, apart):
            for field, ref in ((a, a_ref), (b, b_ref)):
                assert field.values.tobytes() == ref.values.tobytes()
                assert (field.lam, field.Lam) == (ref.lam, ref.Lam)
            assert meta == meta_ref
        assert [meta["seed"] for _, _, meta in stream] == [
            50000, 50001, 50002, 20000, 20001, 20002]


def reference_fourier_field(rng, x_axes, k_max):
    """The per-pair sine series, which rebuilt sin(pi k x) for every field."""
    dim = len(x_axes)
    if dim == 1:
        xi = rng.standard_normal(k_max)
        k = np.arange(1, k_max + 1)
        series = np.sum(xi[:, None] * k[:, None] ** -2.0
                        * np.sin(np.pi * k[:, None] * x_axes[0][None, :]), axis=0)
        bound = np.sum(np.abs(xi) * k ** -2.0)
    else:
        xi = rng.standard_normal((k_max, k_max))
        k = np.arange(1, k_max + 1)
        sx = np.sin(np.pi * np.outer(k, x_axes[0]))
        sy = np.sin(np.pi * np.outer(k, x_axes[1]))
        decay = np.outer(k ** -2.0, k ** -2.0)
        series = sx.T @ (xi * decay) @ sy
        bound = np.sum(np.abs(xi) * decay)
    return series / bound if bound > 0 else series


def reference_sampler(x, dim, k_max):
    return lambda rng: reference_fourier_field(rng, [x] * dim, k_max)


class TestSineBasis:
    @pytest.mark.parametrize("dim,n", [(1, 1000), (1, 4096), (2, 48)])
    @pytest.mark.parametrize("k_max", [1, 3, 6, 11])
    def test_family_matches_per_pair_basis(self, monkeypatch, dim, n, k_max):
        mesh = Mesh(dim, n)
        for seed in (0, 7, 123):
            kwargs = dict(n_pairs=4, k_max=k_max)
            fields = [(a.values, b.values) for a, b, _ in
                      coefficient_family("smooth-fourier", [seed], mesh,
                                         **kwargs)]
            with monkeypatch.context() as m:
                m.setattr(experiments, "_fourier_sampler", reference_sampler)
                expect = [(a.values, b.values) for a, b, _ in
                          coefficient_family("smooth-fourier", [seed], mesh,
                                             **kwargs)]
            for (a, b), (a_ref, b_ref) in zip(fields, expect, strict=True):
                assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)

    def test_scan_artifacts_match_per_pair_basis(self, tmp_path, monkeypatch):
        # the scan config of acceptance criterion 12
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({
            "mesh": {"dim": 1, "n": 1024},
            "experiment": {"family": "smooth-fourier", "seeds": [2, 3],
                           "n_pairs": 6}}))
        assert main(["scan", "--config", str(cfg),
                     "--out", str(tmp_path / "new")]) == 0
        monkeypatch.setattr(experiments, "_fourier_sampler", reference_sampler)
        assert main(["scan", "--config", str(cfg),
                     "--out", str(tmp_path / "ref")]) == 0
        for name in ("samples.csv", "fit.json"):
            assert ((tmp_path / "new" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes())


class TestStabilityScan:
    def test_identical_pairs_insufficient_range(self):
        mesh = Mesh(1, 256)
        _, solve = solver_1d(mesh)
        a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
        pairs = [(a, a, {"seed": k, "family": "x", "n": 256}) for k in range(10)]
        samples, fit = stability_scan(iter(pairs), solve, floor=1e-8)
        assert all(s.excluded for s in samples)
        assert fit.status == "insufficient-range"

    def test_step_family_exponent(self):
        mesh = Mesh(1, 4096)
        _, solve = solver_1d(mesh)
        samples, fit = stability_scan(
            coefficient_family("step-1d-lowerbound", [0], mesh, n_pairs=10),
            solve, floor=1e-8)
        assert 0.28 <= fit.alpha_hat <= 0.39
        assert fit.status == "ok"
        assert fit.n_used == 10 and fit.n_excluded == 0

    def test_pwc_family_fixed_partition_exponent(self):
        mesh = Mesh(2, 64)
        _, solve = solver_2d(mesh)
        samples, fit = stability_scan(
            coefficient_family("pwc-random", [5], mesh, n_pairs=10,
                               partition_n=2, eps_min=3e-4, eps_max=1e-1),
            solve, floor=1e-8, solver_tol=1e-10)
        assert 0.8 <= fit.alpha_hat <= 1.2

    def test_interchange_symmetry(self):
        mesh = Mesh(1, 512)
        _, solve = solver_1d(mesh)
        a, b, meta = next(coefficient_family("smooth-fourier", [8], mesh,
                                             n_pairs=1))
        s1, _ = stability_scan(iter([(a, b, meta)]), solve, floor=1e-12)
        s2, _ = stability_scan(iter([(b, a, meta)]), solve, floor=1e-12)
        assert s1[0].delta_l2 == pytest.approx(s2[0].delta_l2, rel=1e-12)
        assert s1[0].e_h10 == pytest.approx(s2[0].e_h10, rel=1e-12)

    def test_fit_invariant_under_reordering(self):
        rng = np.random.default_rng(0)
        samples = [PairSample(float(d), float(e), {"seed": i})
                   for i, (d, e) in enumerate(
                       zip(rng.uniform(0.1, 1, 12), np.geomspace(1e-6, 1e-2, 12)))]
        fit1 = fit_exponent(samples)
        fit2 = fit_exponent(list(reversed(samples)))
        assert fit1.alpha_hat == pytest.approx(fit2.alpha_hat, rel=1e-12)
        assert fit1.c_hat == pytest.approx(fit2.c_hat, rel=1e-12)

    def test_envelope_variant_covers_all_samples(self):
        mesh = Mesh(1, 2048)
        _, solve = solver_1d(mesh)
        samples, _ = stability_scan(
            coefficient_family("smooth-fourier", [11], mesh, n_pairs=12),
            solve, floor=1e-8)
        fit = fit_exponent(samples)
        c = envelope_constant(samples, fit.alpha_hat)
        for s in samples:
            assert s.delta_l2 <= c * s.e_h10 ** fit.alpha_hat * (1 + 1e-12)

    def test_floor_validation(self):
        mesh = Mesh(1, 128)
        _, solve = solver_1d(mesh)
        with pytest.raises(FieldArgumentError):
            stability_scan(iter([]), solve, floor=1e-9, solver_tol=1e-9)


class TestClosedFormVsGrid:
    def test_grid_norms_match_closed_form(self):
        # the discrete norm carries the known midpoint defect h^2*gap/12 on
        # its square; offsets of >= 5 cells sit within 1%
        mesh = Mesh(1, 4096)
        _, solve = solver_1d(mesh)
        pairs = list(coefficient_family("step-1d-lowerbound", [0], mesh,
                                        n_pairs=10))
        samples, _ = stability_scan(iter(pairs), solve, floor=1e-8)
        for (a, b, meta), s in zip(pairs, samples):
            lb = lower_bound_closed_form(meta["beta_eff"], alpha=meta["alpha_eff"])
            gap = abs(meta["beta_eff"] - meta["alpha_eff"])
            rel = abs(lb.e_prime_l2_exact - s.e_h10) / lb.e_prime_l2_exact
            assert rel <= (0.011 if gap < 5 * mesh.h else 0.01)
            delta_exact = 0.5 * math.sqrt(gap)
            assert s.delta_l2 == pytest.approx(delta_exact, rel=1e-12)


class TestWeightedEstimateMonitor:
    def test_identical_coefficients_give_zero(self):
        mesh = Mesh(1, 256)
        f, solve = solver_1d(mesh)
        a, _, _ = next(coefficient_family("smooth-fourier", [0], mesh,
                                          n_pairs=1))
        lhs, rhs, ratio = weighted_estimate_monitor(a, a, f, solve)
        assert lhs == 0.0 and ratio == 0.0

    def test_ratio_bounded_over_seeds(self):
        mesh = Mesh(1, 512)
        f, solve = solver_1d(mesh)
        ratios = []
        for seed in range(20):
            a, b, _ = next(coefficient_family("smooth-fourier", [seed], mesh,
                                              n_pairs=1, eps_min=1e-2,
                                              eps_max=1e-2))
            ratios.append(weighted_estimate_monitor(a, b, f, solve)[2])
        assert max(ratios) <= 1.2 * 0.0044884801847442915  # pinned constant

    def test_dim2_path(self):
        mesh = Mesh(2, 32)
        f, solve = solver_2d(mesh)
        a, b, _ = next(coefficient_family("smooth-fourier", [1], mesh,
                                          n_pairs=1, eps_min=1e-2,
                                          eps_max=1e-2))
        lhs, rhs, ratio = weighted_estimate_monitor(a, b, f, solve)
        assert lhs >= 0 and rhs > 0
        assert np.isfinite(ratio) and ratio > 0

    def test_linearization_scaling(self):
        mesh = Mesh(1, 512)
        f, solve = solver_1d(mesh)
        a, b, _ = next(coefficient_family("smooth-fourier", [3], mesh,
                                          n_pairs=1, eps_min=1e-3,
                                          eps_max=1e-3))
        half = CoefficientField(mesh, a.values + 0.5 * (b.values - a.values),
                                a.lam, a.Lam)
        l1, r1, _ = weighted_estimate_monitor(a, b, f, solve)
        l2, r2, _ = weighted_estimate_monitor(a, half, f, solve)
        assert l1 / l2 == pytest.approx(4.0, rel=0.1)
        assert r1 / r2 == pytest.approx(2.0, rel=0.1)


class TestNonidentifiability:
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_one_solution_many_coefficients(self, q):
        gap = nonidentifiability_demo(q)
        assert gap <= 1e-2

    def test_q_validation(self):
        with pytest.raises(FieldArgumentError):
            nonidentifiability_demo(2.0)


def test_envelope_constant_and_csv():
    samples = [PairSample(1.0, 1.0, {"seed": 0}),
               PairSample(2.0, 4.0, {"seed": 1}),
               PairSample(0.0, 1e-12, {"seed": 2}, excluded=True)]
    c = envelope_constant(samples, 0.5)
    assert c == pytest.approx(1.0)


def reference_sine_series(xi, basis):
    """sine_series as it was: every product row formed at once, then summed."""
    k = np.arange(1, len(xi) + 1)
    return np.sum((xi * k ** -2.0)[:, None] * basis, axis=0)


@pytest.mark.parametrize("n", [7, 1000, 65536])
@pytest.mark.parametrize("k_max", [1, 3, 6, 9])
def test_sine_series_bits_match_summed_products(n, k_max):
    x = (np.arange(n) + 0.5) / n
    basis = experiments.sine_basis(x, k_max)
    rng = np.random.default_rng(10 * n + k_max)
    for _ in range(3):
        xi = rng.standard_normal(k_max)
        assert np.array_equal(experiments.sine_series(xi, basis),
                              reference_sine_series(xi, basis))


def scan_pairs(count=6, n=64):
    """count distinct 1D pairs; pair k moves the coefficient by 0.02 (k + 1)."""
    mesh = Mesh(1, n)
    a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
    return [(a, CoefficientField.constant(mesh, 1.0 + 0.02 * (k + 1), 0.5, 2.0),
             {"seed": k}) for k in range(count)]


class TestScanWorkers:
    """stability_scan measures up to `workers` pairs at once on threads and
    returns the samples in pair order."""

    def test_samples_in_pair_order_for_any_workers(self):
        pairs = scan_pairs()
        f = RightHandSide.constant(pairs[0][0].mesh, 1.0)
        slow = pairs[0][1]

        def solve(a):
            if a is slow:  # pair 0 finishes after every other pair
                time.sleep(0.15)
            return solve_1d(a, f)[0]

        reference, ref_fit = stability_scan(iter(pairs), solve, floor=1e-12)
        assert [s.metadata["seed"] for s in reference] == list(range(6))
        for workers in (1, 2, 3):
            samples, fit = stability_scan(iter(pairs), solve, floor=1e-12,
                                          workers=workers)
            assert [s.metadata["seed"] for s in samples] == list(range(6))
            assert samples == reference
            assert fit == ref_fit

    def test_two_workers_overlap_two_solves(self):
        # each pair's second solve waits until another solve reaches the
        # barrier, which only a concurrent solve can do
        pairs = scan_pairs(count=2)
        f = RightHandSide.constant(pairs[0][0].mesh, 1.0)
        barrier = threading.Barrier(2, timeout=5)
        seconds = [b for _, b, _ in pairs]

        def solve(a):
            if any(a is b for b in seconds):
                barrier.wait()
            return solve_1d(a, f)[0]

        samples, _ = stability_scan(iter(pairs), solve, floor=1e-12, workers=2)
        assert [s.metadata["seed"] for s in samples] == [0, 1]

    def test_one_worker_solves_in_the_calling_thread(self):
        pairs = scan_pairs()
        f = RightHandSide.constant(pairs[0][0].mesh, 1.0)
        threads = set()

        def solve(a):
            threads.add(threading.get_ident())
            return solve_1d(a, f)[0]

        stability_scan(iter(pairs), solve, floor=1e-12, workers=1)
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pairs_are_drawn_as_workers_free_up(self, workers):
        pairs = scan_pairs(count=8)
        f = RightHandSide.constant(pairs[0][0].mesh, 1.0)
        seconds = [b for _, b, _ in pairs]
        lock = threading.Lock()
        finished = []  # pairs whose second solve has returned
        ahead = []  # pairs drawn but not finished, at each draw

        def draw():
            for k, pair in enumerate(pairs):
                with lock:
                    ahead.append(k - len(finished))
                yield pair

        def solve(a):
            u = solve_1d(a, f)[0]
            time.sleep(0.01)
            if any(a is b for b in seconds):
                with lock:
                    finished.append(a)
            return u

        stability_scan(draw(), solve, floor=1e-12, workers=workers)
        assert len(finished) == 8
        # the next pair is drawn while at most workers pairs are in flight;
        # Executor.map would draw them all at once
        assert max(ahead) <= workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solver_error_reaches_the_caller(self, workers):
        pairs = scan_pairs()
        f = RightHandSide.constant(pairs[0][0].mesh, 1.0)
        bad = pairs[1][1]

        def solve(a):
            if a is bad:
                raise SolverError("stalled", residual=1.0, iterations=3)
            return solve_1d(a, f)[0]

        with pytest.raises(SolverError):
            stability_scan(iter(pairs), solve, floor=1e-12, workers=workers)

    def test_workers_validated(self):
        with pytest.raises(FieldArgumentError):
            stability_scan(iter(scan_pairs()), lambda a: None, workers=0)
