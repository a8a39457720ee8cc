import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from invdiff.mesh import Mesh
from invdiff.field import (CoefficientField, FieldArgumentError, grid_l2,
                           coefficient_h1_seminorm)
from invdiff.mollify import (MollifierSpec, mollify, approximation_functional,
                             ResolutionError, bump_profile)
from invdiff.mollify import KERNELS, _fast_length


def step_field(n, lam=1.0, Lam=2.0):
    mesh = Mesh(1, n)
    x = mesh.cell_centers_1d()
    return mesh, CoefficientField(mesh, np.where(x < 0.5, lam, Lam), lam, Lam)


class TestSpecAndKernels:
    def test_weights_unit_mass_and_symmetry(self):
        for kernel in ("box", "bump"):
            w = MollifierSpec(0.05, kernel).weights(1.0 / 512)
            assert w.sum() == pytest.approx(1.0, rel=1e-12)
            assert np.allclose(w, w[::-1])
            assert w.min() >= 0.0

    def test_resolution_guard(self):
        mesh, a = step_field(64)
        with pytest.raises(ResolutionError):
            mollify(a, MollifierSpec(1.5 * mesh.h))

    def test_spec_validation(self):
        with pytest.raises(FieldArgumentError):
            MollifierSpec(0.0)
        with pytest.raises(FieldArgumentError):
            MollifierSpec(0.1, kernel="gauss")

    def test_bump_profile_support(self):
        assert bump_profile(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0))
        assert bump_profile(np.array([1.0, -1.0, 2.0])).tolist() == [0, 0, 0]


class TestMollify:
    def test_constant_preserved(self):
        mesh = Mesh(1, 256)
        a = CoefficientField.constant(mesh, 1.3, 1.0, 2.0)
        for kernel in ("box", "bump"):
            out = mollify(a, MollifierSpec(0.05, kernel))
            assert np.allclose(out.values, 1.3, rtol=0, atol=1e-14)

    def test_step_ramp_l2_error(self):
        mesh, a = step_field(4096)
        t = 0.1
        a_t = mollify(a, MollifierSpec(t, "box"))
        err = grid_l2(mesh, a.values - a_t.values)
        assert err == pytest.approx(np.sqrt(t / 6), abs=2 * mesh.h)

    def test_stays_in_class(self):
        rng = np.random.default_rng(9)
        for dim, n in ((1, 512), (2, 64)):
            mesh = Mesh(dim, n)
            a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape),
                                 0.5, 2.0)
            for kernel in ("box", "bump"):
                out = mollify(a, MollifierSpec(0.08, kernel))
                assert out.values.min() >= 0.5
                assert out.values.max() <= 2.0

    def test_commutes_with_reflection(self):
        mesh, a = step_field(512)
        refl = CoefficientField(mesh, a.values[::-1].copy(), a.lam, a.Lam)
        spec = MollifierSpec(0.06, "box")
        assert np.allclose(mollify(refl, spec).values[::-1],
                           mollify(a, spec).values, atol=1e-14)

    def test_2d_smoothing(self):
        mesh = Mesh(2, 64)
        q = np.add.outer(np.arange(64) // 32, np.arange(64) // 32) % 2
        a = CoefficientField(mesh, np.where(q == 0, 1.0, 2.0), 1.0, 2.0)
        out = mollify(a, MollifierSpec(0.1, "box"))
        assert coefficient_h1_seminorm(out) < coefficient_h1_seminorm(a)


class TestApproximationFunctional:
    def test_constant_zero(self):
        mesh = Mesh(1, 256)
        a = CoefficientField.constant(mesh, 1.0, 0.5, 2.0)
        a_t = mollify(a, MollifierSpec(0.05))
        assert approximation_functional(a, a_t, 0.05) == pytest.approx(0.0, abs=1e-13)

    def test_step_closed_form(self):
        mesh, a = step_field(4096)
        t = 0.1
        a_t = mollify(a, MollifierSpec(t, "box"))
        value = approximation_functional(a, a_t, t)
        closed = np.sqrt(t / 6) + np.sqrt(t / 2)
        assert value == pytest.approx(closed, rel=0.05)

    @pytest.mark.parametrize("field,window", [("step", (0.4, 0.6)),
                                              ("smooth", (0.9, 1.1))])
    def test_scaling_slopes(self, field, window):
        mesh = Mesh(1, 2048)
        x = mesh.cell_centers_1d()
        if field == "step":
            a = CoefficientField(mesh, np.where(x < 0.5, 1.0, 2.0), 1.0, 2.0)
        else:
            a = CoefficientField(mesh, 2.0 + np.sin(2 * np.pi * x), 0.5, 3.5)
        ts = np.geomspace(4 * mesh.h, 0.1, 8)
        vals = [approximation_functional(a, mollify(a, MollifierSpec(t)), t)
                for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert window[0] <= slope <= window[1]

    def test_gradient_norm_monotone_in_t(self):
        mesh, a = step_field(2048)
        ts = np.geomspace(4 * mesh.h, 0.1, 8)
        grads = [coefficient_h1_seminorm(mollify(a, MollifierSpec(t))) for t in ts]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(grads, grads[1:]))

    def test_mesh_mismatch(self):
        _, a = step_field(128)
        _, b = step_field(256)
        with pytest.raises(FieldArgumentError):
            approximation_functional(a, b, 0.05)


def reference_mollify(a, spec):
    """The direct O(N K) mollifier: one ndimage convolution per axis."""
    w = spec.weights(a.mesh.h)
    out = a.values
    for axis in range(a.mesh.dim):
        out = ndimage.convolve1d(out, w, axis=axis, mode="reflect")
    return np.clip(out, a.lam, a.Lam)


class TestFFTMollifier:
    @pytest.mark.parametrize("kernel", ["box", "bump"])
    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 9), (1, 256), (1, 257),
                                       (2, 8), (2, 9), (2, 32), (2, 33)])
    def test_matches_direct_convolution(self, kernel, dim, n):
        mesh = Mesh(dim, n)
        rng = np.random.default_rng([dim, n])
        a = CoefficientField(mesh, rng.uniform(0.5, 2.0, mesh.cell_shape),
                             0.5, 2.0)
        # up to t = 0.99 the stencil outgrows the field and the extension
        # reflects more than once
        for t in np.geomspace(2 * mesh.h, 0.99, 6):
            spec = MollifierSpec(t, kernel)
            np.testing.assert_allclose(mollify(a, spec).values,
                                       reference_mollify(a, spec),
                                       rtol=1e-12, atol=0)

    def test_stencil_longer_than_field(self):
        mesh, a = step_field(8)
        spec = MollifierSpec(0.99, "box")
        assert len(spec.weights(mesh.h)) == 19
        np.testing.assert_allclose(mollify(a, spec).values,
                                   reference_mollify(a, spec),
                                   rtol=1e-12, atol=0)

    def test_fast_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1
        for n in range(1, 2000):
            expect = next(m for m in range(n, 2 * n + 1) if smooth(m))
            assert _fast_length(n) == expect


mesh_and_spec = st.tuples(
    st.sampled_from([1, 2]), st.integers(4, 40), st.sampled_from(KERNELS),
    st.floats(0.0, 1.0))


def draw_spec(dim, n, kernel, frac):
    """Mesh and spec with t spread over [2h, 0.99]."""
    mesh = Mesh(dim, n)
    return mesh, MollifierSpec(2 * mesh.h + frac * (0.99 - 2 * mesh.h), kernel)


class TestMollifyProperties:
    @settings(max_examples=60, deadline=None)
    @given(mesh_and_spec, st.integers(0, 2 ** 32 - 1))
    def test_stays_in_class_and_in_data_range(self, case, seed):
        mesh, spec = draw_spec(*case)
        values = np.random.default_rng(seed).uniform(0.5, 2.0, mesh.cell_shape)
        a = CoefficientField(mesh, values, 0.5, 2.0)
        out = mollify(a, spec).values
        assert out.min() >= a.lam and out.max() <= a.Lam
        # convex averaging: no value leaves the range of the data either
        assert out.min() >= values.min() * (1 - 1e-14)
        assert out.max() <= values.max() * (1 + 1e-14)

    @settings(max_examples=60, deadline=None)
    @given(mesh_and_spec, st.floats(0.5, 2.0))
    def test_constant_unchanged(self, case, value):
        mesh, spec = draw_spec(*case)
        a = CoefficientField.constant(mesh, value, 0.5, 2.0)
        assert np.allclose(mollify(a, spec).values, value, rtol=0, atol=1e-14)
