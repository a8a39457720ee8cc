"""Property tests for three claims of the README on small random meshes in
dims 1 and 2: the discrete weak identity energy_form(a, u, v) ==
load_functional(f, v) for the computed u, also with 1D point masses, the
maximum principle for f >= 0, also with zero cells and with 1D point
masses, and scans that do not depend on the number of worker threads."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from invdiff.mesh import Mesh
from invdiff.field import CoefficientField, ScalarField
from invdiff.forward import (RightHandSide, solve_1d, solve_fd_2d, energy_form,
                             load_functional, maximum_principle_check)
from invdiff.experiments import FAMILY_TAGS, coefficient_family, stability_scan

meshes = st.one_of(st.tuples(st.just(1), st.integers(2, 64)),
                   st.tuples(st.just(2), st.integers(2, 12)))
# f >= 0 with zero cells; smaller positive values only scale u
nonnegative = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@st.composite
def coefficients(draw, mesh):
    """A coefficient of the class [lam, Lam], contrast up to 100."""
    lam = draw(st.floats(0.1, 1.0))
    Lam = lam * draw(st.floats(1.01, 100.0))
    values = draw(arrays(float, mesh.cell_shape, elements=st.floats(lam, Lam)))
    return CoefficientField(mesh, values, lam, Lam)


def solve(a, f):
    if a.mesh.dim == 1:
        return solve_1d(a, f)[0]
    return solve_fd_2d(a, f, tol=1e-12)[0]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim_n=meshes, seed=st.integers(0, 2 ** 32 - 1))
def test_discrete_weak_identity(data, dim_n, seed):
    mesh = Mesh(*dim_n)
    a = data.draw(coefficients(mesh))
    f = RightHandSide(mesh, data.draw(arrays(float, mesh.cell_shape,
                                             elements=st.floats(-10.0, 10.0))))
    u = solve(a, f)
    v = ScalarField(mesh, np.random.default_rng(seed).standard_normal(
        mesh.node_shape))
    assert energy_form(a, u, u) == pytest.approx(load_functional(f, u),
                                                 rel=1e-10, abs=1e-9)
    assert energy_form(a, u, v) == pytest.approx(load_functional(f, v),
                                                 rel=1e-10, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1),
       masses=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True,
                                           exclude_max=True),
                                 st.floats(-10.0, 10.0)),
                       min_size=1, max_size=3))
def test_discrete_weak_identity_with_point_masses(data, n, seed, masses):
    # a mass acts on the node solve_1d puts it on, anywhere in (0, 1)
    mesh = Mesh(1, n)
    a = data.draw(coefficients(mesh))
    f = RightHandSide(mesh, data.draw(arrays(float, mesh.cell_shape,
                                             elements=st.floats(-10.0, 10.0))),
                      point_masses=masses)
    u = solve(a, f)
    v = ScalarField(mesh, np.random.default_rng(seed).standard_normal(
        mesh.node_shape))
    assert energy_form(a, u, u) == pytest.approx(load_functional(f, u),
                                                 rel=1e-10, abs=1e-9)
    assert energy_form(a, u, v) == pytest.approx(load_functional(f, v),
                                                 rel=1e-10, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim_n=meshes)
def test_maximum_principle(data, dim_n):
    mesh = Mesh(*dim_n)
    a = data.draw(coefficients(mesh))
    f = RightHandSide(mesh, data.draw(arrays(float, mesh.cell_shape,
                                             elements=nonnegative)))
    assert maximum_principle_check(solve(a, f), f)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 64),
       masses=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True,
                                           exclude_max=True),
                                 nonnegative), min_size=1, max_size=3))
def test_maximum_principle_with_point_masses(data, n, masses):
    mesh = Mesh(1, n)
    a = data.draw(coefficients(mesh))
    f = RightHandSide(mesh, data.draw(arrays(float, mesh.cell_shape,
                                             elements=nonnegative)),
                      point_masses=masses)
    assert maximum_principle_check(solve(a, f), f)


def test_mass_left_of_first_center_adds_only_a_constant():
    # F = const + F_smooth at every cell center, and c absorbs the constant
    mesh = Mesh(1, 24)
    a = CoefficientField(mesh, np.linspace(0.5, 2.0, 24), 0.5, 2.0)
    zero, one = np.zeros(mesh.cell_shape), np.ones(mesh.cell_shape)
    lone = RightHandSide(mesh, zero, point_masses=((0.25 * mesh.h, 0.5),))
    u = solve_1d(a, lone)[0]
    assert np.all(u.values == 0.0) and maximum_principle_check(u, lone)
    both = RightHandSide(mesh, one, point_masses=((0.25 * mesh.h, 0.5),))
    assert np.array_equal(solve_1d(a, both)[0].values,
                          solve_1d(a, RightHandSide(mesh, one))[0].values)


@st.composite
def scans(draw):
    """A family valid for its dim on a small mesh, 1-3 seeds, <= 4 pairs."""
    dim = draw(st.sampled_from((1, 2)))
    family = draw(st.sampled_from(FAMILY_TAGS if dim == 1 else FAMILY_TAGS[:2]))
    n = draw(st.integers(2, 64 if dim == 1 else 16))
    if family == "pwc-random":  # the default partition_n is 2
        n += n % 2
    seeds = draw(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3))
    return Mesh(dim, n), family, seeds, draw(st.integers(1, 4))


@settings(max_examples=30, deadline=None)
@given(scan=scans())
def test_scan_does_not_depend_on_workers(scan):
    mesh, family, seeds, n_pairs = scan
    f = RightHandSide.constant(mesh, 1.0)
    calls = itertools.count()

    def delayed(a):
        # the first solves are the slowest, so later pairs finish first
        time.sleep(max(0, 3 - next(calls)) * 1e-3)
        return solve(a, f)

    results = []
    for workers, run in ((1, lambda a: solve(a, f)), (3, delayed)):
        pairs = (pair for seed in seeds
                 for pair in coefficient_family(family, seed, mesh, n_pairs=n_pairs))
        results.append(stability_scan(pairs, run, workers=workers))
    (samples, fit), (samples_3, fit_3) = results
    # repr writes every float in its shortest exact form, nan and -0.0 too
    assert repr(samples_3) == repr(samples) and repr(fit_3) == repr(fit)
