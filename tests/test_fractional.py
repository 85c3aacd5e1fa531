"""Fractional time calculus: product-integration path, Fourier path,
inversion, semigroup and causality structure.

Tolerances are set a factor of a few above errors measured on the pinned
grids, so regressions in either computational path show up as failures
rather than silent drift.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_nls import (
    EndpointWarning,
    TimeGrid,
    TimeSignal,
    frac_derivative,
    frac_fourier_path,
    frac_integral,
)


def _grid(m=512, T=1.0):
    return TimeGrid(T, m)


def _bump(tg):
    t = tg.nodes
    return TimeSignal(tg, 16.0 * t**2 * (1.0 - t) ** 2 + 0j)


def test_first_integral_of_one_is_t():
    tg = _grid()
    f = TimeSignal(tg, np.ones(tg.m + 1, dtype=complex))
    out = frac_integral(f, 1.0)
    # the rule is exact for piecewise-linear data, so only rounding remains
    assert np.max(np.abs(out.values - tg.nodes)) < 1e-13


def test_half_integral_of_one_closed_form():
    tg = _grid()
    f = TimeSignal(tg, np.ones(tg.m + 1, dtype=complex))
    out = frac_integral(f, 0.5)
    exact = 2.0 * np.sqrt(tg.nodes / np.pi)
    assert np.max(np.abs(out.values - exact)) < 1e-12


def test_half_integral_semigroup_on_t():
    tg = _grid(m=1024)
    t = tg.nodes
    f = TimeSignal(tg, t + 0j)
    twice = frac_integral(frac_integral(f, 0.5), 0.5)
    err = np.max(np.abs(twice.values - 0.5 * t**2)) / 0.5
    assert err < 1e-6  # measured 1.6e-7


def test_first_derivative_of_t_squared():
    tg = _grid()
    t = tg.nodes
    f = TimeSignal(tg, t**2 + 0j)
    out = frac_derivative(f, 1.0)
    # second-order differencing is exact on quadratics, edges included
    assert np.max(np.abs(out.values - 2.0 * t)) < 1e-12


def test_derivative_inverts_integral():
    tg = _grid()
    b = _bump(tg)
    trim = tg.m // 8
    scale = np.max(np.abs(b.values))
    for alpha, measured in ((0.5, 2.1e-5), (1.0, 1.6e-5)):
        back = frac_derivative(frac_integral(b, alpha), alpha)
        err = np.max(np.abs(back.values[trim:-trim] - b.values[trim:-trim])) / scale
        assert err < 1e-4, (alpha, err, measured)


def test_roundtrip_on_decaying_profile():
    tg = _grid()
    t = tg.nodes
    g = TimeSignal(tg, t**2 * np.exp(-t) + 0j)
    back = frac_derivative(frac_integral(g, 0.5), 0.5)
    trim = tg.m // 8
    err = np.max(np.abs(back.values[trim:-trim] - g.values[trim:-trim]))
    assert err / np.max(np.abs(g.values)) < 1e-4  # measured 4.6e-6


def test_zero_in_zero_out():
    tg = _grid(m=64)
    z = TimeSignal(tg, np.zeros(65, dtype=complex))
    for alpha in (0.3, 0.5, 1.0, 2.5):
        assert np.all(frac_integral(z, alpha).values == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(frac_derivative(z, 0.5).values == 0.0)


def test_fourier_path_matches_time_domain():
    tg = _grid()
    b = _bump(tg)
    cases = [
        (1.0, frac_integral(b, 1.0), 1e-4),  # measured 1.8e-6
        (0.5, frac_integral(b, 0.5), 1e-4),  # measured 3.3e-6
        (-0.5, frac_derivative(b, 0.5), 1e-3),  # measured 3.2e-4
    ]
    for alpha, ref, tol in cases:
        four = frac_fourier_path(b, alpha)
        scale = np.max(np.abs(ref.values))
        err = np.max(np.abs(four.values - ref.values)) / scale
        assert err < tol, (alpha, err)


def test_fourier_path_zero_order_is_copy():
    tg = _grid(m=64)
    b = _bump(tg)
    out = frac_fourier_path(b, 0.0)
    assert np.array_equal(out.values, b.values)


def test_integral_semigroup_split_orders():
    tg = _grid()
    b = _bump(tg)
    one = frac_integral(b, 1.0)
    scale = np.max(np.abs(one.values))
    for a1, a2 in ((0.5, 0.5), (0.3, 0.7)):
        two = frac_integral(frac_integral(b, a1), a2)
        err = np.max(np.abs(two.values - one.values)) / scale
        assert err < 1e-5  # measured 1.8e-6


def test_causality():
    # data supported in t >= 1/2 produces exact zeros before the support
    tg = _grid()
    t = tg.nodes
    v = np.where(t >= 0.5, (t - 0.5) ** 2, 0.0) + 0j
    out = frac_integral(TimeSignal(tg, v), 0.7)
    assert np.all(out.values[t < 0.5] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.2, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_causality_property(alpha, seed):
    tg = _grid(m=128)
    rng = np.random.default_rng(seed)
    v = np.zeros(129, dtype=complex)
    v[64:] = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    out = frac_integral(TimeSignal(tg, v), alpha)
    assert np.all(out.values[:64] == 0.0)


def test_linearity_is_exact():
    tg = _grid(m=128)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(129) + 1j * rng.standard_normal(129)
    v = rng.standard_normal(129) + 1j * rng.standard_normal(129)
    a, b = 2.0 - 1j, 0.5 + 3j
    lhs = frac_integral(TimeSignal(tg, a * u + b * v), 0.6).values
    rhs = a * frac_integral(TimeSignal(tg, u), 0.6).values + b * frac_integral(
        TimeSignal(tg, v), 0.6
    ).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_endpoint_warning_on_nonvanishing_data():
    tg = _grid(m=64)
    f = TimeSignal(tg, np.ones(65, dtype=complex))
    with pytest.warns(EndpointWarning):
        frac_derivative(f, 0.5)

    # vanishing data stays silent
    b = _bump(tg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frac_derivative(b, 0.5)


def test_order_validation():
    tg = _grid(m=64)
    b = _bump(tg)
    with pytest.raises(ValueError):
        frac_integral(b, 0.0)
    with pytest.raises(ValueError):
        frac_integral(b, -0.5)
    with pytest.raises(ValueError):
        frac_derivative(b, 0.0)
    with pytest.raises(ValueError):
        frac_derivative(b, -1.0)
    for fn in (frac_integral, frac_derivative):
        with pytest.raises(ValueError):
            fn(b, 4.5)
    with pytest.raises(ValueError):
        frac_fourier_path(b, 17.0)
