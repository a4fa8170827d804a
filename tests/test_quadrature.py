"""Tests for the integration helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds.errors import QuadratureFailure
from riskbounds.quadrature import adaptive_simpson, golden_section_max


def test_polynomial_exact():
    value = adaptive_simpson(lambda x: x ** 2, 0.0, 1.0)
    assert math.isclose(value, 1.0 / 3.0, rel_tol=1e-12)


def test_kinked_integrand():
    # |x - 1/3| has the kink off the initial panel edges
    value = adaptive_simpson(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                             atol=1e-12, rtol=1e-11)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert math.isclose(value, exact, rel_tol=1e-9)


def test_narrow_bump_with_points_hint():
    center, width = 0.7123, 1e-4
    f = lambda x: np.exp(-0.5 * ((x - center) / width) ** 2)
    value = adaptive_simpson(f, 0.0, 1.0, points=(center,), atol=1e-14)
    assert math.isclose(value, width * math.sqrt(2 * math.pi), rel_tol=1e-8)

    # without the hint the default 16 panels still catch a 1e-4 bump,
    # so shrink drastically to show the failure mode is the budget
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(lambda x: np.abs(x - 0.1234567) ** -0.5 + 0 * x,
                         0.0, 1.0, atol=1e-15, rtol=1e-15, max_depth=4)


def _bumps(height, center, width, slope, kink):
    """Batch of integrands: row r is a Gaussian bump plus a kinked ramp."""
    def f(r, w):
        return (height[r] * np.exp(-((w - center[r]) / width[r]) ** 2)
                + slope[r] * np.abs(w - kink[r]))
    return f


_unit = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(params=st.lists(st.tuples(st.floats(-2.0, 2.0), _unit, st.floats(0.01, 1.0),
                                 st.floats(-1.0, 1.0), _unit),
                       min_size=1, max_size=40),
       atol=st.floats(-13.0, -6.0).map(lambda x: 10.0 ** x),
       rtol=st.floats(-12.0, -5.0).map(lambda x: 10.0 ** x),
       points=st.lists(st.floats(-0.5, 1.5), max_size=3))
def test_batch_rows_equal_one_row_integrals(params, atol, rtol, points):
    f = _bumps(*(np.array(column) for column in zip(*params)))
    options = dict(atol=atol, rtol=rtol, points=points)
    batch = adaptive_simpson(f, 0.0, 1.0, rows=len(params), **options)
    alone = [adaptive_simpson(lambda w, r=r: f(r, w), 0.0, 1.0, **options)
             for r in range(len(params))]
    assert batch.tolist() == alone


# each row's kinks: some inside [0, 1], some on or beyond its ends
_row_points = st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0]), max_size=3)


@settings(max_examples=40, deadline=None)
@given(params=st.lists(st.tuples(st.floats(-2.0, 2.0), _unit, st.floats(0.01, 1.0),
                                 st.floats(-1.0, 1.0), _unit, _row_points),
                       min_size=1, max_size=40),
       atol=st.floats(-13.0, -6.0).map(lambda x: 10.0 ** x),
       rtol=st.floats(-12.0, -5.0).map(lambda x: 10.0 ** x),
       kink_points=st.booleans())
def test_batch_rows_with_own_points_equal_one_row_integrals(params, atol, rtol,
                                                           kink_points):
    *columns, points = zip(*params)
    f = _bumps(*(np.array(column) for column in columns))
    if kink_points:  # split each row at its own kink, as a caller that knows it
        points = [[*row_points, kink] for row_points, kink in zip(points, columns[4])]
    options = dict(atol=atol, rtol=rtol)
    batch = adaptive_simpson(f, 0.0, 1.0, rows=len(params), points=points, **options)
    alone = [adaptive_simpson(lambda w, r=r: f(r, w), 0.0, 1.0, points=points[r],
                              **options)
             for r in range(len(params))]
    assert batch.tolist() == alone


def test_per_row_points_must_match_the_rows():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda r, w: w + 0 * r, 0.0, 1.0, rows=3,
                         points=[(0.5,), ()])


def test_one_singular_row_fails_the_batch():
    def f(r, w):
        return np.where(r == 3, np.abs(w - 0.1234567) ** -0.5, w ** 2)

    options = dict(atol=1e-12, rtol=1e-12, max_depth=8)
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(f, 0.0, 1.0, rows=5, **options)
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(lambda w: f(3, w), 0.0, 1.0, **options)
    # the other rows converge under the same budget
    square = adaptive_simpson(lambda w: w ** 2, 0.0, 1.0, **options)
    assert math.isclose(square, 1.0 / 3.0, rel_tol=1e-15)
    assert adaptive_simpson(f, 0.0, 1.0, rows=3, **options).tolist() == [square] * 3


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, 1.0, 1.0)


def test_golden_section_on_parabola():
    x, fx, evals = golden_section_max(lambda x: -(x - 0.3) ** 2 + 2.0,
                                      0.0, 1.0, tol=1e-12)
    assert abs(x - 0.3) < 1e-6
    assert math.isclose(fx, 2.0, abs_tol=1e-12)
    assert evals > 2
