"""Tests for adaptive Simpson integration and the oracles' Brent maximizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds.errors import QuadratureFailure
from riskbounds.quadrature import adaptive_simpson

from quadrature_oracle import brent_max


def test_polynomial_exact():
    value = adaptive_simpson(lambda x: x ** 2, 0.0, 1.0)
    assert math.isclose(value, 1.0 / 3.0, rel_tol=1e-12)


def test_kinked_integrand():
    # |x - 1/3| has the kink off the initial panel edges
    value = adaptive_simpson(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0,
                             atol=1e-12, rtol=1e-11)
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert math.isclose(value, exact, rel_tol=1e-9)


def _bumps(height, center, width, slope, kink):
    """Batch of integrands: row r is a Gaussian bump plus a kinked ramp."""
    def f(r, w):
        return (height[r] * np.exp(-((w - center[r]) / width[r]) ** 2)
                + slope[r] * np.abs(w - kink[r]))
    return f


def _integral_or_failure(f, **options):
    """The integral of f on [0, 1], or the QuadratureFailure class."""
    try:
        return adaptive_simpson(f, 0.0, 1.0, **options)
    except QuadratureFailure:
        return QuadratureFailure


def _assert_batch_equals_rows(f, rows, **options):
    """The batch fails exactly when some row fails alone; otherwise each
    row of the batch is == to that row integrated alone."""
    batch = _integral_or_failure(f, rows=rows, **options)
    alone = [_integral_or_failure(lambda w, r=r: f(r, w), **options) for r in range(rows)]
    assert (batch is QuadratureFailure) == (QuadratureFailure in alone)
    if batch is not QuadratureFailure:
        assert batch.tolist() == alone


_unit = st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(params=st.lists(st.tuples(st.floats(-2.0, 2.0), _unit, st.floats(0.01, 1.0),
                                 st.floats(-1.0, 1.0), _unit),
                       min_size=1, max_size=40),
       atol=st.floats(-13.0, -6.0).map(lambda x: 10.0 ** x),
       rtol=st.floats(-12.0, -5.0).map(lambda x: 10.0 ** x))
def test_batch_rows_equal_one_row_integrals(params, atol, rtol):
    f = _bumps(*(np.array(column) for column in zip(*params)))
    _assert_batch_equals_rows(f, len(params), atol=atol, rtol=rtol)


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
    # rows=None is a batch of one that returns a float: == to the element
    # of rows=1, and its failure names row 0
    assert type(square) is float
    assert adaptive_simpson(lambda r, w: w ** 2, 0.0, 1.0, rows=1,
                            **options).tolist() == [square]
    with pytest.raises(QuadratureFailure, match="exhausted .* of row 0$"):
        adaptive_simpson(lambda w: f(3, w), 0.0, 1.0, **options)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                  (0.0, math.nan)])
def test_non_finite_interval_rejected(a, b):
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, a, b)


def _counting(f):
    """``f`` and the list of the abscissae of each of its calls."""
    calls = []

    def counted(*args):
        calls.append(np.array(args[-1]))
        return f(*args)
    return counted, calls


def test_one_integrand_call_to_start_and_one_per_level():
    # Simpson is exact on a quadratic, so every panel converges at level 0
    f, calls = _counting(lambda x: x ** 2)
    adaptive_simpson(f, 0.0, 1.0)
    assert [w.size for w in calls] == [3 * 16, 2 * 16]

    # the 16 panels of every row go into the same calls
    f, calls = _counting(lambda r, w: (r + 1.0) * w ** 2)
    adaptive_simpson(f, 0.0, 1.0, rows=3)
    assert [w.size for w in calls] == [3 * 48, 2 * 48]

    # a singular integrand never converges: it runs levels 0..max_depth
    for max_depth in (0, 3, 6):
        f, calls = _counting(lambda x: np.abs(x - 0.1234567) ** -0.5)
        with pytest.raises(QuadratureFailure, match="exhausted"):
            adaptive_simpson(f, 0.0, 1.0, atol=1e-15, rtol=1e-15, max_depth=max_depth)
        assert len(calls) == max_depth + 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_fails_at_the_first_call(bad):
    f, calls = _counting(lambda x: np.where(x > 0.5, bad, x))
    with pytest.raises(QuadratureFailure, match=rf"is {bad!r} at 0\.5625 of row 0"):
        adaptive_simpson(f, 0.0, 1.0, max_depth=10)
    assert len(calls) == 1

    f, calls = _counting(lambda r, w: np.where((r == 2) & (w > 0.25), bad, w))
    with pytest.raises(QuadratureFailure, match=r"at 0\.3125 of row 2"):
        adaptive_simpson(f, 0.0, 1.0, rows=4, max_depth=10)
    assert len(calls) == 1


def test_non_finite_value_fails_at_the_level_that_meets_it():
    # no starting abscissa falls in the NaN window; the panel with the
    # kink at 0.3 is refined until one does, long before the depth budget
    # runs out
    f, calls = _counting(lambda x: np.where(np.abs(x - 0.3) < 1e-3, math.nan,
                                            np.abs(x - 0.3)))
    with pytest.raises(QuadratureFailure, match=r"is nan at 0\.30078125 of row 0"):
        adaptive_simpson(f, 0.0, 1.0, atol=1e-12, rtol=1e-12, max_depth=10)
    assert len(calls) == 4
    assert np.isfinite(f(np.concatenate(calls[:-1]))).all()


def _pinned_rows(r, w):
    """Row r: a narrow bump plus a kinked ramp."""
    height = np.array([1.0, -0.5, 2.0])
    center = np.array([0.3, 0.71, 0.5])
    kink = np.array([0.2, 0.45, 0.8])
    return height[r] * np.exp(-((w - center[r]) / 0.05) ** 2) + np.abs(w - kink[r])


# integrals captured once each level's converged panels were summed by one
# np.bincount, left to right ("kinks" kept its earlier bits); the current
# code must reproduce them bit for bit
_PINNED = [
    (lambda x: np.exp(-x) * np.sin(3.0 * x), 2.0, {}, 0.26479800224918304),
    (lambda x: np.abs(x - 0.3) ** 1.5 + np.abs(x - 0.77), 1.0, {}, 0.5066033772708659),
    (_pinned_rows, 1.0, dict(rows=3),
     [0.42862269254542695, 0.20818865372700604, 0.517245385090587]),
]


@pytest.mark.parametrize("f, b, options, expected", _PINNED,
                         ids=["smooth", "kinks", "rows"])
def test_keeps_its_pinned_values(f, b, options, expected):
    value = adaptive_simpson(f, 0.0, b, atol=1e-12, rtol=1e-11, **options)
    assert (value if isinstance(value, float) else value.tolist()) == expected


def test_brent_max_on_parabola():
    f = lambda x: -(x - 0.3) ** 2 + 2.0
    x, fx, evals = brent_max(f, 0.0, 1.0, tol=1e-12)
    assert abs(x - 0.3) < 1e-6
    assert math.isclose(fx, 2.0, abs_tol=1e-12)
    # golden section needs 59 evaluations for this bracket and tolerance;
    # a parabolic step lands on the vertex, and the rest is spent where f
    # is flat to rounding
    assert evals < 59
    assert brent_max(f, 0.0, 1.0, tol=1e-6)[2] < 10


@settings(max_examples=200, deadline=None)
@given(peak=st.floats(-0.5, 1.5), left=st.floats(0.1, 5.0), right=st.floats(0.1, 5.0),
       kinked=st.booleans(), tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_brent_max_against_a_dense_scan(peak, left, right, kinked, tol):
    # unimodal on [0, 1], smooth or with a kink at the peak; a peak
    # outside [0, 1] puts the maximum at an end of the bracket
    if kinked:
        def f(x):
            return -left * np.maximum(peak - x, 0.0) - right * np.maximum(x - peak, 0.0)
    else:
        def f(x):
            return -np.exp(right * (x - peak)) - np.exp(left * (peak - x))
    x, fx, evals = brent_max(lambda x: float(f(x)), 0.0, 1.0, tol=tol)
    assert 0.0 < x < 1.0 and fx == float(f(x))
    grid = np.linspace(0.0, 1.0, 100001)
    best = grid[int(np.argmax(f(grid)))]
    # the true argmax is within a scan step of the scan's, and Brent's
    # within tol of the true one; f is unimodal, so fx is at least its
    # value at both ends of that window
    lo = max(0.0, best - tol - 1e-5)
    hi = min(1.0, best + tol + 1e-5)
    assert lo <= x <= hi
    assert fx >= min(f(lo), f(hi))
    assert evals < 60
