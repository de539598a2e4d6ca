"""Level-set measure of {alpha in [a,b]: {g(alpha)} in I} for monotone convex g.

The measure is assembled per integer level M: the target interval shifted by
M is intersected with [g(a), g(b)] and pulled back through g by bisection.
All function values and comparisons are exact: the bisection runs on integers
over one common denominator, and g(a), g(b) are Fractions, so the only error
is the final bisection bracket width, which is budgeted as tol/(levels+1) per
endpoint.  A map g gives form(X, D), the integers (num, den) with
g(X/D) = num/den, value(x) (the exact Fraction built from form),
derivative(x) (float) and lead(x), the pair (d, g(x)/x^d) from which the
level cap is checked in floats before any exact value.

Degrees are capped through the level count (about g(b) levels), so the exact
route is a desk-scale instrument; large-degree behavior is reached through
the residual-decay trend instead of ever-larger direct computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ppclab.families import (
    SequenceFamily,
    _check_pair,
    degree,
    diff_derivative,
    diff_form,
    diff_over_lead,
)
from ppclab.hypothesis import IntervalSpec

_LEVEL_CAP = 10**6
_MAX_TOL = Fraction(1, 10**6)
# Finest tol: each halving adds one exact bisection step.  The linpow n1=3
# n2=12 measure on [1.5, 1.6] took 0.055 s at the default 1e-9, 0.14 s at
# 1e-30 and 2.0 s at 1e-100 (2-CPU host, Python 3.11).  Results are
# floats of about 17 digits, so a finer tol adds nothing; below about 1e-308
# the iteration count's float log2 would overflow.
_MIN_TOL = Fraction(1, 10**30)


class LevelCapExceeded(ValueError):
    """The level count exceeds the exact-measure budget."""


class NonMonotone(ValueError):
    """g failed an increasing-values bracket check on [a, b]."""


@dataclass(frozen=True)
class CircleInterval:
    """arc [c,d] in [0,1], or wrap [c,1) u [0,d] when crossing zero."""

    c: Fraction
    d: Fraction
    wraps: bool

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "d", Fraction(self.d))
        if self.wraps:
            if not 0 <= self.d < self.c < 1:
                raise ValueError("wrap needs 0 <= d < c < 1")
        else:
            if not 0 <= self.c < self.d <= 1:
                raise ValueError("arc needs 0 <= c < d <= 1")

    @classmethod
    def arc(cls, c, d) -> "CircleInterval":
        return cls(Fraction(c), Fraction(d), False)

    @classmethod
    def wrap(cls, c, d) -> "CircleInterval":
        return cls(Fraction(c), Fraction(d), True)

    @property
    def length(self) -> Fraction:
        if self.wraps:
            return 1 - self.c + self.d
        return self.d - self.c

    def pieces(self) -> list[tuple[Fraction, Fraction]]:
        """Plain subintervals of [0,1] covering the set."""
        if self.wraps:
            return [(self.c, Fraction(1)), (Fraction(0), self.d)]
        return [(self.c, self.d)]


@dataclass(frozen=True)
class PreimageInterval:
    M: int
    left: float
    right: float


@dataclass(frozen=True)
class MeasureResult:
    measure: float
    intervals: tuple[PreimageInterval, ...]
    main_term: float
    residual: float
    derivative_at_a: float
    tolerance: float


@dataclass(frozen=True)
class LemmaBounds:
    lower_main: float
    upper_main: float
    residual_scaled: float


@dataclass(frozen=True)
class PowerMap:
    """g(alpha) = alpha^d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("exponent must be >= 1")

    def form(self, X: int, D: int) -> tuple[int, int]:
        """g(X/D) as integers (num, den), den > 0 and not reduced."""
        return X**self.d, D**self.d

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return Fraction(*self.form(x.numerator, x.denominator))

    def derivative(self, x: float) -> float:
        return self.d * x ** (self.d - 1)

    def lead(self, x: float) -> tuple[int, float]:
        """(d, g(x)/x^d), the log form used before any exact power."""
        return self.d, 1.0


@dataclass(frozen=True)
class DifferenceMap:
    """g = f_{n2} - f_{n1} for a sequence family."""

    family: SequenceFamily
    n1: int
    n2: int

    def __post_init__(self):
        _check_pair(self.family, self.n1, self.n2)

    def form(self, X: int, D: int) -> tuple[int, int]:
        """g(X/D) as integers (num, den), den > 0 and not reduced."""
        return diff_form(self.family, X, D, self.n1, self.n2)

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return Fraction(*self.form(x.numerator, x.denominator))

    def derivative(self, x: float) -> float:
        return diff_derivative(self.family, x, self.n1, self.n2)

    def lead(self, x: float) -> tuple[int, float]:
        """(d, g(x)/x^d) with d = d_{n2}, the log form used before any exact
        power."""
        return (degree(self.family, self.n2),
                diff_over_lead(self.family, x, self.n1, self.n2))


def _validate_tol(tol) -> Fraction:
    tol_frac = Fraction(tol)
    if not _MIN_TOL <= tol_frac <= _MAX_TOL:
        raise ValueError("tol must lie in [1e-30, 1e-6]")
    return tol_frac


def _log_rise(g, interval: IntervalSpec) -> float:
    """ln(g(b) - g(a)) in floats, from g(x) = x^d * lead(x) with lead > 0.

    ln(g(b) - g(a)) = d*ln(b) + ln(lead(b)) + ln(1 - g(a)/g(b)), where
    ln(g(a)/g(b)) = -d*ln(b/a) + ln(lead(a)/lead(b)).  inf when d*ln(b)
    leaves the float range; -inf when the form shows no rise, which leaves
    the decision to the exact values.
    """
    a, b = interval.a, interval.b
    try:
        d, lead_a = g.lead(float(a))
        _, lead_b = g.lead(float(b))
        if not (lead_a > 0 and lead_b > 0):
            return -math.inf
        log_ratio = (-d * math.log1p(float((b - a) / a))
                     + math.log(lead_a / lead_b))
        if log_ratio >= 0:
            return -math.inf
        return (d * math.log(float(b)) + math.log(lead_b)
                + math.log(-math.expm1(log_ratio)))
    except OverflowError:  # a degree beyond the float range
        return math.inf


def _checked_range(g, interval: IntervalSpec) -> tuple[Fraction, Fraction]:
    """(g(a), g(b)) once g is increasing and the level count within the cap.

    The float estimate of g(b) - g(a) rejects far-off degrees before any
    exact power; its factor-2 margin covers float rounding, and nearer the
    cap the exact level count decides.
    """
    rise = _log_rise(g, interval)
    if rise > math.log(2 * _LEVEL_CAP):
        count = ("beyond the float range" if math.isinf(rise)
                 else "about 10^%.0f" % (rise / math.log(10)))
        raise LevelCapExceeded(
            "level count %s exceeds cap %d; use the statistic route for "
            "large degrees" % (count, _LEVEL_CAP))
    ga = g.value(interval.a)
    gb = g.value(interval.b)
    mid = g.value((interval.a + interval.b) / 2)
    if not ga < mid < gb:
        raise NonMonotone("g is not increasing across [a, b]")
    if math.ceil(gb) - math.floor(ga) > _LEVEL_CAP:
        raise LevelCapExceeded(
            "level count exceeds cap %d; use the statistic route for large "
            "degrees" % _LEVEL_CAP)
    return ga, gb


def _invert(g, lo: Fraction, hi: Fraction, y: Fraction, iters: int) -> Fraction:
    """Point x in [lo, hi] with |x - g^/-1(y)| <= (hi-lo) * 2^-(iters+1).

    Every midpoint of the bisection is X/D over one common denominator
    D = lcm(den lo, den hi) * 2^iters, so the steps run on integers: the
    bracket is [X, X + h] in units of 1/D, and g(X/D) = num/den < y is
    compared exactly as y.den * num < y.num * den.
    """
    D = math.lcm(lo.denominator, hi.denominator)
    X = (lo.numerator * (D // lo.denominator)) << iters
    h = ((hi.numerator * (D // hi.denominator)) << iters) - X
    D <<= iters
    y_num, y_den = y.numerator, y.denominator
    for _ in range(iters):
        h >>= 1
        num, den = g.form(X + h, D)
        if y_den * num < y_num * den:
            X += h
    return Fraction(2 * X + h, 2 * D)


def _iterations(interval: IntervalSpec, levels: int, tol: Fraction) -> int:
    width = interval.b - interval.a
    need = width * (levels + 1) / tol
    return max(60, math.ceil(math.log2(need)))


def _band_preimage(g, interval: IntervalSpec, ga: Fraction, gb: Fraction,
                   ylo: Fraction, yhi: Fraction,
                   iters: int) -> tuple[Fraction, Fraction] | None:
    lo = max(ylo, ga)
    hi = min(yhi, gb)
    if lo > hi:
        return None
    x_lo = interval.a if lo <= ga else _invert(g, interval.a, interval.b, lo, iters)
    x_hi = interval.b if hi >= gb else _invert(g, interval.a, interval.b, hi, iters)
    if x_hi < x_lo:
        # bisection jitter on a near-degenerate band
        x_hi = x_lo
    return x_lo, x_hi


def level_set_measure(g, interval: IntervalSpec, target: CircleInterval,
                      tol) -> MeasureResult:
    """Lebesgue measure of {alpha: fractional part of g(alpha) in target}."""
    tol_frac = _validate_tol(tol)
    ga, gb = _checked_range(g, interval)
    m_lo = math.floor(ga)
    m_hi = math.ceil(gb)
    levels = m_hi - m_lo
    iters = _iterations(interval, levels, tol_frac)
    intervals: list[PreimageInterval] = []
    total = Fraction(0)
    for M in range(m_lo, m_hi + 1):
        for c, d in target.pieces():
            got = _band_preimage(g, interval, ga, gb, M + c, M + d, iters)
            if got is None:
                continue
            x_lo, x_hi = got
            total += x_hi - x_lo
            intervals.append(PreimageInterval(M, float(x_lo), float(x_hi)))
    width = interval.b - interval.a
    if total > width:
        total = width
    main_term = float(target.length * width)
    measure = float(total)
    return MeasureResult(
        measure=measure,
        intervals=tuple(intervals),
        main_term=main_term,
        residual=measure - main_term,
        derivative_at_a=g.derivative(float(interval.a)),
        tolerance=float(tol_frac),
    )


def lemma_bounds_check(result: MeasureResult, target: CircleInterval) -> LemmaBounds:
    """Two-sided main-term bounds and the scaled residual they control."""
    L = float(target.length)
    width = result.main_term / L
    lower = L * width / (1.0 + L)
    upper = math.inf if L >= 1 else L * width / (1.0 - L)
    scaled = abs(result.residual) * result.derivative_at_a / L
    return LemmaBounds(lower, upper, scaled)


def measure_to_json(result: MeasureResult, target: CircleInterval) -> dict:
    """JSON form of a MeasureResult and its lemma bounds for `target`,
    schema `measure-result v1`."""
    bounds = lemma_bounds_check(result, target)
    return {
        "schema": "measure-result v1",
        "measure": result.measure,
        "main_term": result.main_term,
        "residual": result.residual,
        "derivative_at_a": result.derivative_at_a,
        "intervals": [
            {"M": iv.M, "left": iv.left, "right": iv.right}
            for iv in result.intervals
        ],
        "tol": result.tolerance,
        "lemma_bounds": {
            "lower_main": bounds.lower_main,
            "upper_main": (None if math.isinf(bounds.upper_main)
                           else bounds.upper_main),
            "residual_scaled": bounds.residual_scaled,
        },
    }
