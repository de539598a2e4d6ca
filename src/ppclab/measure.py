"""Level-set measure of {alpha in [a,b]: {g(alpha)} in I} for monotone convex g.

The measure is assembled per integer level M: the target interval shifted by
M is intersected with [g(a), g(b)] and pulled back through g by bisection.
All function values and comparisons are exact integers: g(a), g(b) are
numerators over one denominator and the bisection runs over one common D, so
the only error is the final bisection bracket width, which is budgeted as
tol/(levels+1) per endpoint.  The maps g and the interval [a, b] are
families.PowerMap, families.DifferenceMap and families.IntervalSpec; the
level cap is checked on a map's float lead form before any exact value.

Degrees are capped through the level count (about g(b) levels), so the exact
route is a desk-scale instrument; large-degree behavior is reached through
the residual-decay trend instead of ever-larger direct computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ppclab.families import DifferenceMap, IntervalSpec, PowerMap
from ppclab.hpreal import PrecisionOverflow, _ceil_log2_inv, check_float

_LEVEL_CAP = 10**6
_MAX_TOL = Fraction(1, 10**6)
# Finest tol: each halving adds one exact bisection step.  The linpow n1=3
# n2=12 measure on [1.5, 1.6] took 0.03 s at the default 1e-9, 0.07 s at
# 1e-30 and 1.0 s at 1e-100 (in-process, 2-CPU host, Python 3.11).  Results
# are floats of about 17 digits, so a finer tol adds nothing.
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
        check_float(self.length, "target length")  # lemma_bounds divides by it

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


def _validate_tol(tol) -> Fraction:
    tol_frac = Fraction(tol)
    if not _MIN_TOL <= tol_frac <= _MAX_TOL:
        raise ValueError("tol must lie in [1e-30, 1e-6]")
    return tol_frac


def _log_rise(g: PowerMap | DifferenceMap, interval: IntervalSpec) -> float:
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


def _checked_range(g: PowerMap | DifferenceMap,
                   interval: IntervalSpec) -> tuple[int, int, int, int, int]:
    """(ga, gb, den, m_lo, m_hi): g(a) = ga/den and g(b) = gb/den span the
    levels m_lo..m_hi, once g is increasing and their count within the cap.

    The float estimate of g(b) - g(a) rejects far-off degrees before any
    exact power; its factor-2 margin covers float rounding, and nearer the
    cap the exact level count decides.  A geomsum difference's float form
    divides by a - 1, so its a must exceed 1 as a float.
    """
    if isinstance(g, DifferenceMap) and g.family.kind == "geomsum":
        interval.float_a()
    rise = _log_rise(g, interval)
    if rise > math.log(2 * _LEVEL_CAP):
        count = ("beyond the float range" if math.isinf(rise)
                 else "about 10^%.0f" % (rise / math.log(10)))
        raise LevelCapExceeded(
            "level count %s exceeds cap %d; use the statistic route for "
            "large degrees" % (count, _LEVEL_CAP))
    xs, D0 = interval.grid(2)
    num, den = g.over(D0)
    ga, mid, gb = map(num, xs)
    if not ga < mid < gb:
        raise NonMonotone("g is not increasing across [a, b]")
    m_lo, m_hi = ga // den, -(-gb // den)
    if m_hi - m_lo > _LEVEL_CAP:
        raise LevelCapExceeded(
            "level count exceeds cap %d; use the statistic route for large "
            "degrees" % _LEVEL_CAP)
    return ga, gb, den, m_lo, m_hi


def _inverse(g: PowerMap | DifferenceMap, interval: IntervalSpec, iters: int):
    """y -> x in [a, b] with |x - g^-1(y)| <= (b - a) * 2^-(iters+1).

    Every midpoint of the bisection is X/D over one common denominator
    D = L * 2^iters (a = A/L, b = B/L), so over(D) runs once, here, and the
    steps run on integers: the bracket is [X, X + h] in units of 1/D, and
    g(X/D) = num(X)/den < y is compared exactly as y.den * num(X) < y.num * den.
    """
    (A, B), L = interval.grid(1)
    D = L << iters
    num, den = g.over(D)

    def invert(y: Fraction) -> Fraction:
        X, h = A << iters, (B - A) << iters
        y_num, y_den = y.numerator, y.denominator
        for _ in range(iters):
            h >>= 1
            if y_den * num(X + h) < y_num * den:
                X += h
        return Fraction(2 * X + h, 2 * D)
    return invert


def _iterations(interval: IntervalSpec, levels: int, tol: Fraction) -> int:
    """max(60, ceil(log2(width * (levels + 1) / tol))), exactly."""
    width = interval.b - interval.a
    return max(60, _ceil_log2_inv(tol / (width * (levels + 1))))


def level_set_measure(g: PowerMap | DifferenceMap, interval: IntervalSpec,
                      target: CircleInterval, tol) -> MeasureResult:
    """Lebesgue measure of {alpha: fractional part of g(alpha) in target}."""
    tol_frac = _validate_tol(tol)
    ga, gb, den, m_lo, m_hi = _checked_range(g, interval)
    invert = _inverse(g, interval, _iterations(interval, m_hi - m_lo, tol_frac))
    intervals: list[PreimageInterval] = []
    total = Fraction(0)
    for M in range(m_lo, m_hi + 1):
        for c, d in target.pieces():
            # the band against [g(a), g(b)] = [ga, gb]/den, cross-multiplied
            ylo, yhi = M + c, M + d
            lo, hi = ylo.numerator * den, yhi.numerator * den
            if lo > gb * ylo.denominator or hi < ga * yhi.denominator:
                continue
            x_lo = interval.a if lo <= ga * ylo.denominator else invert(ylo)
            x_hi = interval.b if hi >= gb * yhi.denominator else invert(yhi)
            x_hi = max(x_hi, x_lo)  # bisection jitter on a near-degenerate band
            total += x_hi - x_lo
            intervals.append(PreimageInterval(M, float(x_lo), float(x_hi)))
    width = interval.b - interval.a
    if total > width:
        total = width
    main_term = float(target.length * width)
    measure = float(total)
    try:
        derivative_at_a = g.derivative(float(interval.a))
    except OverflowError:  # a power of a past the float range
        raise PrecisionOverflow(
            "g'(a) at a = %r leaves the float range" % float(interval.a)
        ) from None
    return MeasureResult(
        measure=measure,
        intervals=tuple(intervals),
        main_term=main_term,
        residual=measure - main_term,
        derivative_at_a=derivative_at_a,
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
