"""Certified arithmetic for fractional parts of large powers.

The central problem: given a dyadic rational alpha > 1 and a degree d that may
reach 10^6, produce frac(alpha^d) with a proven absolute error bound.  The
integer part of alpha^d carries ~ d*log2(alpha) bits, so any route to the
fractional part must work at that precision.  Everything here is built on
exact integer mantissas (Python ints) with outward-rounded error radii, so
results are certified and bit-reproducible: no floating-point state, no
rounding modes, no library-version drift.

Layers:

  _mul           -- the one exact multiply of mantissas (MUL_BACKEND names it)
  int_pow        -- x^d of an int, by square-and-multiply over _mul, within
                    PREC_BUDGET_BITS
  ExactReal      -- canonical dyadic rational (odd mantissa * 2^exp)
  round_alpha    -- an exact rational to alpha on the 2^-ALPHA_BITS grid
  Ball           -- midpoint/radius enclosure at a given working precision
  UnitPoint      -- a point of [0,1) with a certified circle-metric error
  LatticePoints  -- points of [0,1) as integer numerators over one
                    denominator, with their errors; UnitPoints on access
  WalkPlan       -- every constant of one walk, derived once by _plan
  frac_point     -- frac of a ball as a numerator over 2^keep and its error
  frac_walk      -- frac(alpha^e) along increasing exponents, one ball walk,
                    born on the lattice 2^-keep
  pow_frac       -- frac(alpha^d), the one-exponent walk

Precision policy: _plan is the one planner.  It derives every constant of a
walk once, into one frozen WalkPlan that the walk and each point read, from
one upper bound of log2(alpha) (ExactReal.log2_upper, finite at any size)
and one ceil(log2(1/delta)).  It splits the exponents into segments whose
integer parts grow by at most SEGMENT_GROWTH once past SEGMENT_FLOOR_BITS
bits; every segment restarts from 1, so its first point is a binary
exponentiation.  For each segment it counts the roundings of its walk and
calls required_precision() once, which sizes the working mantissa and
rejects plans above PREC_BUDGET_BITS; every segment is planned before any
multiplication.  If an enclosure is still wider than the tolerance, that
segment is retried exactly once at doubled precision, and then
IndeterminateFrac is raised with the point's orbit index.  Segments share
nothing but the plan, so with threads > 1 the calling thread and a few
helper threads walk them side by side, last segment first, and their points
are joined in orbit order: the plan, the layout and every point are those
of the serial walk.

Multiply backend, chosen once at import: where the system's libgmp.so.10
loads through ctypes, products of large operands run GMP's mpn_mul/mpn_sqr
and small ones stay on CPython's int; otherwise every product is CPython's
int multiply.  Mantissas are ints on both, and both return the exact
product, so the bits of every result are the same; only the time differs.
A ctypes call releases the GIL, so threads walk segments in parallel on the
libgmp backend only; on CPython's int multiply a walk stays serial.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

# Largest working precision a plan may ask for, and largest exact power
# int_pow may take: 2^30 bits, 128 MiB per operand.  The largest plan any
# test or workload uses is ~3.6 Mbit, and the largest exact power ~1.7 Mbit.
PREC_BUDGET_BITS = 1 << 30

# Fractional bits of the grid that every alpha is rounded to (round_alpha).
ALPHA_BITS = 128

# Largest |decimal exponent| of a number literal, as Decimal(text).adjusted()
# counts it: Fraction(text) expands 10^exponent in full, so 1e999999999 would
# take minutes and gigabytes.  The class of CPython's 4300-digit int/str limit
# (CVE-2020-10735), which already bounds the digits themselves.
LITERAL_EXP_CAP = 4300

# Segmentation of frac_walk (see _plan): a walk whose integer parts stay
# within SEGMENT_FLOOR_BITS bits is one segment; past it, a segment spans a
# growth of at most SEGMENT_GROWTH in integer-part bits.  Chosen by a sweep of
# floors 2^12..2^16 and growths 1.25..2 on monomial:k=2 and factorial orbits
# (CHANGES.md).
SEGMENT_FLOOR_BITS = 1 << 14
SEGMENT_GROWTH = 1.5


class PrecisionOverflow(Exception):
    """A plan's precision budget, a degree cap or the float range is passed."""


class IndeterminateFrac(Exception):
    """A fractional part could not be certified to the requested tolerance.

    Raised after the single automatic precision doubling has been spent.
    `index` identifies the orbit position when raised from an orbit walk.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# radius arithmetic: tiny outward-rounded dyadics (man * 2^exp, man < 2^32)
# ---------------------------------------------------------------------------

_RAD_BITS = 32
_R_ZERO = (0, 0)


def _r_norm(man: int, exp: int) -> tuple[int, int]:
    # round up to at most _RAD_BITS mantissa bits; stays an upper bound
    if man == 0:
        return _R_ZERO
    extra = man.bit_length() - _RAD_BITS
    if extra > 0:
        man = (man + (1 << extra) - 1) >> extra
        exp += extra
        if man.bit_length() > _RAD_BITS:
            man >>= 1
            exp += 1
    return (man, exp)


def _r_add(r1: tuple[int, int], r2: tuple[int, int]) -> tuple[int, int]:
    m1, e1 = r1
    m2, e2 = r2
    if m1 == 0:
        return r2
    if m2 == 0:
        return r1
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    gap = e1 - e2
    if gap > 64:
        # addend is below one ulp of the larger term; absorb it outward
        return _r_norm(m1 + 1, e1)
    return _r_norm((m1 << gap) + m2, e2)


def _r_add_pow2(r: tuple[int, int], e: int) -> tuple[int, int]:
    # _r_add(r, (1, e)) without building the tuple, branch for branch: the
    # gap > 64 absorption keeps its exponent-dependent result
    m1, e1 = r
    if m1 == 0:
        return (1, e)
    if e1 < e:
        if e - e1 > 64:
            return (2, e)
        return _r_norm((1 << (e - e1)) + m1, e1)
    if e1 - e > 64:
        return _r_norm(m1 + 1, e1)
    return _r_norm((m1 << (e1 - e)) + 1, e)


def _r_mul(r1: tuple[int, int], r2: tuple[int, int]) -> tuple[int, int]:
    m1, e1 = r1
    m2, e2 = r2
    if m1 == 0 or m2 == 0:
        return _R_ZERO
    return _r_norm(m1 * m2, e1 + e2)


def _r_leq(r: tuple[int, int], bound: Fraction) -> bool:
    # exact comparison man*2^exp <= bound, bound a positive rational < 1
    man, exp = r
    if man == 0:
        return True
    if exp >= 0:
        return False  # radius >= 1 > bound
    return man * bound.denominator <= bound.numerator << (-exp)


def _r_float(r: tuple[int, int]) -> float:
    # float upper bound of the radius
    man, exp = r
    if man == 0:
        return 0.0
    try:
        f = math.ldexp(man, exp)
    except OverflowError:
        return math.inf
    if f == 0.0:
        return 5e-324
    return math.nextafter(f, math.inf)


def _ceil_log2_inv(x: Fraction) -> int:
    """Smallest k >= 0 with 2^-k <= x, i.e. ceil(log2(1/x)) for 0 < x <= 1:
    2^k >= 1/x holds exactly when 2^k >= ceil(1/x), so k is the bit length
    of ceil(1/x) - 1."""
    return (-(-x.denominator // x.numerator) - 1).bit_length()


# ---------------------------------------------------------------------------
# exact dyadic rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactReal:
    """Canonical dyadic rational num * 2^exp with num odd (or zero)."""

    num: int
    exp: int

    def __post_init__(self):
        if self.num == 0:
            if self.exp != 0:
                raise ValueError("zero must be canonical (exp == 0)")
        elif not self.num % 2:
            raise ValueError("mantissa must be odd in canonical form")

    @classmethod
    def from_fraction(cls, value: Fraction) -> "ExactReal":
        num, den = value.numerator, value.denominator
        if den & (den - 1):
            raise ValueError("not a dyadic rational: denominator %d" % den)
        exp = -(den.bit_length() - 1)
        return cls._canon(num, exp)

    @classmethod
    def _canon(cls, num: int, exp: int) -> "ExactReal":
        if num == 0:
            return cls(0, 0)
        tz = (num & -num).bit_length() - 1
        return cls(num >> tz, exp + tz)

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.num << self.exp)
        return Fraction(self.num, 1 << -self.exp)

    def __float__(self) -> float:
        """The correctly rounded float of the value; +-inf past the range."""
        try:
            return float(self.as_fraction())
        except OverflowError:
            return math.inf if self.num > 0 else -math.inf

    def log2_upper(self) -> float:
        """An upper bound of log2 of the value > 0, at any size: log2 of the
        float just above value/2^k, plus k, with k > 0 only past 2^1000 (up
        to the rounding of a float log2, which required_precision's guard
        bits absorb)."""
        k = max(0, self.num.bit_length() + self.exp - 1000)
        scaled = float(ExactReal(self.num, self.exp - k))
        return math.log2(math.nextafter(scaled, math.inf)) + k


def parse_alpha(text: str, bits: int) -> ExactReal:
    """Parse a decimal or p/q literal (check_literal) to its round_alpha.

    The parsed value is the object of study from then on: every downstream
    quantity is exact or certified relative to it.  Rejects values <= 1.
    """
    x = check_literal(text)
    if x <= 1:
        raise ValueError("alpha must exceed 1, got %s" % text)
    return round_alpha(x, bits)


def round_alpha(x: Fraction, bits: int) -> ExactReal:
    """The point of the 2^-bits grid nearest to an exact x > 1, ties to even:
    the one step from an exact rational, --alpha text or a second-moment
    node, to the walk's alpha.  Rejects a result <= 1 and bits < 8."""
    if bits < 8:
        raise ValueError("bits must be >= 8, got %d" % bits)
    scaled = round(x * (1 << bits))
    if scaled <= 1 << bits:
        raise ValueError("alpha rounds to a value <= 1 at %d bits" % bits)
    return ExactReal._canon(scaled, -bits)


def check_literal(text: str) -> Fraction:
    """The exact value of decimal or p/q text ('1.5', '2e-9', '3/2').

    A decimal exponent beyond LITERAL_EXP_CAP is rejected before Fraction(text)
    runs; p/q text carries no exponent.
    """
    try:
        exponent = Decimal(text).adjusted()
    except InvalidOperation:
        # other text Decimal refuses, Fraction refuses too, unless its
        # exponent is beyond Decimal's own range
        if "/" not in text:
            raise ValueError("not a number: %r" % text[:60]) from None
        exponent = 0
    if abs(exponent) > LITERAL_EXP_CAP:
        raise ValueError("decimal exponent of %r beyond +-%d"
                         % (text[:60], LITERAL_EXP_CAP))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a number: %r" % text[:60]) from None


def check_float(value: Fraction, name: str) -> float:
    """float(value), once it is finite, and nonzero unless value is 0."""
    try:
        f = float(value)
    except OverflowError:
        f = math.inf
    if math.isinf(f) or (f == 0 and value != 0):
        raise ValueError("%s must be within the float range" % name)
    return f


def check_delta(delta) -> Fraction:
    """The per-point error budget as a Fraction; it must lie in (0, 1/4)."""
    delta_f = Fraction(delta)
    if not 0 < delta_f < Fraction(1, 4):
        raise ValueError("delta must lie in (0, 1/4)")
    return delta_f


def required_precision(d: int, log2_alpha: float, tol_bits: int,
                       mults: int) -> int:
    """Working mantissa bits for frac(alpha^d) to absolute tolerance delta.

    ceil(d*log2_alpha) covers the integer part, tol_bits = ceil(log2(1/delta))
    the target resolution, ceil(log2(mults+1)) the accumulated rounding,
    plus 16 guard bits; the plan derives log2_alpha (ExactReal.log2_upper,
    finite at any size of alpha) and tol_bits once per walk.  Raises
    PrecisionOverflow when the total exceeds PREC_BUDGET_BITS.  d >= 1,
    alpha > 1 and delta in (0, 1/4) are frac_walk's rules, checked there
    before any plan.
    """
    if mults < 0:
        raise ValueError("mults must be >= 0")
    try:
        magnitude = math.ceil(d * log2_alpha)
    except OverflowError:  # d beyond the float range
        magnitude = math.inf
    prec = magnitude + tol_bits + mults.bit_length() + 16
    if prec > PREC_BUDGET_BITS:
        raise PrecisionOverflow(
            "degree %s at log2(alpha) %.6g needs %g mantissa bits (budget %d)"
            % (_shown(d), log2_alpha, prec, PREC_BUDGET_BITS)
        )
    return prec


def _shown(d: int) -> str:
    # a degree for a message: str() of an int beyond 4300 digits raises
    # ValueError, so past 1000 bits it is named by its bit size
    return str(d) if d.bit_length() <= 1000 else "above 2^%d" % (d.bit_length() - 1)


# ---------------------------------------------------------------------------
# the exact multiply seam
# ---------------------------------------------------------------------------

# A product goes to libgmp once its smaller operand has _GMP_SMALLER_BITS
# bits and its larger _GMP_LARGER_BITS; below that the ctypes call and the
# conversions cost more than CPython's multiply saves (sweep in CHANGES.md).
_GMP_SMALLER_BITS = 2048
_GMP_LARGER_BITS = 4096


def _load_libgmp():
    """GMP's shared library, or None where it is missing or its limbs are
    not 64-bit little-endian words (the layout int.to_bytes writes here)."""
    if sys.byteorder != "little":
        return None
    try:
        lib = ctypes.CDLL("libgmp.so.10")  # find_library would fork
    except OSError:
        return None
    if ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value != 64:
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_long  # mp_size_t is a long
    lib.__gmpn_mul.argtypes = [ptr, ptr, size, ptr, size]
    lib.__gmpn_mul.restype = ctypes.c_uint64
    lib.__gmpn_sqr.argtypes = [ptr, ptr, size]
    lib.__gmpn_sqr.restype = None
    return lib


def _libgmp_mul(lib):
    """a * b, exactly; large products run GMP's mpn_mul (Toom and FFT).

    Magnitudes cross as limb buffers from int.to_bytes, whose data CPython
    keeps 16-byte aligned; the sign is applied here.  Every buffer is local
    to the call, so the multiply holds no state between calls.
    """
    mpn_mul, mpn_sqr = lib.__gmpn_mul, lib.__gmpn_sqr

    def mul(a, b):
        la, lb = a.bit_length(), b.bit_length()
        if la < lb:
            a, b, la, lb = b, a, lb, la
        if lb < _GMP_SMALLER_BITS or la < _GMP_LARGER_BITS:
            return a * b
        un, vn = (la + 63) >> 6, (lb + 63) >> 6
        rp = ctypes.create_string_buffer(8 * (un + vn))
        if a is b:  # ball_pow's squarings: one conversion, less scratch
            mpn_sqr(rp, abs(a).to_bytes(8 * un, "little"), un)
        else:
            mpn_mul(rp, abs(a).to_bytes(8 * un, "little"), un,
                    abs(b).to_bytes(8 * vn, "little"), vn)
        r = int.from_bytes(rp, "little")
        return -r if (a < 0) != (b < 0) else r

    return mul


def _select_mul():
    """(multiply, backend name): libgmp through ctypes above the size
    threshold, else CPython's int multiply."""
    lib = _load_libgmp()
    if lib is None:
        return operator.mul, "python int"
    version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode()
    return _libgmp_mul(lib), "libgmp %s via ctypes" % version


# the one multiply of mantissas, chosen once at import
_mul, MUL_BACKEND = _select_mul()


def int_pow(x: int, d: int) -> int:
    """x^d, d >= 0, by square-and-multiply over _mul as in ball_pow; below
    _GMP_LARGER_BITS bits, where _mul keeps to CPython's int, it is x ** d.

    x^d has at most d*bits(x) bits; past PREC_BUDGET_BITS, the operand
    budget of the walk too, PrecisionOverflow is raised before any multiply.
    """
    bits = d * x.bit_length()
    if bits > PREC_BUDGET_BITS:
        raise PrecisionOverflow(
            "exact power of degree %s of a %d-bit integer exceeds %d bits"
            % (_shown(d), x.bit_length(), PREC_BUDGET_BITS))
    if bits < _GMP_LARGER_BITS:
        return x**d
    result = x
    for i in range(d.bit_length() - 2, -1, -1):
        result = _mul(result, result)
        if (d >> i) & 1:
            result = _mul(result, x)
    return result


# ---------------------------------------------------------------------------
# ball arithmetic
# ---------------------------------------------------------------------------


class Ball:
    """Enclosure: true value lies in [man*2^exp - rad, man*2^exp + rad]."""

    __slots__ = ("man", "exp", "rad", "_mag")

    def __init__(self, man: int, exp: int, rad: tuple[int, int] = _R_ZERO):
        self.man = man
        self.exp = exp
        self.rad = rad
        self._mag = None

    @classmethod
    def from_exact(cls, x: ExactReal) -> "Ball":
        return cls(x.num, x.exp)

    def magnitude_upper(self) -> tuple[int, int]:
        # |man|*2^exp as a radius, once per ball: a walk multiplies by the
        # same gap power at every step, and no ball is changed after it is made
        mag = self._mag
        if mag is None:
            mag = self._mag = _r_norm(abs(self.man), self.exp)
        return mag


def _rounded(man: int, exp: int, rad: tuple[int, int], prec: int) -> Ball:
    """The ball man*2^exp +- rad with its midpoint rounded half-even to at
    most prec bits; the rounding error, half an ulp, is added to rad."""
    neg = man < 0
    a = -man if neg else man
    sh = a.bit_length() - prec
    if sh <= 0:
        return Ball(man, exp, rad)
    rem = a & ((1 << sh) - 1)
    a >>= sh
    if rem:  # else the dropped bits were zero: the shift is exact
        half = 1 << (sh - 1)
        if rem > half or (rem == half and (a & 1)):
            a += 1
        rad = _r_add_pow2(rad, exp + sh - 1)
    exp += sh
    if a and not (a & 1):
        tz = (a & -a).bit_length() - 1
        a >>= tz
        exp += tz
    return Ball(-a if neg else a, exp, rad)


def ball_mul(x: Ball, y: Ball, prec: int) -> Ball:
    # |x|*ry + |y|*rx + rx*ry; with one radius zero, _r_add(ZERO, r) is r
    if x.rad[0] and y.rad[0]:
        rad = _r_add(_r_mul(x.magnitude_upper(), y.rad),
                     _r_mul(y.magnitude_upper(), x.rad))
        rad = _r_add(rad, _r_mul(x.rad, y.rad))
    elif x.rad[0]:
        rad = _r_mul(y.magnitude_upper(), x.rad)
    elif y.rad[0]:
        rad = _r_mul(x.magnitude_upper(), y.rad)
    else:
        rad = _R_ZERO
    return _rounded(_mul(x.man, y.man), x.exp + y.exp, rad, prec)


def ball_pow(base: Ball, d: int, prec: int) -> Ball:
    """base^d by square-and-multiply, most significant bit first (pinned order)."""
    if d < 0:
        raise ValueError("exponent must be >= 0")
    if d == 0:
        return Ball(1, 0)
    result = base
    for i in range(d.bit_length() - 2, -1, -1):
        result = ball_mul(result, result, prec)
        if (d >> i) & 1:
            result = ball_mul(result, base, prec)
    return result


def ball_sub_int(x: Ball, k: int, prec: int) -> Ball:
    if x.exp <= 0:
        return _rounded(x.man - (k << -x.exp), x.exp, x.rad, prec)
    return _rounded((x.man << x.exp) - k, 0, x.rad, prec)


def ball_div_exact(x: Ball, y: ExactReal, prec: int) -> Ball:
    """Divide an enclosure by an exact positive dyadic."""
    if y.num <= 0:
        raise ValueError("divisor must be positive")
    if x.man == 0:
        q, qexp = 0, 0
        trunc = _R_ZERO
    else:
        sh = max(0, prec + 2 - x.man.bit_length() + y.num.bit_length())
        q, rem = divmod(x.man << sh, y.num)
        qexp = x.exp - y.exp - sh
        trunc = _R_ZERO if rem == 0 else (1, qexp)
    rad = trunc
    if x.rad[0]:
        # upper bound of 1/y
        t = y.num.bit_length() + _RAD_BITS + 2
        inv = ((1 << t) // y.num) + 1
        rad = _r_add(rad, _r_mul(x.rad, _r_norm(inv, -t - y.exp)))
    return _rounded(q, qexp, rad, prec)


# ---------------------------------------------------------------------------
# points of the unit interval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitPoint:
    """A point of [0,1) with a certified absolute error bound (circle metric)."""

    value: Fraction
    error: float = 0.0

    def __post_init__(self):
        v = self.value
        if not (0 <= v.numerator < v.denominator if type(v) is Fraction
                else 0 <= v < 1):
            raise ValueError("value must lie in [0,1), got %s" % v)
        if not self.error >= 0:
            raise ValueError("error must be >= 0")


@dataclass(frozen=True)
class LatticePoints(Sequence):
    """Points of [0,1) on one lattice: point i is nums[i]/den, with the
    certified error errors[i].  A sequence of UnitPoints, each built on
    access; a slice is a LatticePoints."""

    nums: tuple[int, ...]
    den: int
    errors: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return LatticePoints(self.nums[i], self.den, self.errors[i])
        return UnitPoint(Fraction(self.nums[i], self.den), self.errors[i])


@dataclass(frozen=True, slots=True)
class WalkPlan:
    """Every constant of one walk, derived once by _plan: the points keep
    `keep` fractional bits (they lie over 2^keep), delta is the tolerance
    exactly and as a float, am1 is alpha - 1 for a geometric walk (else
    None), and segments holds (start, stop, prec) per segment."""

    keep: int
    delta: Fraction
    delta_float: float
    am1: ExactReal | None
    segments: tuple[tuple[int, int, int], ...]


def frac_point(ball: Ball, plan: WalkPlan) -> tuple[int, float]:
    """Extract frac(value) from an enclosure, certified to the plan's delta,
    as (num, err): the point num/2^keep lies within err <= delta of it.

    Raises IndeterminateFrac when the enclosure is too wide to pin the
    fractional part to the tolerance.  The point keeps only the plan's keep
    fractional bits, enough for the tolerance plus slack; the truncation is
    folded into the reported error.  keep and both forms of delta are read
    from the plan, which derives them once per walk.
    """
    if ball.man < 0:
        raise ValueError("fractional-part extraction expects a nonnegative value")
    keep = plan.keep
    rad = ball.rad
    drop = -ball.exp - keep  # fractional bits below the kept ones
    if ball.exp >= 0:
        num = 0
    elif drop > 0:
        num = (ball.man >> drop) & ((1 << keep) - 1)
        rad = _r_add_pow2(rad, -keep)
    else:
        num = (ball.man & ((1 << -ball.exp) - 1)) << -drop
    if not _r_leq(rad, plan.delta):
        raise IndeterminateFrac("enclosure radius %s exceeds tolerance %s"
                                % (_r_float(rad), plan.delta_float))
    # the outward float nudge may overshoot the (already verified) bound;
    # rounding is monotone, so this clamps err exactly where it exceeds delta
    return num, min(_r_float(rad), plan.delta_float)


def _steps(exps):
    """How a walk over `exps` forms each gap power alpha^g, g the gap to the
    previous exponent, from the previous one alpha^g_prev: yields (keep,
    fresh) per exponent with g = keep + fresh, keep in {0, g_prev}, and fresh
    the exponent of a new ball_pow (0: reuse alpha^g_prev as it is)."""
    prev = g_prev = 0
    for e in exps:
        g = e - prev
        if g == g_prev:
            yield g_prev, 0
        elif g_prev < g < 2 * g_prev:
            yield g_prev, g - g_prev
        else:
            yield 0, g
        prev, g_prev = e, g


def _walk(base: Ball, exps, prec: int, plan: WalkPlan,
          first: int) -> list[tuple[int, float]]:
    am1 = plan.am1
    running = gap_power = Ball(1, 0)
    out: list[tuple[int, float]] = []
    for i, (keep, fresh) in enumerate(_steps(exps)):
        if fresh:
            step = ball_pow(base, fresh, prec)
            gap_power = ball_mul(gap_power, step, prec) if keep else step
        running = ball_mul(running, gap_power, prec)
        if am1 is None:
            target = running
        else:
            target = ball_div_exact(ball_sub_int(running, 1, prec), am1, prec)
        try:
            out.append(frac_point(target, plan))
        except IndeterminateFrac as err:
            raise IndeterminateFrac(str(err), index=first + i + 1) from None
    return out


def _roundings(exps) -> int:
    """Roundings that reach the last running product of a walk over `exps`.

    ball_pow(alpha, g) is charged 2*bitlen(g), a kept gap power carries its
    own charge into the next one, and every step charges its gap power once
    more plus one for the running product, since each multiply by it brings
    its error in again.
    """
    count = gap_cost = 0
    for keep, fresh in _steps(exps):
        if fresh:
            gap_cost = (gap_cost + 1 if keep else 0) + 2 * fresh.bit_length()
        count += gap_cost + 1
    return count


def _plan(alpha: ExactReal, exps, delta_f: Fraction,
          geometric: bool) -> WalkPlan:
    """The walk's WalkPlan, from one log2 upper bound of alpha and one
    ceil(log2(1/delta)), every segment planned before any multiply.  A
    segment ends before the first exponent whose integer part needs more
    than max(SEGMENT_FLOOR_BITS, SEGMENT_GROWTH * b0) bits, b0 being the
    bits of the segment's first exponent, and restarts from 1: its first
    step is the binary exponentiation of its first exponent."""
    lg = alpha.log2_upper()
    tol_bits = _ceil_log2_inv(delta_f)
    starts = []
    limit = -1.0
    for i, e in enumerate(exps):
        try:
            bits = e * lg
        except OverflowError:  # e beyond the float range: over budget anyway
            bits = math.inf
        if bits > limit:
            starts.append(i)
            limit = max(SEGMENT_FLOOR_BITS, SEGMENT_GROWTH * bits)
    am1 = None
    extra = 0
    if geometric:
        am1 = ExactReal.from_fraction(alpha.as_fraction() - 1)
        # dividing by alpha - 1 magnifies absolute error by 1/(alpha - 1)
        extra = _ceil_log2_inv(min(am1.as_fraction(), Fraction(1))) + 4
    segments = []
    for start, stop in zip(starts, starts[1:] + [len(exps)]):
        seg = exps[start:stop]
        mults = 2 + _roundings(seg)  # 2: the trailing subtraction/division
        if geometric:
            mults += 2 * len(seg)
        prec = required_precision(seg[-1], lg, tol_bits, mults) + extra
        segments.append((start, stop, prec))
    return WalkPlan(max(64, tol_bits + 32), delta_f, float(delta_f), am1,
                    tuple(segments))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _pool_size(threads: int, jobs: int, cpus: int) -> int:
    """Workers of a pool: no more than asked for, than jobs, or than usable
    CPUs."""
    return max(1, min(threads, jobs, cpus))


def _run_all(task, count: int, workers: int) -> list:
    """[task(k) for k in range(count)].  With workers > 1 the calling thread
    and up to workers - 1 helper threads each take the highest k not yet
    taken (a plan's precision grows along the walk, so this is about
    longest first); every task runs, and once every helper is joined the
    exception of the lowest failing k is raised, as the serial loop would
    raise it."""
    if workers == 1:
        return [task(k) for k in range(count)]
    pending = list(range(count))
    results: list = [None] * count
    errors: list = [None] * count

    def work():
        while True:
            try:
                k = pending.pop()
            except IndexError:
                return
            try:
                results[k] = task(k)
            except Exception as exc:
                errors[k] = exc

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=work)
            try:
                helper.start()
            except RuntimeError:  # no thread to spare: fewer helpers
                break
            helpers.append(helper)
        work()
    finally:
        pending.clear()  # an interrupted caller leaves the helpers no work
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def frac_walk(alpha: ExactReal, exps, delta, geometric: bool = False,
              threads: int = 1) -> LatticePoints:
    """frac(alpha^e) for each e of a strictly increasing exponent list, as
    points over 2^keep, keep the fractional bits its plan keeps for delta.

    With `geometric` the points are frac((alpha^e - 1)/(alpha - 1)) instead,
    i.e. of 1 + alpha + ... + alpha^(e-1).  The exponents are walked in
    segments (see _plan); each starts from 1 and advances a running power
    by one multiplication with alpha^(gap) per exponent.  The gap power is
    reused when the gap repeats, grown as alpha^g_prev * alpha^(g - g_prev)
    when g_prev < g < 2 g_prev, and otherwise computed by binary
    exponentiation, so a single exponent is plain binary exponentiation of
    the full degree.  Each segment's precision is fixed upfront from its last
    exponent and its rounding count, with one automatic retry of that segment
    at doubled precision; after that IndeterminateFrac carries the 1-based
    orbit index of the first uncertified point.

    `threads` > 1 walks the segments on up to that many threads (see
    _run_all), no more than there are segments or usable CPUs; a failing
    segment raises what the serial walk raises.  On CPython's int multiply,
    which holds the GIL, the walk stays serial.
    """
    delta_f = check_delta(delta)
    exps = list(exps)
    if alpha.as_fraction() <= 1:
        raise ValueError("alpha must exceed 1")
    if not exps or exps[0] < 1 or any(a >= b for a, b in zip(exps, exps[1:])):
        raise ValueError("exponents must be >= 1 and strictly increasing")
    base = Ball.from_exact(alpha)
    plan = _plan(alpha, exps, delta_f, geometric)

    # segments share only base, whose one lazy field (_mag) any thread
    # sets to the same value, and the frozen plan
    def segment(k):
        start, stop, prec = plan.segments[k]
        seg = exps[start:stop]
        try:
            return _walk(base, seg, prec, plan, start)
        except IndeterminateFrac:
            return _walk(base, seg, 2 * prec, plan, start)

    workers = 1
    if _mul is not operator.mul:
        workers = _pool_size(threads, len(plan.segments), _usable_cpus())
    parts = _run_all(segment, len(plan.segments), workers)
    nums, errors = zip(*(point for part in parts for point in part))
    return LatticePoints(nums, 1 << plan.keep, errors)


def pow_frac(alpha: ExactReal, d: int, delta) -> UnitPoint:
    """frac(alpha^d) with certified error <= delta.

    The one-exponent frac_walk: binary exponentiation of the full degree, an
    independent route to the points of the incremental orbit walk.
    """
    return frac_walk(alpha, [d], delta)[0]
