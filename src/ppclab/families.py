"""Sequence families f_n and their certified fractional-part orbits.

Supported families (spec strings in parentheses):

  Monomial k     (monomial:k=<int>)   f_n(x) = x^(n^k)
  GeometricSum k (geomsum:k=<int>)    f_n(x) = 1 + x + ... + x^(n^k)
  Factorial      (factorial)          f_n(x) = x^(n!)         n <= 20
  LinearPower    (linpow)             f_n(x) = x^n            slow-growth control
  Kronecker      (kronecker)          f_n(x) = n*x            classical control

A family only supplies the exponents; the certified walk over them, and its
precision plan, is hpreal.frac_walk, so every emitted point carries a
certified error bound.

The maps g whose growth hypothesis checks and whose level sets measure
inverts live here too, with the interval [a, b] they are studied on
(IntervalSpec): PowerMap (alpha^d) and DifferenceMap (f_{n2} - f_{n1}).  Each
map gives over(D), the pair (num, den) with g(X/D) = num(X)/den for integers
X > D > 0, value(x) (the exact Fraction built from over), derivative(x)
(float) and lead(x), the pair (d, g(x)/x^d) from which a float estimate is
made before any exact value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from ppclab.hpreal import (ExactReal, LatticePoints, PrecisionOverflow, _mul,
                           check_delta, check_float, frac_walk, int_pow)

FACTORIAL_CAP = 20

# Most bits of a monomial or geomsum degree n^k, checked before the power.
# It lies above the float range (2^1024) that hypothesis and measure can use
# and above any degree a test builds (2^1100); no orbit plan passes about
# 2^82.
DEGREE_CAP_BITS = 1 << 11

# Most points one orbit may have, checked before its exponent list or
# Kronecker walk is built.  The largest orbit any test or workload uses has
# 5000 points (criterion 4).  linpow at alpha 1.5 took 0.05 s at N=5000,
# 0.75 s at 5*10^4 and 1.8 s (50 MB peak RSS) at 10^5, and kronecker 1.0 s at
# 10^5 (2-CPU host); higher-degree families reach PREC_BUDGET_BITS first.
ORBIT_N_CAP = 100_000

_KINDS_WITH_K = ("monomial", "geomsum")
_ALL_KINDS = ("monomial", "geomsum", "factorial", "linpow", "kronecker")


class FamilyError(ValueError):
    """The requested operation is undefined for this family."""


@dataclass(frozen=True)
class SequenceFamily:
    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise FamilyError("unknown family kind %r" % self.kind)
        if self.kind in _KINDS_WITH_K:
            if not isinstance(self.k, int) or self.k < 1:
                raise FamilyError("%s requires integer k >= 1" % self.kind)
        elif self.k is not None:
            raise FamilyError("%s takes no exponent parameter" % self.kind)

    def spec(self) -> str:
        if self.kind in _KINDS_WITH_K:
            return "%s:k=%d" % (self.kind, self.k)
        return self.kind


_SPEC_RE = re.compile(r"(monomial|geomsum):k=([0-9]+)\Z")


def parse_family(spec: str) -> SequenceFamily:
    """Parse a family spec string.  Grammar is exact and case-sensitive."""
    if spec in ("factorial", "linpow", "kronecker"):
        return SequenceFamily(spec)
    m = _SPEC_RE.match(spec)
    if m:
        return SequenceFamily(m.group(1), int(m.group(2)))
    raise FamilyError("unrecognized family spec %r" % spec)


def degree(family: SequenceFamily, n: int) -> int:
    """d_n for the family; n^k is capped at DEGREE_CAP_BITS bits and n! at
    n <= 20 (precision budget)."""
    if n < 1:
        raise ValueError("index must be >= 1, got %d" % n)
    if family.kind in _KINDS_WITH_K:
        # n^k has more than k*(bits(n) - 1) bits, so a power past that
        # pre-check has fewer than 2 * DEGREE_CAP_BITS bits
        if family.k * (n.bit_length() - 1) < DEGREE_CAP_BITS:
            d = n**family.k
            if d.bit_length() <= DEGREE_CAP_BITS:
                return d
        raise PrecisionOverflow(
            "degree n^k of %s at n = %d exceeds %d bits"
            % (family.spec(), n, DEGREE_CAP_BITS)
        )
    if family.kind == "factorial":
        if n > FACTORIAL_CAP:
            raise PrecisionOverflow(
                "factorial degree rejected for n = %d (cap n <= %d)" % (n, FACTORIAL_CAP)
            )
        return math.factorial(n)
    return n  # linpow, kronecker


@dataclass(frozen=True)
class Orbit:
    family: SequenceFamily
    alpha: ExactReal
    delta: Fraction
    points: LatticePoints


def _exponent(family: SequenceFamily, n: int) -> int:
    # geometric sum: f_n = (alpha^(d+1) - 1)/(alpha - 1), no mod-1 shortcut
    # exists before the division, so the full power alpha^(d+1) is carried
    d = degree(family, n)
    return d + 1 if family.kind == "geomsum" else d


def check_orbit_length(N: int) -> int:
    """N itself, once it lies in [1, ORBIT_N_CAP]."""
    if not 1 <= N <= ORBIT_N_CAP:
        raise ValueError("N must be in [1, %d], got %d" % (ORBIT_N_CAP, N))
    return N


def orbit(family: SequenceFamily, alpha: ExactReal, N: int, delta,
          threads: int = 1) -> Orbit:
    """First N fractional parts of the family at alpha, certified to delta.

    Single incremental pass of hpreal.frac_walk over the exponents of
    f_1 .. f_N, its segments on up to `threads` threads; Kronecker orbits
    are exact, on alpha's own dyadic lattice.
    """
    delta_f = check_delta(delta)
    check_orbit_length(N)
    if family.kind == "kronecker":
        # alpha = num * 2^exp, so frac(n * alpha) is (n * num mod 2^E) / 2^E
        # with E = -exp, and 0 for an integer alpha (exp >= 0)
        E = max(0, -alpha.exp)
        mask = (1 << E) - 1
        nums = tuple((n * alpha.num) & mask for n in range(1, N + 1))
        return Orbit(family, alpha, delta_f,
                     LatticePoints(nums, 1 << E, (0.0,) * N))
    exps = [_exponent(family, n) for n in range(1, N + 1)]
    points = frac_walk(alpha, exps, delta_f, geometric=family.kind == "geomsum",
                       threads=threads)
    return Orbit(family, alpha, delta_f, points)


# ---------------------------------------------------------------------------
# the interval [a, b] and the maps g on it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalSpec:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not 1 < self.a < self.b:
            raise ValueError("need 1 < a < b, got [%s, %s]" % (self.a, self.b))
        check_float(self.b, "b")

    def float_a(self) -> float:
        """float(a) for the float forms that divide by a - 1; an a that
        rounds to 1.0 is rejected."""
        a = float(self.a)
        if not a > 1:
            raise ValueError("a must exceed 1 as a float; it rounds to 1.0")
        return a

    def grid(self, n: int) -> tuple[list[int], int]:
        """(xs, Q): the points a + i*(b - a)/n, i = 0..n, are x/Q."""
        L = math.lcm(self.a.denominator, self.b.denominator)
        A = self.a.numerator * (L // self.a.denominator)
        B = self.b.numerator * (L // self.b.denominator)
        return [A * n + i * (B - A) for i in range(n + 1)], L * n


@dataclass(frozen=True)
class PowerMap:
    """g(alpha) = alpha^d."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("exponent must be >= 1")

    def over(self, D: int):
        """(num, den) with g(X/D) = num(X)/den = X^d/D^d for integers X, D."""
        d = self.d
        return (lambda X: int_pow(X, d)), int_pow(D, d)

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        num, den = self.over(x.denominator)
        return Fraction(num(x.numerator), den)

    def derivative(self, x: float) -> float:
        return self.d * x ** (self.d - 1)

    def lead(self, x: float) -> tuple[int, float]:
        """(d, g(x)/x^d), the log form used before any exact power."""
        return self.d, 1.0


@dataclass(frozen=True)
class DifferenceMap:
    """g = f_{n2} - f_{n1} for a sequence family, with the degrees
    d1 = d_{n1} and d2 = d_{n2} derived once.

    Beyond the map protocol, slope_over gives g'(X/D) in integers, and lead
    and derivative_over_lead are float forms scaled by x^d2, stable at any
    degree.
    """

    family: SequenceFamily
    n1: int
    n2: int
    d1: int = field(init=False)
    d2: int = field(init=False)

    def __post_init__(self):
        if self.family.kind == "kronecker":
            raise FamilyError(
                "kronecker differences are degree-1 and degenerate for growth "
                "analysis")
        if not 1 <= self.n1 < self.n2:
            raise ValueError("need 1 <= n1 < n2, got (%d, %d)" % (self.n1, self.n2))
        object.__setattr__(self, "d1", degree(self.family, self.n1))
        object.__setattr__(self, "d2", degree(self.family, self.n2))

    def over(self, D: int):
        """(num, den) with g(X/D) = num(X)/den for integers X > D > 0, and
        den = D^d2; the powers of D are taken once, here."""
        d1, m = self.d1, self.d2 - self.d1
        Dm = int_pow(D, m)
        if self.family.kind == "geomsum":
            # g = x^(d1+1) + ... + x^d2, so (X - D) divides X^m - D^m
            def num(X):
                return _mul(int_pow(X, d1 + 1), (int_pow(X, m) - Dm) // (X - D))
        else:
            def num(X):
                return _mul(int_pow(X, d1), int_pow(X, m) - Dm)
        return num, int_pow(D, self.d2)

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        num, den = self.over(x.denominator)
        return Fraction(num(x.numerator), den)

    def slope_over(self, D: int):
        """(num, den) with g'(X/D) = num(X)/den(X) for integers X > D > 0 and
        a geomsum family, whose (x - 1)^2 g' is, with m = d2 - d1,
        x^d1 ((d2 + 1) x^m - (d1 + 1)) (x - 1) - x^(d1+1) (x^m - 1)."""
        d1, d2, m = self.d1, self.d2, self.d2 - self.d1
        Dm, Dd = int_pow(D, m), int_pow(D, d2 - 1)

        def num(X):
            Xm = int_pow(X, m)
            s = ((d2 + 1) * Xm - (d1 + 1) * Dm) * (X - D) - X * (Xm - Dm)
            return _mul(int_pow(X, d1), s)
        return num, lambda X: _mul(Dd, int_pow(X - D, 2))

    def derivative(self, x: float) -> float:
        """g'(x), in floats."""
        d1, d2 = self.d1, self.d2
        if self.family.kind == "geomsum":
            b1, b2 = d1 + 1, d2 + 1
            num = (b2 * x ** (b2 - 1) - b1 * x ** (b1 - 1)) * (x - 1) - (x**b2 - x**b1)
            return num / (x - 1) ** 2
        return d2 * x ** (d2 - 1) - d1 * x ** (d1 - 1)

    def lead(self, x: float) -> tuple[int, float]:
        """(d2, g(x)/x^d2), the log form used before any exact power."""
        d1, d2 = self.d1, self.d2
        if self.family.kind == "geomsum":
            return d2, (x - x ** (d1 + 1 - d2)) / (x - 1)
        return d2, 1.0 - x ** (d1 - d2)

    def derivative_over_lead(self, x: float) -> float:
        """g'(x) / (d2 * x^d2)."""
        d1, d2 = self.d1, self.d2
        if self.family.kind == "geomsum":
            b1, b2 = d1 + 1, d2 + 1
            num = (b2 - b1 * x ** (d1 - d2)) * (x - 1) - (x - x ** (d1 - d2 + 1))
            return num / (d2 * (x - 1) ** 2)
        return (1.0 - (d1 / d2) * x ** (d1 - d2)) / x
