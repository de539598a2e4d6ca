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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from ppclab.hpreal import ExactReal, PrecisionOverflow, UnitPoint, check_delta, frac_walk

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
    points: tuple[UnitPoint, ...]


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


def orbit(family: SequenceFamily, alpha: ExactReal, N: int, delta) -> Orbit:
    """First N fractional parts of the family at alpha, certified to delta.

    Single incremental pass of hpreal.frac_walk over the exponents of
    f_1 .. f_N; Kronecker orbits are exact rational walks.
    """
    delta_f = check_delta(delta)
    check_orbit_length(N)
    if family.kind == "kronecker":
        af = alpha.as_fraction()
        step = af % 1
        r = Fraction(0)
        pts = []
        for _ in range(N):
            r = (r + step) % 1
            pts.append(UnitPoint(r, 0.0))
        return Orbit(family, alpha, delta_f, tuple(pts))
    exps = [_exponent(family, n) for n in range(1, N + 1)]
    points = frac_walk(alpha, exps, delta_f, geometric=family.kind == "geomsum")
    return Orbit(family, alpha, delta_f, points)


# ---------------------------------------------------------------------------
# family differences f_{n2} - f_{n1}: raw values and stable scaled forms
# ---------------------------------------------------------------------------


def _check_pair(family: SequenceFamily, n1: int, n2: int) -> tuple[int, int]:
    if family.kind == "kronecker":
        raise FamilyError(
            "kronecker differences are degree-1 and degenerate for growth analysis"
        )
    if not 1 <= n1 < n2:
        raise ValueError("need 1 <= n1 < n2, got (%d, %d)" % (n1, n2))
    return degree(family, n1), degree(family, n2)


def diff_value(family: SequenceFamily, x, n1: int, n2: int):
    """(f_{n2} - f_{n1})(x).  Exact when x is a Fraction."""
    d1, d2 = _check_pair(family, n1, n2)
    if family.kind == "geomsum":
        return (x ** (d2 + 1) - x ** (d1 + 1)) / (x - 1)
    return x**d2 - x**d1


def diff_form(family: SequenceFamily, X: int, D: int,
              n1: int, n2: int) -> tuple[int, int]:
    """(f_{n2} - f_{n1})(X/D) as integers (num, den), den > 0 and not
    reduced, for integers X > D > 0: Fraction(num, den) is diff_value at X/D."""
    d1, d2 = _check_pair(family, n1, n2)
    if family.kind == "geomsum":
        return (X ** (d2 + 1) - X ** (d1 + 1) * D ** (d2 - d1),
                D**d2 * (X - D))
    return X**d2 - X**d1 * D ** (d2 - d1), D**d2


def diff_derivative(family: SequenceFamily, x, n1: int, n2: int):
    """(f_{n2} - f_{n1})'(x).  Exact when x is a Fraction."""
    d1, d2 = _check_pair(family, n1, n2)
    if family.kind == "geomsum":
        b1, b2 = d1 + 1, d2 + 1
        num = (b2 * x ** (b2 - 1) - b1 * x ** (b1 - 1)) * (x - 1) - (x**b2 - x**b1)
        return num / (x - 1) ** 2
    return d2 * x ** (d2 - 1) - d1 * x ** (d1 - 1)


def diff_over_lead(family: SequenceFamily, x: float, n1: int, n2: int) -> float:
    """(f_{n2} - f_{n1})(x) / x^(d_{n2}), stable at any degree."""
    d1, d2 = _check_pair(family, n1, n2)
    if family.kind == "geomsum":
        return (x - x ** (d1 + 1 - d2)) / (x - 1)
    return 1.0 - x ** (d1 - d2)


def derivative_over_lead(family: SequenceFamily, x: float, n1: int, n2: int) -> float:
    """(f_{n2} - f_{n1})'(x) / (d_{n2} * x^(d_{n2})), stable at any degree."""
    d1, d2 = _check_pair(family, n1, n2)
    if family.kind == "geomsum":
        b1, b2 = d1 + 1, d2 + 1
        num = (b2 - b1 * x ** (d1 - d2)) * (x - 1) - (x - x ** (d1 - d2 + 1))
        return num / (d2 * (x - 1) ** 2)
    return (1.0 - (d1 / d2) * x ** (d1 - d2)) / x
