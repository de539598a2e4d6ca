"""Pair correlations, discrepancy and gap statistics on circle point sets.

Counting is exact: every statistic reads the points as integer numerators
over one common denominator (hpreal.LatticePoints), so every comparison
against the threshold s/N is decided by integer arithmetic.  Orbits are born
on that lattice, so for them it costs one sort; any other sequence of
UnitPoints, read_points' among them, is put on the lcm of its denominators
once (lattice_points).  The production counter makes one bisection per point
over the sorted lattice, O(N log N); `naive_pair_count` keeps the O(N^2)
enumeration available as an independent audit route, and the two must agree
exactly on every input.

The resolution policy of an orbit's pair statistic lives here: the default
point error budget min(2^-40, s/(200 N)), the rule delta <= s/(100 N) checked
before any orbit, the N-list rules and the blur guard of every count.
ppc_curve is the one route from a family and alpha to pair counts.

A point set may also be serialized to the plain-text `ppc-points v1` format:

    # ppc-points v1 N=<int>
    <one decimal per line, 30 significant digits>

Extra `#` comment lines directly after the header are permitted (the CLI puts
the emitting config there) and are skipped by the reader.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

from ppclab.families import SequenceFamily, check_orbit_length, orbit
from ppclab.hpreal import (ExactReal, LatticePoints, UnitPoint, check_delta,
                           check_float, check_literal)


class TooBlurry(ValueError):
    """Point error bounds are too large for the requested pair threshold."""


@dataclass(frozen=True)
class PairCorrelationResult:
    N: int
    s: float
    ordered_count: int
    statistic: float


@dataclass(frozen=True)
class DiscrepancyResult:
    N: int
    d_star: float


def _as_fraction_s(s) -> Fraction:
    s_frac = Fraction(s)
    if s_frac <= 0:
        raise ValueError("s must be positive")
    check_float(s_frac, "s")
    return s_frac


def lattice_points(points: Sequence[UnitPoint]) -> LatticePoints:
    """The points on one lattice: a LatticePoints as it is, any other
    sequence over the lcm L of its denominators."""
    if isinstance(points, LatticePoints):
        return points
    L = 1
    for p in points:
        L = math.lcm(L, p.value.denominator)
    return LatticePoints(
        tuple(p.value.numerator * (L // p.value.denominator) for p in points),
        L, tuple(p.error for p in points))


def _lattice(points: Sequence[UnitPoint]) -> tuple[LatticePoints, list[int]]:
    # the points on their lattice, and its numerators sorted; the one rule
    # that a point set is nonempty
    lat = lattice_points(points)
    if not lat:
        raise ValueError("points must be nonempty")
    return lat, sorted(lat.nums)


def _counting_lattice(points: Sequence[UnitPoint],
                      s) -> tuple[int, Fraction, list[int], int, int]:
    """(N, s, us, L, T) of a pair count: the points as sorted numerators us
    over their common denominator L, and the threshold T, with d/L <= s/N
    exactly when d <= T for integer d.

    Requires a nonempty point set, and every point error <= s/(100*N) so
    point blur cannot move a pair across the threshold undetected at the
    reported resolution.
    """
    lat, us = _lattice(points)
    N, L = len(us), lat.den
    s_frac = _as_fraction_s(s)
    bound = s_frac / (100 * N)
    worst = max(lat.errors)
    if Fraction(worst) > bound:
        raise TooBlurry("max point error %.3g exceeds s/(100*N) = %.3g"
                        % (worst, bound))
    T = (s_frac.numerator * L) // (s_frac.denominator * N)
    return N, s_frac, us, L, T


def pair_count(points: Sequence[UnitPoint], s) -> PairCorrelationResult:
    """Ordered pairs (m != n) with circle distance <= s/N, ties included."""
    N, s_frac, us, L, T = _counting_lattice(points, s)
    if 2 * s_frac >= N:
        # threshold >= 1/2: the window covers the whole circle
        count = N * (N - 1)
    else:
        # T < L/2, so a pair lies within T of each other going forward from
        # exactly one of its points: count each point's forward neighbours,
        # past the wrap through the copy shifted by L, and double the sum
        ext = us + [u + L for u in us]
        count = 2 * sum(bisect_right(ext, u + T, i + 1) - i - 1
                        for i, u in enumerate(us))
    return PairCorrelationResult(N, float(s_frac), count, count / N)


def naive_pair_count(points: Sequence[UnitPoint], s) -> int:
    """O(N^2) reference count of the same ordered pairs, kept for audit."""
    N, _, us, L, T = _counting_lattice(points, s)
    count = 0
    for i in range(N):
        ui = us[i]
        for j in range(i + 1, N):
            d = ui - us[j]
            if d < 0:
                d = -d
            if d > L - d:
                d = L - d
            if d <= T:
                count += 2
    return count


def default_delta(s, n_max: int) -> Fraction:
    """Point tolerance 2^-40, or finer for the blur guard at scale s."""
    delta = Fraction(1, 2**40)
    return delta if s is None else min(delta, Fraction(s) / (200 * n_max))


def check_resolution(s, delta, n_max: int) -> tuple[Fraction, Fraction]:
    """(s, delta) as Fractions, checked before any orbit up to n_max points.

    Needs s > 0 and delta in (0, 1/4), both with a nonzero float for the
    artifact, and delta <= s/(100*n_max), so that points certified to delta
    pass the blur guard of every prefix pair count.
    """
    s_frac = _as_fraction_s(s)
    delta_f = check_delta(delta)
    check_float(delta_f, "delta")
    if delta_f > s_frac / (100 * n_max):
        raise ValueError(
            "delta %.3g too coarse for s %.3g at N=%d (need delta <= s/(100*N))"
            % (delta_f, s_frac, n_max)
        )
    return s_frac, delta_f


def check_n_list(N_list: Sequence[int]) -> int:
    """max(N_list), once the list is nonempty and every N >= 1."""
    if not N_list:
        raise ValueError("N_list must be nonempty")
    if any(n < 1 for n in N_list):
        raise ValueError("every N must be >= 1")
    return max(N_list)


def ppc_curve(family: SequenceFamily, alpha: ExactReal, s, N_list: Sequence[int],
              delta) -> list[PairCorrelationResult]:
    """The pair count at each N of N_list, from one orbit at max(N_list)."""
    n_max = check_n_list(N_list)
    s_frac, delta = check_resolution(s, delta, n_max)
    orb = orbit(family, alpha, n_max, delta)
    return [pair_count(orb.points[:N], s_frac) for N in N_list]


def star_discrepancy(points: Sequence[UnitPoint]) -> DiscrepancyResult:
    """D*_N = max_i max(i/N - x_(i), x_(i) - (i-1)/N), computed exactly on
    the integer lattice: with x = u/L it is max(i*L - N*u, N*u - (i-1)*L)
    over N*L."""
    lat, us = _lattice(points)
    N, L = len(us), lat.den
    worst = max(max(i * L - N * u, N * u - (i - 1) * L)
                for i, u in enumerate(us, start=1))
    return DiscrepancyResult(N, float(Fraction(worst, N * L)))


def gap_spectrum(points: Sequence[UnitPoint]) -> list[Fraction]:
    """Sorted circular gaps between consecutive points; sums to 1 exactly."""
    lat, us = _lattice(points)
    L = lat.den
    gaps = sorted([b - a for a, b in zip(us, us[1:])] + [L - us[-1] + us[0]])
    return [Fraction(gap, L) for gap in gaps]


# ---------------------------------------------------------------------------
# point-set files
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"# ppc-points v1 N=([0-9]+)\Z")


def points_text(points: Sequence[UnitPoint], comments: Iterable[str] = ()) -> str:
    """The ppc-points v1 text: each point in decimal with 30 significant
    digits (exact when it fits), trailing zeros stripped so that reading and
    writing it again is byte-stable."""
    lat = lattice_points(points)
    lines = ["# ppc-points v1 N=%d" % len(lat)]
    for c in comments:
        lines.append("# %s" % c)
    with localcontext() as ctx:
        ctx.prec = 30
        den = Decimal(lat.den)
        lines.extend(str((Decimal(num) / den).normalize()) for num in lat.nums)
    return "\n".join(lines) + "\n"


def read_points(path) -> LatticePoints:
    """Parse a ppc-points v1 file; values are exact decimals with error 0,
    put on the lcm of their denominators (lattice_points).

    The header's N must pass the orbit cap before any point line is read,
    and the file is refused at the first point line past that N.
    """
    with open(path, encoding="ascii") as fh:
        first = fh.readline()
        if not first:
            raise ValueError("empty point file")
        header = first.rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise ValueError("missing 'ppc-points v1' header: %r" % header[:60])
        n_declared = check_orbit_length(int(m.group(1)))
        points: list[UnitPoint] = []
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            if len(points) == n_declared:
                raise ValueError("header declares N=%d but file holds more "
                                 "points" % n_declared)
            text = line.strip()
            if "/" in text:
                raise ValueError("not a decimal: %r" % text[:60])
            value = check_literal(text)
            if not 0 <= value < 1:
                raise ValueError("point outside [0,1): %r" % text[:60])
            points.append(UnitPoint(value, 0.0))
    if len(points) != n_declared:
        raise ValueError(
            "header declares N=%d but file holds %d points" % (n_declared, len(points))
        )
    return lattice_points(points)
