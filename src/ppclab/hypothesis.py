"""Machine checks of the five growth conditions for a family on [a, b].

The conditions live on the degree sequence d_n and the differences
f_{n2} - f_{n1}: (1) strictly increasing degrees, (2) increasing convex
differences, (3) a derivative lower bound with constant c_ab > 0, (4) a
two-sided value bound with constant C_ab > 1, and (5) a growth inequality
that must hold for all n2 > n1 once n1 >= N1.

Verdicts are honest about their evidence.  `holds` requires a closed-form
certificate, `sampled-holds` records the grid or search bound that was
actually exercised, `fails` always carries a replayable witness, and
`skipped` marks conditions that do not apply (constant-degree families).
All logarithms are natural; the condition-(5) comparison is base-invariant
because every term on both sides is a logarithm.

`check_hypotheses` is the one entry point: it checks every scan bound, the
sampled geomsum degree and float(a) > 1 before any work, and its four private
condition steps trust those checks and return verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ppclab.families import (FACTORIAL_CAP, DifferenceMap, IntervalSpec,
                              SequenceFamily, degree)
from ppclab.hpreal import PrecisionOverflow

HOLDS = "holds"
FAILS = "fails"
SAMPLED = "sampled-holds"
SKIPPED = "skipped"

# Largest n2_verify_max: the condition (5) scan is O(n2^2).  On [1.5, 2]
# with n1_search_max = n2_verify_max - 1, the linpow, monomial:k=2 and
# geomsum:k=1 reports took 0.04 s at the default 500 and 3.9-4.3 s at 5000,
# in-process on a 2-vCPU Intel Xeon VM with Python 3.11.7.
N2_VERIFY_CAP = 5000

# Largest n_max and grid_size.  The exact condition (2) sampling of geomsum
# costs O(n_max^2 * grid_size) integer powers of degree up to n_max^k; for
# geomsum:k=2 on [1.5, 2] the report took 0.10 s at the defaults (8, 64),
# 0.14 s at (16, 64), 0.94 s at (32, 64), 0.22 s at (8, 1024) and 0.64 s at
# the caps (20, 256), in-process on a 2-CPU host.  n_max 20 is also
# families.FACTORIAL_CAP.
N_MAX_CAP = 20
GRID_SIZE_CAP = 256

# Largest degree n_max^k + 1 that the exact geomsum condition (2) sampling
# takes powers of.  On [1.5, 2] at grid 64 (256) the report took 0.13 s
# (0.21 s) at degree 513 (k=3, n_max 8), 0.18 s (0.42 s) at 1001 (k=3,
# n_max 10), 0.26-0.32 s (1.0-1.3 s) at 1729 (k=3, n_max 12) and 0.55-0.65 s
# at 2745 (k=3, n_max 14), in-process on a 2-CPU host.  At 1025 the slowest
# scan inside the caps is k=2 at (20, 256), 0.58-0.64 s; k=1 at n_max 20,
# k=3 at 10, k=4 at 5 and k=10 at 2 took 0.18-0.45 s at grid 256.
SAMPLED_DEGREE_CAP = 1025

# families whose differences are plain two-term monomial differences,
# increasing and convex on (1, inf) by inspection of the derivatives
_CLOSED_FORM_CONVEX = ("monomial", "factorial", "linpow")


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: dict | None = None


# conditions (3) to (5) when a grid ratio leaves no constants
_UNAVAILABLE = Verdict(SKIPPED, {"reason": "constants unavailable"})


@dataclass(frozen=True)
class HypothesisReport:
    family: SequenceFamily
    interval: IntervalSpec
    conditions: tuple[Verdict, Verdict, Verdict, Verdict, Verdict]
    c_ab: float | None
    C_ab: float | None
    N1: int | None
    n_max: int
    grid_size: int
    n1_search_max: int
    n2_verify_max: int


def _condition1(family: SequenceFamily, n_max: int) -> Verdict:
    """Degrees strictly increase up to n_max."""
    if family.kind == "kronecker":
        return Verdict(FAILS, {"reason": "deg(f_n) = 1 for all n"})
    prev = degree(family, 1)
    for n in range(2, n_max + 1):
        cur = degree(family, n)
        if not prev < cur:
            return Verdict(FAILS, {"n": n - 1, "d_n": prev, "d_next": cur})
        prev = cur
    return Verdict(HOLDS)


def _condition2(family: SequenceFamily, interval: IntervalSpec,
                n_max: int, grid_size: int) -> Verdict:
    """Differences strictly increasing and convex on [a, b]."""
    if family.kind in _CLOSED_FORM_CONVEX:
        return Verdict(HOLDS, {
            "certificate": "x^d2 - x^d1 with d2 > d1 >= 1 has positive first and "
                           "nonnegative second derivative on (1, inf)"
        })
    # geomsum: sample exactly, in integers; a witness float is one division
    xs, Q = interval.grid(grid_size - 1)
    for n1 in range(1, n_max):
        for n2 in range(n1 + 1, n_max + 1):
            g = DifferenceMap(family, n1, n2)
            num, den = g.over(Q)
            vals = [num(x) for x in xs]
            scale = max(abs(v) for v in vals) or den
            der_num, der_den = g.slope_over(Q)
            for x in xs:
                der = der_num(x)
                if der <= 0:
                    return Verdict(FAILS, {
                        "n1": n1, "n2": n2, "x": x / Q,
                        "derivative": der / der_den(x),
                    })
            for i in range(1, len(vals) - 1):
                second = vals[i - 1] - 2 * vals[i] + vals[i + 1]
                if 10**30 * second < -scale:  # below -1e-30 of the scale
                    return Verdict(FAILS, {
                        "n1": n1, "n2": n2, "x": xs[i] / Q,
                        "second_difference": second / den,
                    })
    return Verdict(SAMPLED, {"grid_size": grid_size, "n_max": n_max})


def _constants(family: SequenceFamily, interval: IntervalSpec, a: float,
               n_max: int, grid_size: int
               ) -> tuple[Verdict, Verdict, float | None, float | None]:
    """Verdicts (3) and (4) with their constants c_ab (derivative lower
    bound) and C_ab (two-sided value bound).

    Monomial gets certified closed forms; other families are minimized and
    maximized over the grid with a 1% margin applied in the safe direction.
    A nonpositive grid ratio fails its bound and leaves both constants None.
    """
    if family.kind == "monomial":
        # ratio = 1 - alpha^(d1-d2) lies in [1 - 1/a, 1), so
        # C_ab = a/(a-1) and c_ab = (1 - 1/a)/b hold for every pair
        cert = Verdict(HOLDS, {"certificate": "closed-form envelope "
                                              "1 - alpha^(d1-d2) in [1 - 1/a, 1)"})
        return cert, cert, (1.0 - 1.0 / a) / float(interval.b), a / (a - 1.0)
    grid, Q = interval.grid(grid_size - 1)
    xs = [x / Q for x in grid]
    c_min = math.inf
    r_max = 1.0
    for n1 in range(1, n_max):
        for n2 in range(n1 + 1, n_max + 1):
            g = DifferenceMap(family, n1, n2)
            for x in xs:
                _, ratio = g.lead(x)
                if ratio <= 0:
                    return _UNAVAILABLE, Verdict(FAILS, {
                        "bound": "value", "n1": n1, "n2": n2, "x": x,
                        "ratio": ratio}), None, None
                r_max = max(r_max, ratio, 1.0 / ratio)
                try:
                    der = g.derivative_over_lead(x)
                except OverflowError:  # (x - 1)^2 past about 1.3e154
                    raise PrecisionOverflow(
                        "condition (3) at x = %r leaves the float range" % x
                    ) from None
                if der <= 0:
                    return Verdict(FAILS, {
                        "bound": "derivative", "n1": n1, "n2": n2, "x": x,
                        "ratio": der}), _UNAVAILABLE, None, None
                c_min = min(c_min, der)
    sampled = Verdict(SAMPLED, {"grid_size": grid_size, "n_max": n_max})
    return sampled, sampled, c_min * 0.99, r_max * 1.01


def condition5_lhs(d1: int, d2: int, C: float, a: float) -> float:
    """(2*d2/d1 - 1)*ln C + (d1 - d2)*ln a - ln(d2*(d2/d1 - 1)).

    Compared against -3*ln(n2); the decision is the same in any log base.
    """
    if d1 < 1 or d2 <= d1:
        raise ValueError("need d2 > d1 >= 1, got (%s, %s)" % (d1, d2))
    return _lhs(d1, d2, *_logs(C, a))


def _logs(C: float, a: float) -> tuple[float, float]:
    """(ln C, ln a), once C > 1 and a > 1 are checked."""
    if C <= 1:
        raise ValueError("C must exceed 1")
    if a <= 1:
        raise ValueError("a must exceed 1")
    return math.log(C), math.log(a)


def _lhs(d1: int, d2: int, log_C: float, log_a: float) -> float:
    # the one copy of condition5_lhs's formula, for checked inputs
    try:
        growth = d2 / d1
        return ((2.0 * growth - 1.0) * log_C
                + (d1 - d2) * log_a
                - math.log(d2 * (growth - 1.0)))
    except OverflowError:
        raise PrecisionOverflow(
            "condition (5) at degrees of %d and %d bits leaves the float range"
            % (d1.bit_length(), d2.bit_length())
        ) from None


def _scan_violations(family: SequenceFamily, C: float, a: float,
                     n2_verify_max: int) -> tuple[int, dict | None]:
    """Largest violating n1 (0 if none) and the worst-violation witness.

    Each pair n1 < n2 compares condition5_lhs(d1, d2, C, a) with
    -3*ln(n2), with the checks and logarithms of C and a taken once.  The
    degrees of every family that reaches condition (5) strictly increase
    from d_1 = 1, so every pair meets condition5_lhs's rule d2 > d1 >= 1.
    """
    log_C, log_a = _logs(C, a)
    worst_gap = -math.inf
    witness = None
    last_bad = 0
    # d_n and -3*ln(n) at index n - 1, filled by the first row (n1 = 1) in
    # n2 order: a degree past DEGREE_CAP_BITS is reached only after every
    # pair before it, so a degree past the float range stops the scan first
    # (monomial k=400 at n2 = 6, where d_35 is the first past the cap)
    degrees = [degree(family, 1)]
    rhs_of = [None]  # n = 1 is never an n2
    for n1 in range(1, n2_verify_max):
        d1 = degrees[n1 - 1]
        for n2 in range(n1 + 1, n2_verify_max + 1):
            if n1 == 1:
                degrees.append(degree(family, n2))
                rhs_of.append(-3.0 * math.log(n2))
            d2 = degrees[n2 - 1]
            lhs = _lhs(d1, d2, log_C, log_a)
            rhs = rhs_of[n2 - 1]
            if lhs > rhs:
                last_bad = n1
                if lhs - rhs > worst_gap:
                    worst_gap = lhs - rhs
                    witness = {"n1": n1, "n2": n2, "d1": d1, "d2": d2,
                               "lhs": lhs, "rhs": rhs, "C": C, "a": a}
    return last_bad, witness


def _condition5(family: SequenceFamily, a: float, C: float,
                n1_search_max: int, n2_verify_max: int
                ) -> tuple[Verdict, int | None]:
    """Verdict (5) and the smallest N1 with no violation for
    N1 <= n1 < n2 <= n2_verify_max, or None when it fails.

    For monomial (k >= 2) and factorial degrees, N1 is additionally pushed
    to the first index with d_{N1}*ln(a) >= 2*ln(C); past that point the
    negative linear-in-d2 term dominates every other term, which certifies
    all n2 beyond the verify bound.  Other families are only verified up to
    n2_verify_max and flagged as such.
    """
    n2_max = (min(n2_verify_max, FACTORIAL_CAP) if family.kind == "factorial"
              else n2_verify_max)
    last_bad, witness = _scan_violations(family, C, a, n2_max)
    base = last_bad + 1
    if base > n1_search_max:  # violations persist past n1_search_max
        return Verdict(FAILS, witness), None
    certifiable = family.kind == "factorial" or (
        family.kind == "monomial" and family.k >= 2)
    if not certifiable:
        return Verdict(SAMPLED, {"N1": base, "note": "verified up to n2 = %d "
                                                    "only" % n2_max}), base
    need = 2.0 * math.log(C) / math.log(a)
    n1 = base
    while degree(family, n1) < need:
        n1 += 1
        if n1 > n1_search_max:  # no certified tail within n1_search_max
            return Verdict(FAILS, witness), None
    return Verdict(HOLDS, {"N1": n1, "note": "tail certified: "
                                             "d_N1*ln(a) >= 2*ln(C)"}), n1


def check_hypotheses(family: SequenceFamily, interval: IntervalSpec,
                     n_max: int = 8, grid_size: int = 64,
                     n1_search_max: int = 200,
                     n2_verify_max: int = 500) -> HypothesisReport:
    """Run all five condition checks and assemble the report.

    All four scan bounds, the sampled geomsum degree and float(a) > 1 are
    checked here, before condition (1) runs; the condition steps trust them.
    """
    a = interval.float_a()
    if not 2 <= n_max <= N_MAX_CAP:
        raise ValueError("n_max must be in [2, %d], got %d" % (N_MAX_CAP, n_max))
    if not 3 <= grid_size <= GRID_SIZE_CAP:
        raise ValueError("grid_size must be in [3, %d], got %d"
                         % (GRID_SIZE_CAP, grid_size))
    if not 2 <= n1_search_max < n2_verify_max <= N2_VERIFY_CAP:
        raise ValueError("need 2 <= n1_search_max < n2_verify_max <= %d, "
                         "got %d and %d" % (N2_VERIFY_CAP, n1_search_max,
                                            n2_verify_max))
    # n_max >= 2, so k above 64 is over the cap without computing n_max^k
    if (family.kind == "geomsum"
            and n_max ** min(family.k, 64) + 1 > SAMPLED_DEGREE_CAP):
        raise ValueError("geomsum:k=%d at n_max %d samples degree n_max^k + 1 "
                         "above %d" % (family.k, n_max, SAMPLED_DEGREE_CAP))
    v1 = _condition1(family, n_max)
    c_ab = C_ab = N1 = None
    if family.kind == "kronecker":
        v2 = v3 = v4 = v5 = Verdict(SKIPPED, {
            "reason": "degree-growth conditions do not apply: "
                      "deg(f_n) = 1 for all n"})
    else:
        v2 = _condition2(family, interval, n_max, grid_size)
        v3, v4, c_ab, C_ab = _constants(family, interval, a, n_max, grid_size)
        if C_ab is None:
            v5 = _UNAVAILABLE
        else:
            v5, N1 = _condition5(family, a, C_ab, n1_search_max, n2_verify_max)
    return HypothesisReport(family, interval, (v1, v2, v3, v4, v5),
                            c_ab, C_ab, N1, n_max, grid_size,
                            n1_search_max, n2_verify_max)


def report_to_json(report: HypothesisReport) -> dict:
    """JSON form of the report, schema `hypothesis-report v1`."""
    conditions = []
    for v in report.conditions:
        entry: dict = {"status": v.status}
        if v.witness is not None:
            entry["witness"] = v.witness
        conditions.append(entry)
    return {
        "schema": "hypothesis-report v1",
        "family": report.family.spec(),
        "a": float(report.interval.a),
        "b": float(report.interval.b),
        "conditions": conditions,
        "c_ab": report.c_ab,
        "C_ab": report.C_ab,
        "N1": report.N1,
        "bounds": {
            "n_max": report.n_max,
            "grid_size": report.grid_size,
            "n1_search_max": report.n1_search_max,
            "n2_verify_max": report.n2_verify_max,
        },
    }
