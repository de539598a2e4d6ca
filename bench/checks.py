"""Correctness checks on workload outputs, run outside the timed region.

Each checker returns a list of problems (empty means the output passed).
Where a check needs orbit points that the artifact does not carry (a
pair-correlation curve, a discrepancy), it uses the orbit the CLI computed,
captured by `run.py`, and the oracle decides whether those points are right:

- exact oracle: for alpha = m/2^e and degree d,
  frac(alpha^d) = (m^d mod 2^(e*d)) / 2^(e*d), used for every d <= 10^4;
- independent route: `pow_frac` (binary exponentiation, not the incremental
  walk) at a few sampled large indices, agreeing within the sum of the two
  certified errors;
- `naive_pair_count` against `pair_count` on one orbit per run.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction

ORACLE_MAX_DEGREE = 10**4
ALPHA_BITS = 128  # the CLI parses --alpha to this many fractional bits


def degrees(family: str, n_max: int) -> list[int]:
    """d_1..d_N, written out here rather than taken from ppclab."""
    if family == "monomial:k=2":
        return [n * n for n in range(1, n_max + 1)]
    if family == "factorial":
        return [math.factorial(n) for n in range(1, n_max + 1)]
    if family == "linpow":
        return list(range(1, n_max + 1))
    raise ValueError("no degree rule for family %r" % family)


def dyadic_alpha(text: str, bits: int = ALPHA_BITS) -> tuple[int, int]:
    """(m, e) with m odd and alpha = m/2^e: nearest 2^-bits grid point, ties even."""
    m = round(Fraction(text) * (1 << bits))
    e = bits
    while e > 0 and not m & 1:
        m >>= 1
        e -= 1
    return m, e


def _within(r: int, E: int, value: Fraction, err: float) -> bool:
    """Circle distance between r/2^E and value is at most err, exactly."""
    den = value.denominator
    if den & (den - 1):
        return False  # certified points are dyadic
    k = den.bit_length() - 1
    K = max(E, k)
    M = 1 << K
    diff = ((r << (K - E)) - (value.numerator << (K - k))) % M
    dist = min(diff, M - diff)
    bound = Fraction(err)
    return dist * bound.denominator <= bound.numerator * M


def _circle(x: Fraction, y: Fraction) -> Fraction:
    d = (x - y) % 1
    return min(d, 1 - d)


def oracle_problems(alpha_text: str, exps, points) -> list[str]:
    """Points whose degree is <= 10^4 against the exact dyadic oracle."""
    m, e = dyadic_alpha(alpha_text)
    problems = []
    power, prev = 1, 0
    for n, (d, p) in enumerate(zip(exps, points), start=1):
        if d > ORACLE_MAX_DEGREE:
            break
        power *= m ** (d - prev)
        prev = d
        E = e * d
        if not _within(power & ((1 << E) - 1), E, p.value, p.error):
            problems.append("point n=%d (d=%d) is off the exact value by more "
                            "than its certified error %g" % (n, d, p.error))
    return problems


def pow_frac_problems(alpha_text: str, exps, points, indices, delta) -> list[str]:
    """Sampled points against an independent `pow_frac` at the same alpha."""
    from ppclab.hpreal import ExactReal, pow_frac

    m, e = dyadic_alpha(alpha_text)
    alpha = ExactReal(m, -e)
    problems = []
    for i in indices:
        ref = pow_frac(alpha, exps[i], delta)
        p = points[i]
        if _circle(ref.value, p.value) > Fraction(ref.error) + Fraction(p.error):
            problems.append("point n=%d (d=%d) disagrees with pow_frac beyond "
                            "the summed error bounds" % (i + 1, exps[i]))
    return problems


def sample_indices(rng, n_max: int, family: str) -> list[int]:
    """Zero-based indices for the pow_frac cross-check, above the oracle's
    reach.  For factorial the last index would cost as much as the job
    itself, so the two before it are used."""
    if family == "factorial":
        return [n_max - 3, n_max - 2]
    return sorted(set(rng.sample(range(n_max // 2, n_max - 1), 2)) | {n_max - 1})


def orbit_problems(job, orb, rng) -> list[str]:
    """The captured orbit: alpha, length, exact oracle, independent pow_frac
    at indices drawn from `rng`."""
    p = job.params
    n_max = max(p["n_list"]) if "n_list" in p else p["N"]
    m, e = dyadic_alpha(p["alpha"])
    if orb is None:
        return ["no orbit was captured for %s" % " ".join(job.argv)]
    if (orb.alpha.num, orb.alpha.exp) != (m, -e):
        return ["orbit alpha %r is not the 128-bit parse of %s"
                % (orb.alpha, p["alpha"])]
    if len(orb.points) != n_max:
        return ["orbit has %d points, expected %d" % (len(orb.points), n_max)]
    exps = degrees(p["family"], n_max)
    return (oracle_problems(p["alpha"], exps, orb.points)
            + pow_frac_problems(p["alpha"], exps, orb.points,
                                sample_indices(rng, n_max, p["family"]),
                                orb.delta))


def _load_json(text: str, schema: str) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return None, ["output is not JSON: %s" % exc]
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        return None, ["output schema is not %r" % schema]
    return doc, []


def pair_count_audit(points, s=1) -> list[str]:
    """The O(N^2) audit route must count exactly what pair_count counts."""
    from ppclab.paircorr import naive_pair_count, pair_count

    fast = pair_count(points, s).ordered_count
    slow = naive_pair_count(points, s)
    return [] if fast == slow else [
        "pair_count %d != naive_pair_count %d at N=%d" % (fast, slow, len(points))]


def paircorr_curve_problems(job, text: str, orb) -> list[str]:
    from ppclab.paircorr import pair_count

    doc, problems = _load_json(text, "paircorr-curve v1")
    if doc is None:
        return problems
    p = job.params
    n_list = list(p["n_list"])
    if [e.get("N") for e in doc.get("entries", [])] != n_list:
        problems.append("curve entries do not follow --N-list %s" % n_list)
    cfg = doc.get("config", {})
    if (cfg.get("alpha"), cfg.get("family")) != (p["alpha"], p["family"]):
        problems.append("config block does not replay the job")
    if problems or orb is None:
        return problems or ["no orbit was captured"]
    for entry in doc["entries"]:
        res = pair_count(orb.points[:entry["N"]], p["s"])
        if entry["statistic"] != res.statistic:
            problems.append("statistic at N=%d is %r, the orbit gives %r"
                            % (entry["N"], entry["statistic"], res.statistic))
    return problems


_HEADER = re.compile(r"# ppc-points v1 N=([0-9]+)\Z")


def points_file_problems(job, text: str, orb) -> list[str]:
    """A ppc-points v1 artifact: header, config comment, N values in [0,1)."""
    lines = text.splitlines()
    h = _HEADER.match(lines[0]) if lines else None
    if not h:
        return ["missing 'ppc-points v1' header"]
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    configs = [ln for ln in lines[1:] if ln.startswith("# config ")]
    problems = []
    if int(h.group(1)) != job.params["N"] or len(body) != job.params["N"]:
        problems.append("header N=%s with %d values, expected %d"
                        % (h.group(1), len(body), job.params["N"]))
    if len(configs) != 1 or json.loads(configs[0][len("# config "):]).get(
            "alpha") != job.params["alpha"]:
        problems.append("config comment does not replay the job")
    try:
        values = [Fraction(Decimal(ln)) for ln in body]
    except InvalidOperation:
        return problems + ["a point line is not a decimal"]
    if any(not 0 <= v < 1 for v in values):
        problems.append("a point lies outside [0, 1)")
    if orb is not None and not problems:
        # 30 significant digits: the printed value is within 1e-29 of the point
        for n, (v, p) in enumerate(zip(values, orb.points), start=1):
            if abs(v - p.value) > Fraction(1, 10**29):
                problems.append("printed point n=%d differs from the orbit" % n)
                break
    return problems


def discrepancy_problems(job, text: str, orb) -> list[str]:
    doc, problems = _load_json(text, "discrepancy-result v1")
    if doc is None:
        return problems
    if doc.get("N") != job.params["N"]:
        problems.append("N=%s, expected %d" % (doc.get("N"), job.params["N"]))
    if orb is None:
        return problems + ["no orbit was captured"]
    # D*_N on the integer lattice of the points' common denominator
    L = max(p.value.denominator for p in orb.points)
    us = sorted(p.value.numerator * (L // p.value.denominator)
                for p in orb.points)
    N = len(us)
    worst = max(max(i * L - N * u, N * u - (i - 1) * L)
                for i, u in enumerate(us, start=1))
    expect = float(Fraction(worst, N * L))
    if doc.get("d_star") != expect:
        problems.append("d_star %r, the points give %r"
                        % (doc.get("d_star"), expect))
    return problems


_STATUSES = {"holds", "fails", "sampled-holds", "skipped"}


def hypothesis_problems(job, text: str) -> list[str]:
    """Schema, five verdicts, and a replayable condition-5 witness for linpow."""
    doc, problems = _load_json(text, "hypothesis-report v1")
    if doc is None:
        return problems
    conds = doc.get("conditions", [])
    if len(conds) != 5 or any(c.get("status") not in _STATUSES for c in conds):
        return ["expected five conditions with known statuses"]
    w = conds[4].get("witness") or {}
    if conds[4]["status"] != "fails" or not w:
        return ["linpow must fail condition 5 with a witness"]
    d1, d2, C, a = w["d1"], w["d2"], w["C"], w["a"]
    g = d2 / d1
    lhs = (2.0 * g - 1.0) * math.log(C) + (d1 - d2) * math.log(a) \
        - math.log(d2 * (g - 1.0))
    if not math.isclose(lhs, w["lhs"], rel_tol=1e-12):
        problems.append("witness lhs %r does not replay (%r)" % (w["lhs"], lhs))
    if w["rhs"] != -3.0 * math.log(w["n2"]) or not w["lhs"] > w["rhs"]:
        problems.append("witness is not a violation of condition 5")
    return problems


def measure_problems(job, text: str) -> list[str]:
    """Lemma sandwich, and each preimage interval really maps into the arc."""
    doc, problems = _load_json(text, "measure-result v1")
    if doc is None:
        return problems
    p = job.params
    measure = doc["measure"]
    bounds = doc["lemma_bounds"]
    upper = bounds["upper_main"]
    if not bounds["lower_main"] <= measure <= (math.inf if upper is None else upper):
        problems.append("measure %r outside the lemma sandwich" % measure)
    c, d = Fraction(p["c"]), Fraction(p["d"])
    total = 0.0
    for iv in doc["intervals"]:
        x = (Fraction(iv["left"]) + Fraction(iv["right"])) / 2
        g = x ** p["n2"] - x ** p["n1"]  # linpow: f_n(x) = x^n
        if math.floor(g) != iv["M"] or not c <= g - iv["M"] <= d:
            problems.append("interval at level M=%d does not map into the arc"
                            % iv["M"])
            break
        total += iv["right"] - iv["left"]
    if abs(total - measure) > 1e-6:
        problems.append("interval lengths sum to %r, measure is %r"
                        % (total, measure))
    return problems


def second_moment_problems(job, text: str) -> list[str]:
    doc, problems = _load_json(text, "second-moment v1")
    if doc is None:
        return problems
    p = job.params
    entries = doc.get("entries", [])
    if [e["N"] for e in entries] != list(p["n_list"]):
        problems.append("entries do not follow --N-list")
    for e in entries:
        if len(e["node_values"]) != p["K"] or not 0 <= e["V"] < math.inf:
            problems.append("entry N=%d is malformed" % e["N"])
    return problems
