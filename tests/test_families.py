"""Family evaluation tests.

Oracles: exact rational power sums for the geometric family, exact Fractions
for small orbits, central finite differences for derivatives, and the
non-incremental per-index route (`single_point`: a one-exponent
hpreal.frac_walk, i.e. binary exponentiation of the full degree) against the
incremental orbit walk.  Everything goes through the public functions
families.orbit, hpreal.frac_walk and hpreal.pow_frac.
"""

import math
import threading
from fractions import Fraction

import pytest

from ppclab.families import (
    ORBIT_N_CAP,
    FamilyError,
    DifferenceMap,
    IntervalSpec,
    SequenceFamily,
    degree,
    orbit,
    parse_family,
)
from ppclab import hpreal
from ppclab.hpreal import (
    ExactReal,
    IndeterminateFrac,
    PrecisionOverflow,
    frac_walk,
    parse_alpha,
    pow_frac,
)

MON2 = SequenceFamily("monomial", 2)
GEO2 = SequenceFamily("geomsum", 2)
FACT = SequenceFamily("factorial")
LIN = SequenceFamily("linpow")
KRON = SequenceFamily("kronecker")

DELTA = Fraction(1, 2**40)


def circle_dist(x, y) -> Fraction:
    """Distance to the nearest integer of x - y, exact."""
    d = abs(Fraction(x) - Fraction(y)) % 1
    return min(d, 1 - d)


def geomsum_oracle(x: Fraction, d: int) -> Fraction:
    """f(x) = 1 + x + ... + x^d by direct summation."""
    total = Fraction(0)
    p = Fraction(1)
    for _ in range(d + 1):
        total += p
        p *= x
    return total


def single_point(family: SequenceFamily, alpha: ExactReal, n: int):
    """frac(f_n(alpha)) alone, by a one-exponent walk (not for kronecker)."""
    d = degree(family, n)
    if family.kind == "geomsum":
        return frac_walk(alpha, [d + 1], DELTA, geometric=True)[0]
    return pow_frac(alpha, d, DELTA)


# ---------------------------------------------------------------------------
# grammar and degrees
# ---------------------------------------------------------------------------


def test_parse_family_grammar():
    assert parse_family("monomial:k=2") == MON2
    assert parse_family("geomsum:k=3") == SequenceFamily("geomsum", 3)
    assert parse_family("factorial") == FACT
    assert parse_family("linpow") == LIN
    assert parse_family("kronecker") == KRON
    assert parse_family("monomial:k=2").spec() == "monomial:k=2"
    for bad in ("Monomial:k=2", "monomial", "monomial:k=", "monomial:k=0",
                "factorial:k=2", "geomsum", "kronecker "):
        with pytest.raises((FamilyError, ValueError)):
            parse_family(bad)


def test_family_constructor_rules():
    # parse_family's grammar stops these before the constructor runs
    with pytest.raises(FamilyError, match="^unknown family kind 'foo'$"):
        SequenceFamily("foo")
    with pytest.raises(FamilyError,
                       match="^linpow takes no exponent parameter$"):
        SequenceFamily("linpow", 2)


def test_degree_values():
    assert degree(MON2, 5) == 25
    assert degree(SequenceFamily("geomsum", 3), 2) == 8
    assert degree(FACT, 5) == 120
    assert degree(FACT, 20) == 2432902008176640000
    assert degree(LIN, 7) == 7
    assert degree(KRON, 7) == 7
    with pytest.raises(PrecisionOverflow):
        degree(FACT, 21)
    with pytest.raises(ValueError):
        degree(MON2, 0)


def test_degree_cap_is_checked_before_the_power():
    # 2^2048 has 2049 bits, one past the cap; 2^1100 is the largest degree
    # the measure tests build
    assert degree(SequenceFamily("monomial", 1100), 2) == 2**1100
    assert degree(SequenceFamily("monomial", 2047), 2) == 2**2047
    assert degree(SequenceFamily("geomsum", 10**9), 1) == 1
    assert degree(SequenceFamily("monomial", 4), 2**512 - 1).bit_length() == 2048
    for k, n in ((2048, 2), (4, 2**512), (10**9, 2), (10**9, 10**9)):
        with pytest.raises(PrecisionOverflow, match="2048 bits"):
            degree(SequenceFamily("monomial", k), n)
        with pytest.raises(PrecisionOverflow, match="2048 bits"):
            degree(SequenceFamily("geomsum", k), n)


def test_degrees_strictly_increase():
    for fam in (MON2, SequenceFamily("geomsum", 2), FACT, LIN):
        cap = 20 if fam.kind == "factorial" else 30
        ds = [degree(fam, n) for n in range(1, cap + 1)]
        assert all(a < b for a, b in zip(ds, ds[1:]))


# ---------------------------------------------------------------------------
# single points
# ---------------------------------------------------------------------------


def test_single_point_geomsum_matches_summation_oracle():
    alpha = parse_alpha("1.5", 128)
    af = alpha.as_fraction()
    for n in (1, 2, 3):
        d = degree(GEO2, n)
        want = geomsum_oracle(af, d) % 1
        got = single_point(GEO2, alpha, n)
        assert circle_dist(got.value, want) <= Fraction(got.error)
    # n=2 is exactly representable: frac(1+1.5+...+1.5^4) = frac(13.1875)
    got = single_point(GEO2, alpha, 2)
    assert got.value == Fraction(3, 16) and got.error == 0.0


def test_kronecker_point_exact():
    alpha = parse_alpha("1.618033988749894848204586834366", 128)
    af = alpha.as_fraction()
    orb = orbit(KRON, alpha, 137, DELTA)
    for n in (1, 2, 10, 137):
        got = orb.points[n - 1]
        assert got.value == (n * af) % 1
        assert got.error == 0.0


def test_single_point_monomial_matches_exact_power():
    alpha = parse_alpha("1.8", 128)
    af = alpha.as_fraction()
    got = single_point(MON2, alpha, 4)  # degree 16
    exact = af**16
    want = exact - (exact.numerator // exact.denominator)
    assert circle_dist(got.value, want) <= Fraction(got.error) <= DELTA


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def test_orbit_monomial_exact_small_case():
    alpha = parse_alpha("1.5", 128)
    orb = orbit(MON2, alpha, 3, Fraction(1, 2**30))
    vals = [p.value for p in orb.points]
    assert vals == [Fraction(1, 2), Fraction(1, 16), Fraction(227, 512)]
    assert all(p.error == 0.0 for p in orb.points)


def test_orbit_matches_per_index_eval():
    alpha = parse_alpha("1.8", 128)
    orb = orbit(MON2, alpha, 200, DELTA)
    assert len(orb.points) == 200
    for n in (1, 2, 3, 50, 113, 200):
        single = single_point(MON2, alpha, n)
        assert circle_dist(orb.points[n - 1].value, single.value) <= 2 * DELTA


def test_orbit_geomsum_matches_per_index_eval():
    alpha = parse_alpha("1.7", 128)
    orb = orbit(GEO2, alpha, 12, DELTA)
    for n in (1, 5, 12):
        single = single_point(GEO2, alpha, n)
        assert circle_dist(orb.points[n - 1].value, single.value) <= 2 * DELTA


def test_orbit_factorial_and_linpow():
    alpha = parse_alpha("1.8", 128)
    orb = orbit(FACT, alpha, 8, DELTA)
    for n in (1, 4, 8):
        single = single_point(FACT, alpha, n)
        assert circle_dist(orb.points[n - 1].value, single.value) <= 2 * DELTA
    af = alpha.as_fraction()
    lin = orbit(LIN, alpha, 40, DELTA)
    running = Fraction(1)
    for n in range(1, 41):
        running *= af
        want = running % 1
        assert circle_dist(lin.points[n - 1].value, want) <= Fraction(lin.points[n - 1].error)


@pytest.mark.parametrize("family", [LIN, KRON, MON2])
def test_orbit_length_is_capped_before_any_work(monkeypatch, family):
    from ppclab import families

    def never(*args, **kwargs):
        raise AssertionError("orbit work started before the length check")

    alpha = parse_alpha("1.5", 128)
    assert ORBIT_N_CAP >= 5000  # criterion 4's orbit
    monkeypatch.setattr(families, "frac_walk", never)
    monkeypatch.setattr(families, "LatticePoints", never)  # the Kronecker walk
    for N in (ORBIT_N_CAP + 1, 100_000_000, 10**400):
        with pytest.raises(ValueError, match="N must be in"):
            orbit(family, alpha, N, DELTA)


def test_orbit_kronecker_exact_walk():
    alpha = parse_alpha("1.618033988749894848204586834366", 128)
    af = alpha.as_fraction()
    orb = orbit(KRON, alpha, 25, DELTA)
    for n in range(1, 26):
        assert orb.points[n - 1].value == (n * af) % 1
        assert orb.points[n - 1].error == 0.0


@pytest.mark.parametrize("text", ["2.75", "1234.56789", "3", "4"])
def test_orbit_kronecker_past_2_and_at_integer_alpha(text):
    # 3 and 4 are integers (exp >= 0), so every step is 0
    alpha = parse_alpha(text, 128)
    af = alpha.as_fraction()
    orb = orbit(KRON, alpha, 40, DELTA)
    assert (alpha.exp >= 0) == (af.denominator == 1)
    for n in range(1, 41):
        assert orb.points[n - 1].value == (n * af) % 1
        assert orb.points[n - 1].error == 0.0


def test_orbit_deterministic():
    alpha = parse_alpha("1.93", 128)
    a = orbit(MON2, alpha, 60, DELTA)
    b = orbit(MON2, alpha, 60, DELTA)
    assert [p.value for p in a.points] == [p.value for p in b.points]
    assert [p.error for p in a.points] == [p.error for p in b.points]


def test_orbit_validation():
    alpha = parse_alpha("1.5", 128)
    with pytest.raises(ValueError):
        orbit(MON2, alpha, 0, DELTA)
    with pytest.raises(ValueError):
        orbit(MON2, alpha, 5, Fraction(1, 2))
    with pytest.raises(PrecisionOverflow):
        orbit(FACT, alpha, 25, DELTA)
    with pytest.raises(PrecisionOverflow):  # 13! needs ~3.6e9 bits
        orbit(FACT, alpha, 13, DELTA)


# ---------------------------------------------------------------------------
# the doubling retry of the shared walk (orbit, geomsum orbit, pow_frac)
# ---------------------------------------------------------------------------

ALPHA18 = parse_alpha("1.8", 128)
RETRY_CASES = ("monomial", "geomsum", "pow_frac")


def dyadic_frac_power(alpha: ExactReal, d: int) -> Fraction:
    """frac(alpha^d) for alpha = m/2^e is exactly (m^d mod 2^(ed)) / 2^(ed)."""
    m, e = alpha.num, -alpha.exp
    return Fraction(m**d % (1 << (e * d)), 1 << (e * d))


def _walked(case):
    if case == "monomial":
        return orbit(MON2, ALPHA18, 12, DELTA).points
    if case == "geomsum":
        return orbit(GEO2, ALPHA18, 6, DELTA).points
    return (pow_frac(ALPHA18, 144, DELTA),)


def _exact(case):
    if case == "monomial":
        return [dyadic_frac_power(ALPHA18, n * n) for n in range(1, 13)]
    if case == "geomsum":
        af = ALPHA18.as_fraction()
        return [geomsum_oracle(af, n * n) % 1 for n in range(1, 7)]
    return [dyadic_frac_power(ALPHA18, 144)]


def _replan(monkeypatch, plan):
    """Route every precision plan through `plan`; return the list that
    collects each enclosure too wide to certify."""
    planner, extract = hpreal.required_precision, hpreal.frac_point
    monkeypatch.setattr(hpreal, "required_precision",
                        lambda *args: plan(planner(*args)))
    failures = []

    def counted(ball, walk_plan):
        try:
            return extract(ball, walk_plan)
        except IndeterminateFrac:
            failures.append(ball)
            raise

    monkeypatch.setattr(hpreal, "frac_point", counted)
    return failures


@pytest.mark.parametrize("case", RETRY_CASES)
def test_undersized_plan_succeeds_after_one_doubling(monkeypatch, case):
    failures = _replan(monkeypatch, lambda bits: (bits + 1) // 2)
    points = _walked(case)
    assert len(failures) == 1  # the first walk failed, the doubled one held
    for got, want in zip(points, _exact(case), strict=True):
        assert got.error <= DELTA
        assert circle_dist(got.value, want) <= Fraction(got.error)


@pytest.mark.parametrize("case", RETRY_CASES)
def test_far_too_small_plan_raises_with_index(monkeypatch, case):
    failures = _replan(monkeypatch, lambda bits: 8)
    with pytest.raises(IndeterminateFrac) as info:
        _walked(case)
    assert info.value.index == 1
    assert len(failures) == 2


# ---------------------------------------------------------------------------
# the segmented walk: per-segment plans and retries, incremental gap powers
# ---------------------------------------------------------------------------


def _exps(family, N):
    return [d + 1 if family == GEO2 else d
            for d in (degree(family, n) for n in range(1, N + 1))]


def _oracle(family, n):
    if family == GEO2:
        return geomsum_oracle(ALPHA18.as_fraction(), n * n) % 1
    return dyadic_frac_power(ALPHA18, n * n)


def _layout(alpha, exps, geometric=False):
    """The (start, stop) index range of every segment of the walk's plan."""
    plan = hpreal._plan(alpha, exps, DELTA, geometric)
    return [(start, stop) for start, stop, _ in plan.segments]


@pytest.mark.parametrize("family", [MON2, GEO2])
def test_segmented_walk_encloses_the_exact_values(monkeypatch, family):
    # a 16-bit floor splits the 12 exponents at alpha = 1.8 into 5 segments
    monkeypatch.setattr(hpreal, "SEGMENT_FLOOR_BITS", 16)
    segments = _layout(ALPHA18, _exps(family, 12), family == GEO2)
    assert len(segments) >= 3
    assert segments[0][0] == 0 and segments[-1][1] == 12
    assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
    points = orbit(family, ALPHA18, 12, DELTA).points
    for n, got in enumerate(points, start=1):
        assert got.error <= DELTA
        assert circle_dist(got.value, _oracle(family, n)) <= Fraction(got.error)


def test_short_walk_is_one_segment():
    exps = _exps(MON2, 130)  # 130^2 * log2(1.8) < 2^14 integer bits
    assert _layout(ALPHA18, exps) == [(0, 130)]


def test_segment_layout_frozen():
    # monomial:k=2, alpha = 1.5, N = 1000: (start, stop, precision) per
    # segment; a change here changes the midpoints of every long orbit
    exps = _exps(MON2, 1000)
    plan = hpreal._plan(parse_alpha("1.5", 128), exps, DELTA, False)
    assert list(plan.segments) == [
        (0, 167, 16388), (167, 205, 24652), (205, 252, 37217),
        (252, 309, 55923), (309, 379, 84095), (379, 465, 126555),
        (465, 570, 190126), (570, 699, 285886), (699, 857, 429698),
        (857, 1000, 585035)]


def test_each_walk_takes_one_log2_of_alpha_and_one_tolerance(monkeypatch):
    # the plan derives every walk constant once: one log2 of alpha and one
    # ceil(log2(1/delta)) for all ten segments of this walk
    calls = {"log2": 0, "tol": 0}
    log2, tolerance = math.log2, hpreal._ceil_log2_inv

    def counted_log2(x):
        calls["log2"] += 1
        return log2(x)

    def counted_tolerance(x):
        calls["tol"] += 1
        return tolerance(x)

    monkeypatch.setattr(math, "log2", counted_log2)
    monkeypatch.setattr(hpreal, "_ceil_log2_inv", counted_tolerance)
    points = frac_walk(parse_alpha("1.5", 128), _exps(MON2, 1000), DELTA)
    assert len(points) == 1000 and points.den == 2**72
    assert calls == {"log2": 1, "tol": 1}


@pytest.mark.parametrize("text", ["1" + "0" * 400 + ".5",
                                  "1" + "0" * 400 + ".3"],
                         ids=["10^400+1/2", "10^400+0.3"])
@pytest.mark.parametrize("family, N", [(LIN, 30), (MON2, 12),
                                       (SequenceFamily("geomsum", 1), 30)],
                         ids=["linpow", "monomial", "geomsum"])
def test_orbit_past_the_float_range_matches_the_exact_values(family, N, text):
    # alpha past 2^1024, so past the float range; at 10^400 + 1/2 the
    # points are 2^-d, at 10^400 + 0.3 (on the 2^-128 grid) they spread
    alpha = parse_alpha(text, 128)
    assert float(alpha) == float("inf")
    geometric = family.kind == "geomsum"
    exps = [degree(family, n) for n in range(1, N + 1)]
    assert len(_layout(alpha, [d + geometric for d in exps])) > 1
    af = alpha.as_fraction()
    points = orbit(family, alpha, N, DELTA).points
    for d, got in zip(exps, points, strict=True):
        if geometric:
            want = geomsum_oracle(af, d) % 1
        else:
            want = dyadic_frac_power(alpha, d)
        assert got.error <= DELTA
        assert circle_dist(got.value, want) <= Fraction(got.error)


def _undersize_third_segment(monkeypatch, shrink):
    """Split the 12 monomial exponents at alpha = 1.8 into segments and pass
    only the third segment's plan through `shrink`; return the segments,
    the failed enclosures and the (first index, precision) of every walk."""
    monkeypatch.setattr(hpreal, "SEGMENT_FLOOR_BITS", 16)
    exps = _exps(MON2, 12)
    segments = _layout(ALPHA18, exps)
    start, stop = segments[2]
    assert stop - start > 1
    failures = _replan(monkeypatch, lambda bits: bits)
    planner = hpreal.required_precision
    monkeypatch.setattr(
        hpreal, "required_precision",
        lambda d, *rest: (shrink(planner(d, *rest)) if d == exps[stop - 1]
                          else planner(d, *rest)))
    walk, walks = hpreal._walk, []

    def recorded(base, exps, prec, plan, first):
        walks.append((first, prec))
        return walk(base, exps, prec, plan, first)

    monkeypatch.setattr(hpreal, "_walk", recorded)
    return segments, failures, walks


def test_undersized_later_segment_is_retried_alone(monkeypatch):
    segments, failures, walks = _undersize_third_segment(
        monkeypatch, lambda bits: (bits + 1) // 2)
    points = orbit(MON2, ALPHA18, 12, DELTA).points
    for n, got in enumerate(points, start=1):
        assert circle_dist(got.value, _oracle(MON2, n)) <= Fraction(got.error)
    assert len(failures) == 1
    starts = [first for first, _ in segments]
    assert [first for first, _ in walks] == starts[:3] + starts[2:]
    assert walks[3][1] == 2 * walks[2][1]  # the one retry doubles its plan


def test_far_too_small_later_segment_raises_with_global_index(monkeypatch):
    segments, failures, walks = _undersize_third_segment(monkeypatch,
                                                         lambda bits: 8)
    with pytest.raises(IndeterminateFrac) as info:
        orbit(MON2, ALPHA18, 12, DELTA)
    start = segments[2][0]
    assert info.value.index == start + 1  # the orbit's 1-based index
    assert len(failures) == 2
    assert walks[2:] == [(start, 8), (start, 16)]


def test_every_segment_is_planned_before_any_multiply(monkeypatch):
    monkeypatch.setattr(hpreal, "SEGMENT_FLOOR_BITS", 16)
    segments = _layout(ALPHA18, _exps(MON2, 12))
    planner, events = hpreal.required_precision, []

    def planned(d, *rest):
        events.append("plan")
        return planner(d, *rest)

    def multiplied(*args):
        events.append("mul")
        raise AssertionError("multiply before the last plan")

    monkeypatch.setattr(hpreal, "required_precision", planned)
    monkeypatch.setattr(hpreal, "ball_mul", multiplied)
    with pytest.raises(AssertionError):
        orbit(MON2, ALPHA18, 12, DELTA)
    assert events == ["plan"] * len(segments) + ["mul"]
    # and a segment beyond the budget stops the walk before its first multiply
    monkeypatch.setattr(hpreal, "required_precision", planner)
    with pytest.raises(PrecisionOverflow):
        orbit(FACT, ALPHA18, 13, DELTA)


def test_pow_frac_plan_is_the_binary_exponentiation_of_the_degree(monkeypatch):
    planner, plans, pows = hpreal.required_precision, [], []
    power = hpreal.ball_pow

    def planned(*args):
        plans.append(args)
        return planner(*args)

    def powered(base, d, prec):
        pows.append((d, prec))
        return power(base, d, prec)

    monkeypatch.setattr(hpreal, "required_precision", planned)
    monkeypatch.setattr(hpreal, "ball_pow", powered)
    for d in (1, 144, 10**5):
        plans.clear()
        pows.clear()
        pow_frac(ALPHA18, d, DELTA)
        # one plan: the rounding slack 2 plus 2*bitlen(d) + 1 multiplies,
        # at the log2 bound of alpha and 40 = ceil(log2(1/DELTA)) bits
        assert plans == [(d, ALPHA18.log2_upper(), 40,
                          2 + 2 * d.bit_length() + 1)]
        assert pows == [(d, planner(*plans[0]))]


@pytest.mark.parametrize("prec", [64, 4096])
def test_gap_powers_are_reused_and_grown_inside_a_segment(monkeypatch, prec):
    base = hpreal.Ball.from_exact(ALPHA18)
    pows = []
    power = hpreal.ball_pow

    def powered(b, d, p):
        pows.append(d)
        return power(b, d, p)

    monkeypatch.setattr(hpreal, "ball_pow", powered)
    exps = [1, 4, 9, 16, 20, 24, 28, 60]  # gaps 1, 3, 5, 7, 4, 4, 4, 32
    plan = hpreal._plan(ALPHA18, exps, Fraction(1, 4), False)
    walked = hpreal._walk(base, exps, prec, plan, 0)
    # 3 < 2*1 fails: fresh; 5 and 7 grow by alpha^2; 4 is fresh, then reused
    assert pows == [1, 3, 2, 2, 4, 32]
    den = 1 << plan.keep  # the walk's points are over 2^keep
    for e, (num, err) in zip(exps, walked, strict=True):
        got = Fraction(num, den)
        assert circle_dist(got, dyadic_frac_power(ALPHA18, e)) <= Fraction(err)


# ---------------------------------------------------------------------------
# segments on threads: the same points, the same failures, no thread left
# ---------------------------------------------------------------------------


@pytest.fixture
def helpers(monkeypatch):
    """The helper threads that walks start, listed as they start.  Two
    usable CPUs, whatever this host allows, and a seam multiply that is not
    CPython's own (which keeps a walk serial), so threads=2 starts one."""
    monkeypatch.setattr(hpreal, "_usable_cpus", lambda: 2)
    mul = hpreal._mul
    monkeypatch.setattr(hpreal, "_mul", lambda a, b: mul(a, b))
    started, thread = [], threading.Thread

    class Counted(thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("family, alpha, N", [
    (MON2, parse_alpha("1.5", 128), 600),
    (GEO2, ALPHA18, 200),
    (FACT, ALPHA18, 9),
    (LIN, ALPHA18, 1000),
], ids=["monomial", "geomsum", "factorial", "linpow"])
def test_threaded_walk_is_byte_identical(helpers, family, alpha, N):
    exps = _exps(family, N)
    segments = len(_layout(alpha, exps))
    assert (segments == 1) == (family == LIN)
    before = threading.active_count()
    serial, threaded = (frac_walk(alpha, exps, DELTA, geometric=family == GEO2,
                                  threads=threads) for threads in (1, 2))
    assert threaded == serial
    assert len(helpers) == (0 if segments == 1 else 1)
    assert threading.active_count() == before


def test_threaded_walk_raises_what_the_serial_walk_raises(monkeypatch,
                                                         helpers):
    segments, failures, walks = _undersize_third_segment(monkeypatch,
                                                         lambda bits: 8)
    before = threading.active_count()
    raised = []
    for threads in (1, 2):
        with pytest.raises(IndeterminateFrac) as info:
            orbit(MON2, ALPHA18, 12, DELTA, threads=threads)
        raised.append((str(info.value), info.value.index))
    assert raised[1] == raised[0]
    assert raised[0][1] == segments[2][0] + 1
    assert len(helpers) == 1
    assert threading.active_count() == before
    # the serial walk stops at the third segment and its retry; the
    # threaded one walks every segment, and the third fails twice again
    starts = [first for first, _ in segments]
    assert len(failures) == 4
    assert [first for first, _ in walks[:4]] == starts[:3] + starts[2:3]
    assert sorted(first for first, _ in walks[4:]) == sorted(starts
                                                             + starts[2:3])


def test_threaded_walk_raises_the_first_of_several_failures(monkeypatch,
                                                           helpers):
    # every segment fails, the last one first in time: the walk still
    # raises the first segment's failure, as the serial walk does
    monkeypatch.setattr(hpreal, "SEGMENT_FLOOR_BITS", 16)
    failures = _replan(monkeypatch, lambda bits: 8)
    raised = []
    for threads in (1, 2):
        with pytest.raises(IndeterminateFrac) as info:
            orbit(MON2, ALPHA18, 12, DELTA, threads=threads)
        raised.append((str(info.value), info.value.index))
    assert raised == [raised[0]] * 2 and raised[0][1] == 1
    segments = _layout(ALPHA18, _exps(MON2, 12))
    assert len(failures) == 2 + 2 * len(segments)


def test_threaded_retry_is_alone(monkeypatch, helpers):
    segments, failures, walks = _undersize_third_segment(
        monkeypatch, lambda bits: (bits + 1) // 2)
    points = orbit(MON2, ALPHA18, 12, DELTA, threads=2).points
    for n, got in enumerate(points, start=1):
        assert circle_dist(got.value, _oracle(MON2, n)) <= Fraction(got.error)
    assert len(helpers) == 1 and len(failures) == 1
    starts = [first for first, _ in segments]
    assert sorted(first for first, _ in walks) == sorted(starts + starts[2:3])
    third = [prec for first, prec in walks if first == starts[2]]
    assert third[1] == 2 * third[0]  # the one retry doubles its plan


# ---------------------------------------------------------------------------
# the interval [a, b]
# ---------------------------------------------------------------------------

def test_interval_validation():
    IntervalSpec(1.1, 1.2)
    for a, b in ((1, 2), (0.5, 2), (2, 2), (3, 2)):
        with pytest.raises(ValueError):
            IntervalSpec(a, b)
    IntervalSpec(1.5, 1e308)
    with pytest.raises(ValueError, match="b must be within the float range"):
        IntervalSpec(1.5, Fraction(10**400))


# ---------------------------------------------------------------------------
# differences
# ---------------------------------------------------------------------------


def _direct_difference(fam, x, n1, n2):
    """f_{n2}(x) - f_{n1}(x) straight from the family's definition."""
    d1, d2 = degree(fam, n1), degree(fam, n2)
    if fam.kind == "geomsum":
        return (x ** (d2 + 1) - x ** (d1 + 1)) / (x - 1)
    return x**d2 - x**d1


def test_diff_value_geomsum_example():
    # (1.5^5 - 1.5^2) / 0.5 = 10.6875 = x^4 + x^3 + x^2 at x = 1.5
    x = Fraction(3, 2)
    v = DifferenceMap(GEO2, 1, 2).value(x)
    assert v == x**4 + x**3 + x**2 == Fraction(171, 16)


def test_diff_value_monomial():
    assert DifferenceMap(MON2, 1, 2).value(Fraction(2)) == 2**4 - 2**1
    assert DifferenceMap(FACT, 2, 3).value(1.5) == 1.5**6 - 1.5**2


def test_diff_derivative_finite_difference_oracle():
    h = 1e-6
    for fam, n1, n2 in ((MON2, 2, 5), (GEO2, 1, 3), (LIN, 3, 9), (FACT, 2, 4)):
        g = DifferenceMap(fam, n1, n2)
        for x in (1.3, 1.7, 2.4):
            want = (_direct_difference(fam, x + h, n1, n2)
                    - _direct_difference(fam, x - h, n1, n2)) / (2 * h)
            assert g.derivative(x) == pytest.approx(want, rel=1e-6)


def test_geomsum_slope_over_is_the_exact_derivative():
    # g' = sum of j x^(j-1) for j = d1+1 .. d2, over a reduced and a scaled
    # denominator
    for n1, n2 in ((1, 2), (2, 3), (1, 4)):
        g = DifferenceMap(GEO2, n1, n2)
        for x in (Fraction(3, 2), Fraction(11, 10), Fraction(123457, 65536)):
            want = sum(j * x ** (j - 1) for j in range(g.d1 + 1, g.d2 + 1))
            for s in (1, 6):
                num, den = g.slope_over(s * x.denominator)
                X = s * x.numerator
                assert Fraction(num(X), den(X)) == want, (n1, n2, x, s)


def test_scaled_forms_match_raw_ratios():
    for fam, n1, n2 in ((MON2, 1, 3), (GEO2, 2, 4), (LIN, 5, 11), (FACT, 2, 5)):
        g = DifferenceMap(fam, n1, n2)
        d2 = degree(fam, n2)
        for x in (1.25, 1.8, 2.6):
            lead = x**d2
            d, ratio = g.lead(x)
            assert d == d2
            assert ratio == pytest.approx(
                _direct_difference(fam, x, n1, n2) / lead, rel=1e-12)
            assert g.derivative_over_lead(x) == pytest.approx(
                g.derivative(x) / (d2 * lead), rel=1e-12)


def test_scaled_forms_stable_at_huge_degree():
    # raw values overflow floats here; the scaled forms must not
    g = DifferenceMap(FACT, 9, 10)
    _, v = g.lead(1.5)
    dv = g.derivative_over_lead(1.5)
    assert 0.99 <= v <= 1.0
    assert 0.6 < dv < 0.7  # ~ 1/x


def test_kronecker_differences_rejected():
    with pytest.raises(FamilyError, match="kronecker differences"):
        DifferenceMap(KRON, 1, 2)
    with pytest.raises(ValueError, match="need 1 <= n1 < n2"):
        DifferenceMap(MON2, 3, 3)
    with pytest.raises(ValueError, match="need 1 <= n1 < n2"):
        DifferenceMap(MON2, 0, 2)
