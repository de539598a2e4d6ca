import json
import math
import random
from fractions import Fraction

import pytest

from ppclab.families import diff_value, parse_family
from ppclab.hypothesis import IntervalSpec
from ppclab.measure import (
    CircleInterval,
    DifferenceMap,
    LevelCapExceeded,
    NonMonotone,
    PowerMap,
    _invert,
    lemma_bounds_check,
    level_set_measure,
    measure_to_json,
)

TOL = Fraction(1, 10**9)
AB = IntervalSpec(Fraction("1.1"), Fraction("1.2"))


# ---------------------------------------------------------------------------
# circle intervals
# ---------------------------------------------------------------------------

def test_circle_interval_arc():
    arc = CircleInterval.arc(Fraction(1, 4), Fraction(3, 4))
    assert arc.length == Fraction(1, 2)
    assert arc.pieces() == [(Fraction(1, 4), Fraction(3, 4))]
    with pytest.raises(ValueError):
        CircleInterval.arc(Fraction(3, 4), Fraction(1, 4))
    with pytest.raises(ValueError):
        CircleInterval.arc(Fraction(1, 4), Fraction(1, 4))


def test_circle_interval_wrap():
    w = CircleInterval.wrap(Fraction(9, 10), Fraction(1, 10))
    assert w.length == Fraction(1, 5)
    assert len(w.pieces()) == 2
    with pytest.raises(ValueError):
        CircleInterval.wrap(Fraction(1, 10), Fraction(9, 10))


# ---------------------------------------------------------------------------
# level-set measure against square-root oracles
# ---------------------------------------------------------------------------

def test_full_circle_target_gives_width():
    res = level_set_measure(PowerMap(2), AB, CircleInterval.arc(0, 1), TOL)
    assert res.measure == pytest.approx(0.1, abs=1e-15)
    assert res.residual == 0.0
    assert res.derivative_at_a == pytest.approx(2.2, rel=1e-15)


def test_quarter_arc_sqrt_oracle():
    res = level_set_measure(PowerMap(2), AB, CircleInterval.arc(0, Fraction(1, 4)), TOL)
    oracle = math.sqrt(1.25) - 1.1
    assert res.measure == pytest.approx(oracle, abs=10e-9)
    assert res.measure == pytest.approx(0.0180340, abs=1e-6)


def test_interior_arc_sqrt_oracle():
    res = level_set_measure(
        PowerMap(2), AB, CircleInterval.arc(Fraction(3, 10), Fraction(2, 5)), TOL
    )
    oracle = math.sqrt(1.4) - math.sqrt(1.3)
    assert res.measure == pytest.approx(oracle, abs=10e-9)
    assert res.measure == pytest.approx(0.0430405, abs=1e-6)


def test_wrap_target_sqrt_oracle():
    res = level_set_measure(
        PowerMap(2), AB, CircleInterval.wrap(Fraction(9, 10), Fraction(3, 10)), TOL
    )
    oracle = math.sqrt(1.3) - 1.1
    assert res.measure == pytest.approx(oracle, abs=10e-9)


def _root_oracle(d, interval, c, d_hi):
    """Closed-form measure for g = x^d via d-th roots."""
    ga = float(interval.a) ** d
    gb = float(interval.b) ** d
    total = 0.0
    for M in range(math.floor(ga), math.ceil(gb) + 1):
        lo = max(ga, M + float(c))
        hi = min(gb, M + float(d_hi))
        if lo < hi:
            total += hi ** (1.0 / d) - lo ** (1.0 / d)
    return total


def test_power_maps_match_root_oracle():
    wide = IntervalSpec(Fraction("1.1"), Fraction("1.3"))
    target = CircleInterval.arc(Fraction(1, 8), Fraction(5, 8))
    for d in range(2, 13):
        res = level_set_measure(PowerMap(d), wide, target, TOL)
        oracle = _root_oracle(d, wide, Fraction(1, 8), Fraction(5, 8))
        assert res.measure == pytest.approx(oracle, abs=10e-9), d


def test_riemann_grid_cross_check():
    wide = IntervalSpec(Fraction("1.1"), Fraction("1.3"))
    target = CircleInterval.arc(Fraction(3, 10), Fraction(2, 5))
    a, b = 1.1, 1.3
    n = 10**6
    for d in (2, 5):
        res = level_set_measure(PowerMap(d), wide, target, TOL)
        # the midpoint rule over n equal cells
        hits = sum(0.3 <= (a + (i + 0.5) * (b - a) / n) ** d % 1.0 <= 0.4
                   for i in range(n))
        est = hits / n * (b - a)
        assert abs(res.measure - est) <= 3e-6 + 1e-9, d


def test_additivity_on_disjoint_arcs():
    arcs = [
        CircleInterval.arc(Fraction(1, 10), Fraction(1, 5)),
        CircleInterval.arc(Fraction(1, 5), Fraction(7, 20)),
        CircleInterval.arc(Fraction(1, 10), Fraction(7, 20)),
    ]
    g = PowerMap(3)
    m1, m2, m12 = (level_set_measure(g, AB, t, TOL).measure for t in arcs)
    assert m1 + m2 == pytest.approx(m12, abs=2e-9)


def test_difference_map_measure():
    fam = parse_family("linpow")
    g = DifferenceMap(fam, 1, 2)  # x^2 - x, increasing on (1, inf)
    res = level_set_measure(
        g, AB, CircleInterval.arc(Fraction(3, 20), Fraction(1, 5)), TOL
    )
    lo = (1 + math.sqrt(1 + 4 * 0.15)) / 2
    hi = (1 + math.sqrt(1 + 4 * 0.20)) / 2
    assert res.measure == pytest.approx(hi - lo, abs=10e-9)
    assert res.derivative_at_a == pytest.approx(2 * 1.1 - 1, rel=1e-12)


def test_measure_invariants():
    res = level_set_measure(
        PowerMap(4), AB, CircleInterval.arc(Fraction(1, 3), Fraction(2, 3)), TOL
    )
    assert 0.0 <= res.measure <= 0.1 + 1e-15
    total = sum(iv.right - iv.left for iv in res.intervals)
    assert res.measure == pytest.approx(total, abs=1e-9)
    assert res.residual == pytest.approx(res.measure - res.main_term, abs=1e-15)


# ---------------------------------------------------------------------------
# the integer bisection against a Fraction bisection
# ---------------------------------------------------------------------------

EQUIV_MAPS = (
    PowerMap(7),
    DifferenceMap(parse_family("linpow"), 3, 12),
    DifferenceMap(parse_family("monomial:k=2"), 1, 2),
    DifferenceMap(parse_family("factorial"), 2, 3),
    DifferenceMap(parse_family("geomsum:k=2"), 1, 2),
)
EQUIV_IDS = ("power-7", "linpow", "monomial-k2", "factorial", "geomsum-k2")
EQUIV_INTERVALS = (AB, IntervalSpec(Fraction(3, 2), Fraction(7, 4)))


def _fraction_invert(g, lo, hi, y, iters):
    """The bisection on Fractions, step for step as _invert decides."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if g.value(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("g", EQUIV_MAPS, ids=EQUIV_IDS)
def test_integer_bisection_matches_fraction_bisection(g):
    rng = random.Random(20261020)
    for interval in EQUIV_INTERVALS:
        a, b = interval.a, interval.b
        ga, gb = g.value(a), g.value(b)
        ys = [ga, gb] + [ga + (gb - ga) * Fraction(rng.randrange(1, 10**6), 10**6)
                         for _ in range(3)]
        # values at bisection midpoints, where a step compares equal
        ys += [g.value(a + (b - a) * t) for t in (Fraction(1, 2), Fraction(3, 8))]
        for iters in (60, 100):
            for y in ys:
                got = _invert(g, a, b, y, iters)
                assert got == _fraction_invert(g, a, b, y, iters), (y, iters)
                assert type(got) is Fraction


GRID = (Fraction(11, 10), Fraction(3, 2), Fraction(123457, 65536),
        Fraction(7, 3))


def test_power_map_form_is_the_power():
    for x in GRID:
        assert Fraction(*PowerMap(7).form(x.numerator, x.denominator)) == x**7
        assert PowerMap(7).value(x) == x**7


@pytest.mark.parametrize("g", EQUIV_MAPS[1:], ids=EQUIV_IDS[1:])
def test_integer_form_is_the_difference_value(g):
    for x in GRID:
        num, den = g.form(x.numerator, x.denominator)
        assert den > 0
        assert Fraction(num, den) == diff_value(g.family, x, g.n1, g.n2)
        assert g.value(x) == diff_value(g.family, x, g.n1, g.n2)
        # the same point over a scaled denominator gives the same value
        num, den = g.form(6 * x.numerator, 6 * x.denominator)
        assert Fraction(num, den) == g.value(x)


# ---------------------------------------------------------------------------
# lemma bound records
# ---------------------------------------------------------------------------

def test_lemma_bounds_quarter_arc():
    target = CircleInterval.arc(0, Fraction(1, 4))
    res = level_set_measure(PowerMap(2), AB, target, TOL)
    rec = lemma_bounds_check(res, target)
    assert rec.lower_main == pytest.approx(0.25 * 0.1 / 1.25, rel=1e-12)
    assert rec.upper_main == pytest.approx(0.25 * 0.1 / 0.75, rel=1e-12)
    assert rec.residual_scaled == pytest.approx(0.0613, abs=2e-4)


def test_lemma_bounds_full_interval():
    target = CircleInterval.arc(0, 1)
    res = level_set_measure(PowerMap(2), AB, target, TOL)
    rec = lemma_bounds_check(res, target)
    assert rec.lower_main == pytest.approx(0.05, rel=1e-12)
    assert rec.upper_main == math.inf
    assert rec.residual_scaled == 0.0


def test_residual_scaled_bounded_across_degrees():
    # the scaled residual oscillates with the phase of g(a), g(b) against
    # integer levels; it stays bounded and must match the root oracle
    target = CircleInterval.arc(0, Fraction(1, 4))
    for d in range(2, 13):
        res = level_set_measure(PowerMap(d), AB, target, TOL)
        scaled = lemma_bounds_check(res, target).residual_scaled
        assert scaled <= 1.0, d
        oracle_measure = _root_oracle(d, AB, 0, Fraction(1, 4))
        oracle_scaled = abs(oracle_measure - 0.025) * d * 1.1 ** (d - 1) / 0.25
        assert scaled == pytest.approx(oracle_scaled, abs=1e-5), d


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_level_cap():
    wide = IntervalSpec(Fraction("1.1"), Fraction("1.3"))
    with pytest.raises(LevelCapExceeded):
        level_set_measure(PowerMap(120), wide, CircleInterval.arc(0, 1), TOL)
    # 1.2^78 - 1.1^78 is about 1.5e6 levels: inside the float pre-check's
    # factor-2 margin, so the exact level count rejects it
    with pytest.raises(LevelCapExceeded):
        level_set_measure(PowerMap(78), AB, CircleInterval.arc(0, 1), TOL)


def test_level_cap_rejects_far_degrees_before_exact_powers(monkeypatch):
    def never(self, x):
        raise AssertionError("exact value computed past the cap")

    monkeypatch.setattr(PowerMap, "value", never)
    monkeypatch.setattr(DifferenceMap, "value", never)
    target = CircleInterval.arc(0, Fraction(1, 4))
    far = (PowerMap(56000), PowerMap(10**9), PowerMap(2**2000),
           DifferenceMap(parse_family("monomial:k=30"), 1, 2),
           DifferenceMap(parse_family("geomsum:k=30"), 1, 2),
           DifferenceMap(parse_family("monomial:k=1100"), 1, 2))
    for g in far:
        with pytest.raises(LevelCapExceeded):
            level_set_measure(g, AB, target, TOL)


class _Decreasing:
    def value(self, x):
        return 2 - Fraction(x)

    def derivative(self, x):
        return -1.0

    def lead(self, x):
        return 0, 2 - x


def test_non_monotone_detected():
    with pytest.raises(NonMonotone):
        level_set_measure(_Decreasing(), AB, CircleInterval.arc(0, 1), TOL)


def test_tol_validation():
    target = CircleInterval.arc(0, Fraction(1, 2))
    for bad in (0, -1, Fraction(1, 10**5), 1e-5, Fraction(1, 10**31),
                Fraction(1, 10**400)):
        with pytest.raises(ValueError):
            level_set_measure(PowerMap(2), AB, target, bad)
    level_set_measure(PowerMap(2), AB, target, Fraction(1, 10**6))
    level_set_measure(PowerMap(2), AB, target, Fraction(1, 10**30))


def test_power_map_validation():
    with pytest.raises(ValueError):
        PowerMap(0)


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------

def test_measure_json():
    target = CircleInterval.arc(0, Fraction(1, 4))
    res = level_set_measure(PowerMap(2), AB, target, TOL)
    doc = measure_to_json(res, target)
    back = json.loads(json.dumps(doc))
    assert back["schema"] == "measure-result v1"
    assert set(back) == {"schema", "measure", "main_term", "residual",
                         "derivative_at_a", "intervals", "tol",
                         "lemma_bounds"}
    assert back["measure"] == res.measure
    assert back["intervals"][0].keys() == {"M", "left", "right"}
