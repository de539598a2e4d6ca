import json
import math
import random
from fractions import Fraction

import pytest

from ppclab import hypothesis
from ppclab.families import DifferenceMap, IntervalSpec, degree, parse_family
from ppclab.hpreal import PrecisionOverflow
from ppclab.hypothesis import (
    FAILS,
    GRID_SIZE_CAP,
    HOLDS,
    N2_VERIFY_CAP,
    N_MAX_CAP,
    SAMPLED,
    SAMPLED_DEGREE_CAP,
    SKIPPED,
    _condition1,
    _condition2,
    _condition5,
    _constants,
    _scan_violations,
    check_hypotheses,
    condition5_lhs,
    report_to_json,
)

AB = IntervalSpec(1.5, 2)


# ---------------------------------------------------------------------------
# conditions 1 and 2
# ---------------------------------------------------------------------------

def test_condition1():
    assert _condition1(parse_family("monomial:k=2"), 100).status == HOLDS
    assert _condition1(parse_family("factorial"), 10).status == HOLDS
    v = _condition1(parse_family("kronecker"), 100)
    assert v.status == FAILS
    assert "deg" in v.witness["reason"]


def test_condition2():
    assert _condition2(parse_family("monomial:k=2"), AB, 10, 64).status == HOLDS
    assert _condition2(parse_family("linpow"), AB, 10, 64).status == HOLDS
    assert _condition2(parse_family("factorial"), AB, 8, 64).status == HOLDS
    v = _condition2(parse_family("geomsum:k=2"), AB, 8, 64)
    assert v.status == SAMPLED
    assert v.witness == {"grid_size": 64, "n_max": 8}


class _ConcaveStub:
    """Exact forms over Q of g(x) = -x^3/3, concave, with g'(x) = x/3."""

    def __init__(self, family, n1, n2):
        pass

    def over(self, Q):
        return (lambda X: -X**3), 3 * Q**3

    def slope_over(self, Q):
        return (lambda X: X), (lambda X: 3 * Q)


class _FallingStub(_ConcaveStub):
    """g'(x) = -7x/3, negative on the grid."""

    def slope_over(self, Q):
        return (lambda X: -7 * X), (lambda X: 3 * Q)


def test_condition2_fails_with_the_floats_of_exact_values(monkeypatch):
    # stub maps force both fails branches; each witness float must be
    # float() of the exact Fraction at the grid point
    iv = IntervalSpec(Fraction(11, 10), Fraction(13, 7))
    xs = [iv.a + i * (iv.b - iv.a) / 4 for i in range(5)]
    geo = parse_family("geomsum:k=2")
    monkeypatch.setattr(hypothesis, "DifferenceMap", _FallingStub)
    v = _condition2(geo, iv, 2, 5)
    assert v.status == FAILS
    assert v.witness == {"n1": 1, "n2": 2, "x": float(xs[0]),
                         "derivative": float(-7 * xs[0] / 3)}
    monkeypatch.setattr(hypothesis, "DifferenceMap", _ConcaveStub)
    v = _condition2(geo, iv, 2, 5)
    g = [-x**3 / 3 for x in xs]
    assert v.status == FAILS
    assert v.witness == {"n1": 1, "n2": 2, "x": float(xs[1]),
                         "second_difference": float(g[0] - 2 * g[1] + g[2])}


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_monomial_constants_closed_form():
    _, _, c, C = _constants(parse_family("monomial:k=2"), AB, 1.5, 10, 64)
    assert C == 3.0
    assert c == pytest.approx(1.0 / 6.0, rel=1e-15)
    _, _, _, C23 = _constants(parse_family("monomial:k=2"), IntervalSpec(2, 3),
                              2.0, 10, 64)
    assert C23 == 2.0


def test_monomial_grid_ratios_inside_certified_envelope():
    fam = parse_family("monomial:k=2")
    lo = 1.0 - 1.0 / 1.5
    for n1 in range(1, 10):
        for n2 in range(n1 + 1, 11):
            for i in range(64):
                x = 1.5 + i * 0.5 / 63
                _, r = DifferenceMap(fam, n1, n2).lead(x)
                assert lo - 1e-12 <= r <= 1.0 + 1e-12


def test_grid_constants_match_direct_minimization():
    fam = parse_family("linpow")
    _, _, c, C = _constants(fam, AB, 1.5, 6, 16)
    assert c > 0
    assert C > 1
    # direct recomputation from raw difference formulas at small degrees
    xs = [1.5 + i * 0.5 / 15 for i in range(16)]
    best_c = math.inf
    best_r = 1.0
    for n1 in range(1, 6):
        for n2 in range(n1 + 1, 7):
            for x in xs:
                lead = n2 * x**n2
                der = (n2 * x ** (n2 - 1) - n1 * x ** (n1 - 1)) / lead
                ratio = (x**n2 - x**n1) / x**n2
                best_c = min(best_c, der)
                best_r = max(best_r, ratio, 1.0 / ratio)
    assert c == pytest.approx(best_c * 0.99, rel=1e-12)
    assert C == pytest.approx(best_r * 1.01, rel=1e-12)


def test_constants_and_n1_reject_an_a_that_rounds_to_one(monkeypatch):
    import ppclab.hypothesis as hyp

    def never(*args):
        raise AssertionError("condition (1) ran before the float(a) check")

    # 1 < a exactly, but float(a) == 1.0 and the constants divide by a - 1
    monkeypatch.setattr(hyp, "_condition1", never)
    near_one = IntervalSpec("1.00000000000000000001", 2)
    for fam in ("monomial:k=2", "geomsum:k=1", "linpow"):
        with pytest.raises(ValueError, match="a must exceed 1 as a float"):
            check_hypotheses(parse_family(fam), near_one, n1_search_max=20,
                             n2_verify_max=40)


def test_constants_reject_kronecker(monkeypatch):
    import ppclab.hypothesis as hyp

    def never(*args):
        raise AssertionError("constants estimated for kronecker")

    monkeypatch.setattr(hyp, "_constants", never)
    monkeypatch.setattr(hyp, "_condition5", never)
    rep = check_hypotheses(parse_family("kronecker"), AB, grid_size=16)
    assert [v.status for v in rep.conditions[2:]] == [SKIPPED] * 3
    assert rep.c_ab is None and rep.C_ab is None


# ---------------------------------------------------------------------------
# condition (5)
# ---------------------------------------------------------------------------

def test_condition5_lhs_frozen_example():
    lhs = condition5_lhs(4, 9, 2.0, 1.5)
    assert lhs == pytest.approx(-2.0216785372314427, abs=1e-12)
    # independent regrouping of the same expression
    alt = (3.5 * math.log(2) - 5 * math.log(1.5)
           - math.log(9) - math.log(9 / 4 - 1))
    assert lhs == pytest.approx(alt, abs=1e-12)
    # with n2 = 3 the inequality fails
    assert lhs > -3 * math.log(3)


def test_condition5_lhs_large_gap():
    lhs = condition5_lhs(4, 10000, 2.0, 1.5)
    assert -606 < lhs < -604
    assert lhs <= -3 * math.log(100)


def test_condition5_lhs_rejections():
    with pytest.raises(ValueError):
        condition5_lhs(5, 5, 2.0, 1.5)
    with pytest.raises(ValueError):
        condition5_lhs(9, 4, 2.0, 1.5)
    with pytest.raises(ValueError):
        condition5_lhs(0, 4, 2.0, 1.5)
    with pytest.raises(ValueError):
        condition5_lhs(1, 4, 1.0, 1.5)
    with pytest.raises(ValueError):
        condition5_lhs(1, 4, 2.0, 1.0)


def test_condition5_base_invariance():
    rng = random.Random(424242)
    for _ in range(1000):
        d1 = rng.randint(1, 50)
        d2 = d1 + rng.randint(1, 100)
        C = 1.01 + 4 * rng.random()
        a = 1.1 + 2 * rng.random()
        n2 = rng.randint(2, 1000)
        nat = condition5_lhs(d1, d2, C, a) <= -3 * math.log(n2)
        growth = d2 / d1
        lhs2 = ((2 * growth - 1) * math.log2(C) + (d1 - d2) * math.log2(a)
                - math.log2(d2 * (growth - 1)))
        base2 = lhs2 <= -3 * math.log2(n2)
        assert nat == base2


def _plain_scan(family, C, a, n2_max):
    """_scan_violations as a double loop over the public condition5_lhs."""
    worst_gap, witness, last_bad = -math.inf, None, 0
    for n1 in range(1, n2_max):
        for n2 in range(n1 + 1, n2_max + 1):
            d1, d2 = degree(family, n1), degree(family, n2)
            lhs = condition5_lhs(d1, d2, C, a)
            rhs = -3.0 * math.log(n2)
            if lhs > rhs:
                last_bad = n1
                if lhs - rhs > worst_gap:
                    worst_gap = lhs - rhs
                    witness = {"n1": n1, "n2": n2, "d1": d1, "d2": d2,
                               "lhs": lhs, "rhs": rhs, "C": C, "a": a}
    return last_bad, witness


@pytest.mark.parametrize("spec, n2_max, C, a, last_bad", [
    ("linpow", 60, 1.01, 1e6, 0),
    ("linpow", 60, 1.01, 1.0001, 59),
    ("monomial:k=2", 60, 1.01, 1.5, 0),
    ("monomial:k=2", 60, 100.0, 1.5, 12),
    ("monomial:k=2", 60, 1.01, 1.0001, 59),
    ("factorial", 20, 1.01, 10.0, 0),
    ("factorial", 20, 100.0, 1.5, 4),
    ("geomsum:k=1", 60, 1.01, 1e6, 0),
    ("geomsum:k=1", 60, 1.01, 1.0001, 59),
])
def test_scan_is_the_plain_double_loop(spec, n2_max, C, a, last_bad):
    # the same last_bad and witness, floats compared with ==
    family = parse_family(spec)
    got = _scan_violations(family, C, a, n2_max)
    assert got == _plain_scan(family, C, a, n2_max)
    assert got[0] == last_bad


def test_find_n1_monomial_certified():
    v, N1 = _condition5(parse_family("monomial:k=2"), 1.5, 3.0, 200, 500)
    assert N1 is not None
    assert v.status == HOLDS
    assert 2 <= N1 <= 20
    # minimality: the index below N1 sees a violation somewhere
    fam = parse_family("monomial:k=2")
    n1 = N1 - 1
    assert any(
        condition5_lhs(degree(fam, n1), degree(fam, n2), 3.0, 1.5)
        > -3 * math.log(n2)
        for n2 in range(n1 + 1, 501)
    ) or degree(fam, n1) < 2 * math.log(3.0) / math.log(1.5)
    # certificate replay: every start >= N1 is clean in the verified range
    for a in range(N1, 60):
        da = degree(fam, a)
        for b in range(a + 1, 120):
            lhs = condition5_lhs(da, degree(fam, b), 3.0, 1.5)
            assert lhs <= -3 * math.log(b)


def test_find_n1_factorial():
    fam = parse_family("factorial")
    _, _, _, C = _constants(fam, AB, 1.5, 8, 32)
    v, N1 = _condition5(fam, 1.5, C, 10, 12)
    assert N1 is not None
    assert v.status == HOLDS


def test_find_n1_linpow_fails_with_replayable_witness():
    v, N1 = _condition5(parse_family("linpow"), 1.5, 2.5, 200, 500)
    assert N1 is None
    w = v.witness
    assert w is not None
    lhs = condition5_lhs(w["d1"], w["d2"], w["C"], w["a"])
    assert lhs == pytest.approx(w["lhs"], rel=1e-12)
    assert lhs > w["rhs"]
    assert w["rhs"] == pytest.approx(-3 * math.log(w["n2"]), rel=1e-12)


def test_find_n1_geomsum_flagged_not_certified():
    v, N1 = _condition5(parse_family("geomsum:k=2"), 1.5, 3.0, 200, 120)
    assert N1 is not None
    assert v.status == SAMPLED
    assert "only" in v.witness["note"]


def test_find_n1_rejects_kronecker_and_bad_bounds(monkeypatch):
    import ppclab.hypothesis as hyp

    def never(*args):
        raise AssertionError("condition (5) ran")

    monkeypatch.setattr(hyp, "_condition5", never)
    rep = check_hypotheses(parse_family("kronecker"), AB, n1_search_max=10,
                           n2_verify_max=11)
    assert rep.conditions[4].status == SKIPPED and rep.N1 is None
    with pytest.raises(ValueError, match="need 2 <= n1_search_max"):
        check_hypotheses(parse_family("linpow"), AB, n1_search_max=1,
                         n2_verify_max=10)


def test_find_n1_scan_leaves_the_float_range_before_the_degree_cap():
    # monomial:k=400: d_6 = 6^400 has 1034 bits, past the float range, while
    # d_35 is the first degree past families.DEGREE_CAP_BITS; the scan's
    # first row stops at n2 = 6, before it reaches that degree
    with pytest.raises(PrecisionOverflow,
                       match=r"condition \(5\) at degrees of 1 and 1034 bits"):
        _condition5(parse_family("monomial:k=400"), 1.5, 3.0, 200, 500)


# ---------------------------------------------------------------------------
# full reports
# ---------------------------------------------------------------------------

def test_report_rejects_bad_bounds_before_condition_one(monkeypatch):
    import ppclab.hypothesis as hyp

    def never(*args):
        raise AssertionError("condition (1) ran before the bounds check")

    monkeypatch.setattr(hyp, "_condition1", never)
    for fam in ("monomial:k=2", "kronecker"):
        for bounds in ({"n1_search_max": 1}, {"n_max": 1}, {"grid_size": 2},
                       {"n1_search_max": 50, "n2_verify_max": 50},
                       {"n_max": N_MAX_CAP + 1}, {"n_max": 100_000_000},
                       {"grid_size": GRID_SIZE_CAP + 1},
                       {"grid_size": 100_000_000}):
            with pytest.raises(ValueError, match="must be|need 2"):
                check_hypotheses(parse_family(fam), AB, **bounds)
        # 1 < a exactly, but float(a) == 1.0
        near_one = IntervalSpec("1.00000000000000000001", 2)
        with pytest.raises(ValueError, match="a must exceed 1 as a float"):
            check_hypotheses(parse_family(fam), near_one)


def test_report_caps_the_condition5_scan(monkeypatch):
    import ppclab.hypothesis as hyp

    def never(*args):
        raise AssertionError("condition (1) ran before the bounds check")

    assert N2_VERIFY_CAP > 500  # the default n2_verify_max
    monkeypatch.setattr(hyp, "_condition1", never)
    for n2 in (N2_VERIFY_CAP + 1, 100_000_000):
        with pytest.raises(ValueError, match="n2_verify_max <= %d" % N2_VERIFY_CAP):
            check_hypotheses(parse_family("linpow"), AB, n2_verify_max=n2)


def test_report_caps_the_geomsum_sampled_degree(monkeypatch):
    import ppclab.hypothesis as hyp

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(hyp, "_condition1", reached)
    assert 2**10 + 1 == SAMPLED_DEGREE_CAP
    # at the cap, and monomial (closed-form condition (2)) at any degree
    for spec, n_max in (("geomsum:k=10", 2), ("geomsum:k=3", 10),
                        ("geomsum:k=2", N_MAX_CAP), ("monomial:k=30", 8)):
        with pytest.raises(Reached):
            check_hypotheses(parse_family(spec), AB, n_max=n_max)
    for spec, n_max in (("geomsum:k=11", 2), ("geomsum:k=3", 11),
                        ("geomsum:k=10", 8), ("geomsum:k=" + "9" * 30, 2)):
        with pytest.raises(ValueError, match="above %d" % SAMPLED_DEGREE_CAP):
            check_hypotheses(parse_family(spec), AB, n_max=n_max)


def test_report_monomial_all_holds():
    rep = check_hypotheses(parse_family("monomial:k=2"), AB)
    assert [v.status for v in rep.conditions] == [HOLDS] * 5
    assert rep.c_ab == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert rep.C_ab == 3.0
    assert isinstance(rep.N1, int)


def test_report_linpow_condition5_fails():
    rep = check_hypotheses(parse_family("linpow"), AB)
    statuses = [v.status for v in rep.conditions]
    assert statuses[0] == HOLDS
    assert statuses[1] == HOLDS
    assert statuses[4] == FAILS
    assert rep.conditions[4].witness is not None
    assert rep.N1 is None


def test_report_kronecker_condition1_fails_rest_skipped():
    rep = check_hypotheses(parse_family("kronecker"), AB)
    statuses = [v.status for v in rep.conditions]
    assert statuses == [FAILS, SKIPPED, SKIPPED, SKIPPED, SKIPPED]
    assert rep.c_ab is None and rep.C_ab is None and rep.N1 is None


def test_report_geomsum_sampled():
    rep = check_hypotheses(parse_family("geomsum:k=2"), AB, n_max=6,
                           grid_size=32, n1_search_max=60, n2_verify_max=80)
    statuses = [v.status for v in rep.conditions]
    assert statuses[0] == HOLDS
    assert statuses[1] == SAMPLED
    assert statuses[2] == SAMPLED
    assert statuses[3] == SAMPLED
    assert statuses[4] == SAMPLED
    assert rep.N1 is not None


@pytest.mark.parametrize("method, bound, v3, v4", [
    ("lead", "value", SKIPPED, FAILS),
    ("derivative_over_lead", "derivative", FAILS, SKIPPED),
])
@pytest.mark.parametrize("spec, v2", [("linpow", HOLDS),
                                      ("geomsum:k=2", SAMPLED)])
def test_report_without_constants(monkeypatch, method, bound, v3, v4, spec,
                                  v2):
    # a nonpositive grid ratio for the pair (2, 3) leaves no constants: the
    # bound it breaks fails, the other bound and condition (5) are skipped
    real = getattr(DifferenceMap, method)

    def stub(self, x):
        out = real(self, x)
        if (self.n1, self.n2) != (2, 3):
            return out
        return (out[0], -1.0) if method == "lead" else -1.0

    monkeypatch.setattr(DifferenceMap, method, stub)
    rep = check_hypotheses(parse_family(spec), AB)
    assert [v.status for v in rep.conditions] == [HOLDS, v2, v3, v4, SKIPPED]
    failed = rep.conditions[2 if v3 == FAILS else 3]
    skipped = rep.conditions[3 if v3 == FAILS else 2]
    assert failed.witness["bound"] == bound
    assert (failed.witness["n1"], failed.witness["n2"]) == (2, 3)
    assert failed.witness["ratio"] == -1.0
    assert skipped.witness == rep.conditions[4].witness == {
        "reason": "constants unavailable"}
    assert rep.c_ab is None and rep.C_ab is None and rep.N1 is None


def test_report_factorial_condition5_holds():
    rep = check_hypotheses(parse_family("factorial"), AB, n_max=8,
                           n1_search_max=10, n2_verify_max=12)
    assert rep.conditions[4].status == HOLDS
    assert isinstance(rep.N1, int)


def test_report_json_schema():
    rep = check_hypotheses(parse_family("monomial:k=2"), AB)
    doc = report_to_json(rep)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["schema"] == "hypothesis-report v1"
    assert back["family"] == "monomial:k=2"
    assert back["a"] == 1.5 and back["b"] == 2.0
    assert len(back["conditions"]) == 5
    assert all("status" in c for c in back["conditions"])
    assert back["N1"] == rep.N1
    assert back["bounds"]["n2_verify_max"] == 500
    parse_family(back["family"])
