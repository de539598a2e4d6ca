"""Certified-arithmetic tests against exact rational oracles.

The oracle throughout: a parsed alpha is an exact dyadic A/2^b, so alpha^d and
its fractional part are exactly computable with fractions.Fraction.  Every
certified result must enclose the oracle value within its reported error.
"""

import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import ppclab
from ppclab import hpreal
from ppclab.hpreal import (
    Ball,
    ExactReal,
    IndeterminateFrac,
    PrecisionOverflow,
    UnitPoint,
    ball_pow,
    LITERAL_EXP_CAP,
    check_delta,
    check_float,
    check_literal,
    frac_point,
    frac_walk,
    parse_alpha,
    pow_frac,
    required_precision,
    round_alpha,
)


def _radius(r: tuple[int, int]) -> Fraction:
    man, exp = r
    return Fraction(man) * Fraction(2) ** exp


def _mid(x: Ball) -> Fraction:
    return Fraction(int(x.man)) * Fraction(2) ** x.exp


def circle_dist(x, y) -> Fraction:
    """Distance to the nearest integer of x - y, exact."""
    d = abs(Fraction(x) - Fraction(y)) % 1
    return min(d, 1 - d)


def exact_frac_power(alpha: Fraction, d: int) -> Fraction:
    """Independent oracle: frac(alpha^d) by exact rational arithmetic."""
    v = alpha**d
    return v - (v.numerator // v.denominator)


# ---------------------------------------------------------------------------
# parse_alpha
# ---------------------------------------------------------------------------


def test_parse_exact_dyadic_no_rounding():
    a = parse_alpha("1.5", 128)
    assert a.as_fraction() == Fraction(3, 2)
    assert (a.num, a.exp) == (3, -1)


def test_parse_nearest_dyadic_ties_even():
    a = parse_alpha("1.8", 128)
    expected = Fraction(round(Fraction(9, 5) * 2**128), 2**128)
    assert a.as_fraction() == expected
    assert abs(a.as_fraction() - Fraction(9, 5)) <= Fraction(1, 2**129)


def test_parse_tie_rounds_to_even_mantissa():
    # 1 + 3/512 scaled by 2^8 is 257.5, exactly between grid points: round to 258
    a = parse_alpha("1.005859375", 8)
    assert a.as_fraction() == Fraction(258, 256)


def test_parse_rejections():
    with pytest.raises(ValueError):
        parse_alpha("1.0", 128)
    with pytest.raises(ValueError):
        parse_alpha("0.5", 128)
    with pytest.raises(ValueError):
        parse_alpha("not-a-number", 128)
    with pytest.raises(ValueError):
        parse_alpha("1.5", 7)
    # rounds down onto 1 at coarse grid
    with pytest.raises(ValueError):
        parse_alpha("1.0000000001", 8)


def test_check_delta():
    assert check_delta("1/1099511627776") == Fraction(1, 2**40)
    assert check_delta(0.1) == Fraction(0.1)
    for bad in (0, -1e-9, Fraction(1, 4), 0.3, "1e999"):
        with pytest.raises(ValueError):
            check_delta(bad)


def test_check_float_is_the_float_range_rule():
    # 2^1024 - 2^971 is the largest float; 2^1024 - 2^970, halfway to 2^1024,
    # is below it too, but its float rounds (to even) past the range
    for value in (Fraction(0), Fraction(3, 2), Fraction(-1, 3),
                  Fraction(1, 10**300), Fraction(2**1024 - 2**971)):
        assert check_float(value, "x") == float(value)
    for value in (Fraction(1, 10**400), Fraction(-1, 10**400),
                  Fraction(10**400), Fraction(2**1024 - 2**970)):
        with pytest.raises(ValueError,
                           match=r"\Ax must be within the float range\Z"):
            check_float(value, "x")


def test_check_literal_bounds_the_decimal_exponent():
    assert check_literal("3/2") == Fraction(3, 2)
    assert check_literal(" 2.5e-3 ") == Fraction(1, 400)
    assert check_literal("1e%d" % LITERAL_EXP_CAP) == 10**LITERAL_EXP_CAP
    assert check_literal("1e-%d" % LITERAL_EXP_CAP) == Fraction(1, 10**LITERAL_EXP_CAP)
    # each of these would take Fraction(text) minutes, or more, if it ran
    for text in ("1e%d" % (LITERAL_EXP_CAP + 1), "1e999999999",
                 "1.5e-999999999", "0e999999999",
                 "1e9999999999999999999999999"):
        with pytest.raises(ValueError, match="exponent|not a number"):
            check_literal(text)
        with pytest.raises(ValueError):
            parse_alpha(text, 128)
    for text in ("frogs", "1/0", "nan", "inf", "1e5/3", ""):
        with pytest.raises(ValueError, match="not a number"):
            check_literal(text)


def test_exactreal_from_fraction_of_a_float_is_exact():
    x = ExactReal.from_fraction(Fraction(1.7))
    assert x.as_fraction() == Fraction(1.7)


def test_exactreal_float_is_the_float_of_its_value():
    # second-moment node 0 on [1.5, 1e308] at K = 2: a 1025-bit mantissa
    node = ExactReal.from_fraction(Fraction(25 * 10**306) + Fraction(9, 8))
    assert node.num.bit_length() == 1025
    assert float(node) == float(node.as_fraction()) == 2.5e307
    rng = random.Random(7)
    for _ in range(200):
        num = rng.getrandbits(rng.randrange(1, 1200)) | 1
        x = ExactReal(num, rng.randrange(-1300, 100) - num.bit_length())
        assert float(x) == float(x.as_fraction())
        if num.bit_length() <= 1024 and float(x) >= 2.0**-1022:
            # below 2^1024 bits the float is the one math.ldexp gives
            assert float(x) == math.ldexp(x.num, x.exp)
    # past 2^1024 the float stays infinite, also for a value that only
    # rounds up to 2^1024
    for x in (ExactReal(1, 1024), ExactReal(2**1025 + 1, -1),
              ExactReal(2**1200 - 1, -176)):
        assert float(x) == math.inf and float(ExactReal(-x.num, x.exp)) == -math.inf


def test_round_alpha_is_the_text_route_without_text():
    rng = random.Random(20)
    tie = 1 + Fraction(1, 2**129)  # halfway between 1 and the next grid point
    xs = [tie, tie + Fraction(1, 2**200), 1 + Fraction(1, 2**130),
          1 + Fraction(3, 2**129), Fraction(3, 2), Fraction(10**400 + 1, 3)]
    xs += [Fraction(2 * rng.randrange(2**128, 2**131) + 1, 2**129)  # ties
           for _ in range(100)]
    xs += [1 + Fraction(rng.randrange(1, 10**30), rng.randrange(1, 10**30))
           for _ in range(200)]
    for x in xs:
        scaled = round(x * 2**128)
        if scaled <= 2**128:
            for route in (lambda: round_alpha(x, 128),
                          lambda: parse_alpha(str(x), 128)):
                with pytest.raises(ValueError, match=r"^alpha rounds to a "
                                   r"value <= 1 at 128 bits$"):
                    route()
            continue
        got = round_alpha(x, 128)
        assert got.as_fraction() == Fraction(scaled, 2**128)
        assert got == parse_alpha(str(x), 128)
    assert round_alpha(1 + Fraction(3, 2**129), 128).as_fraction() == (
        1 + Fraction(1, 2**127))  # the tie goes to the even grid point
    with pytest.raises(ValueError, match="^bits must be >= 8, got 7$"):
        round_alpha(Fraction(3, 2), 7)


# ---------------------------------------------------------------------------
# required_precision
# ---------------------------------------------------------------------------


def test_required_precision_frozen_values():
    assert required_precision(1, 2, Fraction(1, 2**53), 1) == 71
    assert required_precision(40320, 2, Fraction(1, 2**64), 32) == 40406
    assert required_precision(10**6, 1.6, Fraction(1, 2**40), 2000) == 678139


def test_required_precision_overflow_reject():
    with pytest.raises(PrecisionOverflow):
        required_precision(2**62, 4.0, Fraction(1, 2**20), 8)
    # the budget is PREC_BUDGET_BITS = 2^30: 12! at 1.9 fits, 13! does not
    assert required_precision(math.factorial(12), 1.9, Fraction(1, 2**40), 100) < 2**30
    with pytest.raises(PrecisionOverflow):
        required_precision(math.factorial(13), 1.9, Fraction(1, 2**40), 100)
    with pytest.raises(PrecisionOverflow):  # degree beyond the float range
        required_precision(2**2000, 1.5, Fraction(1, 2**40), 8)
    # a degree beyond str()'s 4300 digits is named by its size
    with pytest.raises(PrecisionOverflow, match=r"degree above 2\^20000 "):
        required_precision(2**20000, 1.5, Fraction(1, 2**40), 8)


def test_frac_walk_rejects_bad_input_before_any_multiply(monkeypatch):
    # the planner's inputs are checked once, by frac_walk, before any plan
    def never(*args):
        raise AssertionError("planned or multiplied before the input rules")

    for name in ("required_precision", "ball_mul", "ball_pow", "_mul"):
        monkeypatch.setattr(hpreal, name, never)
    alpha, delta = parse_alpha("1.5", 64), Fraction(1, 2**40)
    with pytest.raises(AssertionError):  # valid input reaches the sentinel
        frac_walk(alpha, [3, 5], delta)
    for low in (Fraction(1), Fraction(3, 4)):
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            frac_walk(ExactReal.from_fraction(low), [3], delta)
    for exps in ([0, 3], [-2], [], [3, 3], [5, 3]):
        with pytest.raises(ValueError, match="exponents must be >= 1"):
            frac_walk(alpha, exps, delta)
    for bad in (0, -delta, Fraction(1, 4), Fraction(1, 2), 1):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1/4\)"):
            frac_walk(alpha, [3], bad)


# ---------------------------------------------------------------------------
# pow_frac
# ---------------------------------------------------------------------------


def test_pow_frac_exact_small_cases():
    a32 = parse_alpha("1.5", 128)
    p = pow_frac(a32, 2, Fraction(1, 2**30))
    assert p.value == Fraction(1, 4) and p.error == 0.0

    two = parse_alpha("2", 128)
    p = pow_frac(two, 10, Fraction(1, 2**30))
    assert p.value == 0 and p.error == 0.0

    p = pow_frac(a32, 5, Fraction(1, 2**30))
    assert p.value == Fraction(0.59375) and p.error == 0.0


def test_pow_frac_matches_rational_oracle():
    alpha = parse_alpha("1.8", 128)
    exact = alpha.as_fraction()
    delta = Fraction(1, 2**40)
    for d in [1, 2, 3, 7, 50, 997, 10**4]:
        got = pow_frac(alpha, d, delta)
        want = exact_frac_power(exact, d)
        assert got.error <= delta
        assert circle_dist(got.value, want) <= Fraction(got.error)


def test_pow_frac_monotone_refinement():
    # halving delta moves the answer by at most the old delta
    alpha = parse_alpha("1.8", 128)
    d = 5000
    delta = Fraction(1, 2**35)
    a = pow_frac(alpha, d, delta)
    b = pow_frac(alpha, d, delta / 2)
    assert circle_dist(a.value, b.value) <= delta


def test_pow_frac_deterministic():
    alpha = parse_alpha("1.795831523312", 128)
    x = pow_frac(alpha, 1234, Fraction(1, 2**44))
    y = pow_frac(alpha, 1234, Fraction(1, 2**44))
    assert x.value == y.value and x.error == y.error


def test_pow_frac_validation():
    alpha = parse_alpha("1.5", 128)
    with pytest.raises(ValueError):
        pow_frac(alpha, 0, Fraction(1, 8))
    with pytest.raises(ValueError):
        pow_frac(alpha, 3, Fraction(1, 2))  # delta >= 1/4


def test_ball_soundness_recompute_at_double_precision():
    # a 2x-precision recomputation must land inside the coarser enclosure
    alpha = parse_alpha("1.8", 128)
    d = 10**4
    prec = required_precision(d, alpha.upper_float(), Fraction(1, 2**40), 2 * d.bit_length())
    coarse = ball_pow(Ball.from_exact(alpha), d, prec)
    fine = ball_pow(Ball.from_exact(alpha), d, 2 * prec)
    mid_gap = abs(_mid(coarse) - _mid(fine))
    rad = _radius(coarse.rad)
    fine_rad = _radius(fine.rad)
    assert mid_gap + fine_rad <= rad


def test_frac_point_raises_when_radius_exceeds_delta():
    wide = Ball(5, -3, (1, -4))  # 0.625 +- 2^-4
    with pytest.raises(IndeterminateFrac):
        frac_point(wide, Fraction(1, 2**10))


def _checked_frac_point(ball, delta):
    """frac_point's numerator over 2^keep and error, computed from delta
    alone."""
    delta = Fraction(delta)
    keep = max(64, math.ceil(math.log2(1 / delta)) + 32)
    frac = _mid(ball) % 1
    num = math.floor(frac * 2**keep)
    truncated = -ball.exp > keep
    rad = hpreal._r_float(hpreal._r_add(ball.rad, (1, -keep)) if truncated
                          else ball.rad)
    if Fraction(rad) > delta:
        rad = float(delta)
    return num, rad


def test_frac_point_takes_each_call_its_own_tolerance():
    # a walk at delta1 leaves frac_point's constants at delta1; later calls
    # with another delta must use that delta's bound and keep bits
    delta1, delta2 = Fraction(1, 2**10), Fraction(1, 2**100)
    pow_frac(parse_alpha("1.5", 128), 40, delta1)
    mid = Ball((8 << 200) - 1, -200)  # 7 + (1 - 2^-200)
    wide = Ball(mid.man, mid.exp, (1, -50))  # radius between delta2 and delta1
    for delta in (delta1, Fraction(1, 2**10), 2.0**-10, 1e-9):
        assert frac_point(wide, delta) == _checked_frac_point(wide, delta)
    for delta in (delta2, Fraction(1, 2**100), 2.0**-100):
        with pytest.raises(IndeterminateFrac):
            frac_point(wide, delta)
        got = frac_point(mid, delta)
        assert got == _checked_frac_point(mid, delta)
        assert got[0] == 2**132 - 1  # 1 - 2^-200 kept to 132 bits
    # a radius right at delta: the float nudge is clamped to delta itself
    for delta in (Fraction(1, 2**30), 2.0**-30):
        assert frac_point(Ball(1, -40, (1, -30)), delta)[1] == 2.0**-30
    assert frac_point(mid, delta1)[0] == 2**64 - 1


def test_frac_point_error_is_the_radius_clamped_to_delta():
    # radii one float ulp below delta, for deltas whose float lies above or
    # below them: the outward nudge of the largest one passes delta, and the
    # reported error is then float(delta); 53-bit radius mantissas reach
    # that close, so these radii are wider than _r_norm would keep
    clamped = 0
    for k in range(3, 60):
        for delta in (Fraction(1, 10**k), Fraction(2, 3 * 10**k)):
            e = delta.numerator.bit_length() - delta.denominator.bit_length() - 53
            top = (delta.numerator << -e) // delta.denominator
            if top >= 2**53:
                e, top = e + 1, top >> 1
            for man in (top, top - 1):
                ball = Ball(1, -2, (man, e))
                assert _radius(ball.rad) <= delta
                err = frac_point(ball, delta)[1]
                assert err == _checked_frac_point(ball, delta)[1]
                clamped += err == float(delta)
    assert clamped >= 100


def test_unitpoint_validation():
    for bad in (Fraction(3, 2), Fraction(-1, 2), Fraction(1), 1.0, -0.5):
        with pytest.raises(ValueError):
            UnitPoint(bad, 0.0)
    with pytest.raises(ValueError):
        UnitPoint(Fraction(1, 2), -1e-9)
    assert UnitPoint(Fraction(0), 0.0).value == 0
    assert UnitPoint(0.5, 0.0).value == 0.5


def test_circle_dist_wraps():
    assert circle_dist(Fraction(1, 10), Fraction(9, 10)) == Fraction(1, 5)
    assert circle_dist(Fraction(1, 2), Fraction(1, 2)) == 0


def test_importing_hpreal_loads_no_other_ppclab_module():
    # the package exports only __version__, so the arithmetic layer loads
    # neither the rest of the library nor multiprocessing
    probe = ("import json, sys, ppclab.hpreal; print(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] in "
             "('ppclab', 'multiprocessing'))))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(ppclab.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == ["ppclab", "ppclab.hpreal"]


def test_an_installed_gmpy2_changes_no_mantissa_type(tmp_path):
    # a gmpy2 first on the path is neither imported nor used: mantissas stay
    # int and the backend is libgmp or CPython's int
    (tmp_path / "gmpy2.py").write_text("class mpz(int):\n    pass\n")
    probe = ("import json, sys, ppclab.cli\n"
             "from ppclab.hpreal import MUL_BACKEND, Ball, ball_mul\n"
             "print(json.dumps(['gmpy2' in sys.modules, MUL_BACKEND,\n"
             "    type(ball_mul(Ball(3, 0), Ball(5, 0), 64).man) is int]))")
    src = os.path.dirname(os.path.dirname(ppclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    loaded, backend, man_is_int = json.loads(done.stdout)
    assert not loaded
    assert backend != "gmpy2"
    assert man_is_int


def test_mul_seam_falls_back_to_int_without_libgmp(monkeypatch):
    def missing(name):
        raise OSError("%s: cannot open shared object file" % name)

    monkeypatch.setattr(hpreal.ctypes, "CDLL", missing)
    assert hpreal._load_libgmp() is None
    mul, backend = hpreal._select_mul()
    assert mul is operator.mul
    assert backend == "python int"


@pytest.mark.parametrize("mul", [hpreal._mul, operator.mul],
                         ids=["seam", "python-int"])
def test_int_pow_is_the_power_on_both_sides_of_the_threshold(monkeypatch,
                                                              mul):
    # below _GMP_LARGER_BITS the power is CPython's; from it on, every
    # product goes through the multiply seam
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(hpreal, "_mul", counted)
    T = hpreal._GMP_LARGER_BITS
    for x in (193, -193, 2**61 - 1, 3**2000):
        bits = x.bit_length()
        for d in (0, 1, 2, T // bits - 1, T // bits, T // bits + 1,
                  3 * T // bits + 5):
            calls.clear()
            assert hpreal.int_pow(x, d) == x**d, (x, d)
            assert bool(calls) == (d * bits >= T), (x, d)


def test_int_pow_budget_boundary(monkeypatch):
    # x^d has at most d*bits(x) bits: at the budget the power is taken,
    # one bit past it PrecisionOverflow is raised
    monkeypatch.setattr(hpreal, "PREC_BUDGET_BITS", 6000)
    for x in (5, -5, 3**100):
        d = 6000 // x.bit_length()
        assert d * x.bit_length() <= 6000 < (d + 1) * x.bit_length()
        assert hpreal.int_pow(x, d) == x**d
        with pytest.raises(PrecisionOverflow, match="exceeds 6000 bits"):
            hpreal.int_pow(x, d + 1)


def test_int_pow_past_the_budget_runs_no_multiply(monkeypatch):
    def never(a, b):
        raise AssertionError("a multiply ran before the budget check")

    monkeypatch.setattr(hpreal, "_mul", never)
    budget = hpreal.PREC_BUDGET_BITS
    for x, d in ((3, budget // 2 + 1), (2**100 + 1, 10**8), (7, 10**12)):
        with pytest.raises(PrecisionOverflow, match="of degree %d of a " % d):
            hpreal.int_pow(x, d)
    # a degree past 1000 bits is named by its bit size
    with pytest.raises(PrecisionOverflow, match=r"degree above 2\^2000 "):
        hpreal.int_pow(3, 1 << 2000)
