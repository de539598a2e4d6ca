"""Property tests: every certified enclosure contains the exact rational value.

For a dyadic alpha = m/2^e every power is an exact rational, so the certified
walk and the ball operations can be checked against exact arithmetic on
random inputs rather than on a handful of frozen cases.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ppclab import hpreal
from ppclab.families import degree, orbit, parse_family
from ppclab.hpreal import (
    Ball,
    ExactReal,
    IndeterminateFrac,
    _R_ZERO,
    _ceil_log2_inv,
    _r_add,
    _r_float,
    _r_leq,
    _r_mul,
    _r_norm,
    ball_div_exact,
    ball_mul,
    ball_sub_int,
    frac_point,
    frac_walk,
)

_WALK = settings(max_examples=100, deadline=None, derandomize=True)
_BALL = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def dyadic_alphas(draw) -> tuple[int, int]:
    """(m, e) with 1 < m/2^e < 4, often just above 1, where dividing by
    alpha - 1 magnifies the error most."""
    e = draw(st.integers(1, 24))
    m = (1 << e) + draw(st.integers(1, 8) | st.integers(1, (3 << e) - 1))
    return m, e


exponent_lists = st.lists(st.integers(1, 10**4), min_size=1, max_size=6,
                          unique=True).map(sorted)
deltas = st.integers(10, 60).map(lambda k: Fraction(1, 1 << k))


def _encloses(point, num: int, den: int) -> bool:
    """Circle distance of point.value to num/den is <= point.error.

    Integer arithmetic only: the exact values have ~10^5-bit denominators,
    where reducing a Fraction would cost more than the walk.
    """
    a, q = point.value.numerator, point.value.denominator
    gap = (a * den - num * q) % (q * den)
    gap = min(gap, q * den - gap)
    err = Fraction(point.error)
    return gap * err.denominator <= err.numerator * q * den


@_WALK
@given(dyadic_alphas(), exponent_lists, deltas)
def test_frac_walk_points_enclose_exact_powers(me, exps, delta):
    m, e = me
    points = frac_walk(ExactReal.from_fraction(Fraction(m, 1 << e)), exps,
                       delta)
    assert len(points) == len(exps)
    for d, p in zip(exps, points):
        # frac(alpha^d) = (m^d mod 2^(ed)) / 2^(ed)
        assert p.error <= delta
        assert _encloses(p, pow(m, d, 1 << (e * d)), 1 << (e * d))


@_WALK
@given(dyadic_alphas(), exponent_lists, deltas)
def test_geometric_walk_points_enclose_exact_sums(me, exps, delta):
    m, e = me
    points = frac_walk(ExactReal.from_fraction(Fraction(m, 1 << e)), exps,
                       delta, geometric=True)
    for d, p in zip(exps, points):
        # (alpha^d - 1)/(alpha - 1) = (m^d - 2^(ed)) / (2^(e(d-1)) (m - 2^e))
        den = (m - (1 << e)) << (e * (d - 1))
        assert p.error <= delta
        assert _encloses(p, (m**d - (1 << (e * d))) % den, den)


# ---------------------------------------------------------------------------
# ball operations on random enclosures
# ---------------------------------------------------------------------------

def _radius(r: tuple[int, int]) -> Fraction:
    man, exp = r
    return Fraction(man) * Fraction(2) ** exp


def _mid(x: Ball) -> Fraction:
    return Fraction(int(x.man)) * Fraction(2) ** x.exp


def _contains(ball: Ball, value: Fraction) -> bool:
    return abs(value - _mid(ball)) <= _radius(ball.rad)


@st.composite
def balls_with_member(draw) -> tuple[Ball, Fraction]:
    """A random ball and an exact value inside it (endpoints included)."""
    man = draw(st.integers(-(1 << 300), 1 << 300))
    exp = draw(st.integers(-300, 300))
    rad = _r_norm(draw(st.integers(0, 1 << 40)), draw(st.integers(-340, 300)))
    ball = Ball(man, exp, rad)
    t = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)])
             | st.fractions(min_value=-1, max_value=1, max_denominator=1 << 20))
    return ball, _mid(ball) + t * _radius(rad)


precisions = st.integers(8, 256)


@_BALL
@given(balls_with_member(), balls_with_member(), precisions)
def test_ball_mul_encloses_products(xb, yb, prec):
    (x, xv), (y, yv) = xb, yb
    assert _contains(ball_mul(x, y, prec), xv * yv)


@_BALL
@given(balls_with_member(), st.integers(-(1 << 200), 1 << 200), precisions)
def test_ball_sub_int_encloses_differences(xb, k, prec):
    x, xv = xb
    assert _contains(ball_sub_int(x, k, prec), xv - k)


@_BALL
@given(balls_with_member(), st.integers(1, 1 << 200),
       st.integers(-200, 200), precisions)
def test_ball_div_exact_encloses_quotients(xb, num, exp, prec):
    x, xv = xb
    y = ExactReal.from_fraction(Fraction(num) * Fraction(2) ** exp)
    assert _contains(ball_div_exact(x, y, prec), xv / y.as_fraction())


@_BALL
@given(st.integers(0, 1 << 80), st.integers(-400, 400),
       st.integers(0, 1 << 80), st.integers(-400, 400))
def test_radius_sum_is_an_upper_bound(m1, e1, m2, e2):
    r1, r2 = _r_norm(m1, e1), _r_norm(m2, e2)
    assert _radius(_r_add(r1, r2)) >= _radius(r1) + _radius(r2)


# ---------------------------------------------------------------------------
# radius fast paths against the plain composition of the radius helpers
# ---------------------------------------------------------------------------

def _ref_rounded(man, exp, rad, prec):
    """_rounded through _r_add, as (man, exp, rad)."""
    neg = man < 0
    a = -man if neg else man
    sh = a.bit_length() - prec
    if sh <= 0:
        return man, exp, rad
    rem = a & ((1 << sh) - 1)
    a >>= sh
    if rem:
        half = 1 << (sh - 1)
        if rem > half or (rem == half and (a & 1)):
            a += 1
        rad = _r_add(rad, (1, exp + sh - 1))
    exp += sh
    if a and not (a & 1):
        tz = (a & -a).bit_length() - 1
        a >>= tz
        exp += tz
    return -a if neg else a, exp, rad


def _ref_ball_mul(x, y, prec):
    """ball_mul through _r_norm, _r_mul and _r_add, with no memo."""
    mx, my = _r_norm(abs(x.man), x.exp), _r_norm(abs(y.man), y.exp)
    if x.rad[0] and y.rad[0]:
        rad = _r_add(_r_mul(mx, y.rad), _r_mul(my, x.rad))
        rad = _r_add(rad, _r_mul(x.rad, y.rad))
    elif x.rad[0]:
        rad = _r_mul(my, x.rad)
    elif y.rad[0]:
        rad = _r_mul(mx, y.rad)
    else:
        rad = _R_ZERO
    return _ref_rounded(x.man * y.man, x.exp + y.exp, rad, prec)


def _ref_frac_point(ball, delta):
    """frac_point through _r_add, _r_leq and _r_float; None where it
    raises IndeterminateFrac."""
    keep = max(64, _ceil_log2_inv(delta) + 32)
    rad = ball.rad
    drop = -ball.exp - keep
    if ball.exp >= 0:
        num = 0
    elif drop > 0:
        num = (ball.man >> drop) & ((1 << keep) - 1)
        rad = _r_add(rad, (1, -keep))
    else:
        num = (ball.man & ((1 << -ball.exp) - 1)) << -drop
    if not _r_leq(rad, delta):
        return None
    return num, min(_r_float(rad), float(delta))


def _triple(ball):
    return ball.man, ball.exp, ball.rad


# radius exponents at a gap of -100..100 from a reference exponent, so that
# _r_add's absorption (gap > 64) is reached from both sides; mantissas are
# zero, short, or at and past _r_norm's 32 bits
gaps = st.integers(-100, 100) | st.sampled_from((-66, -65, -64, 63, 64, 65))
rad_mans = st.just(0) | st.integers(1, 8) | st.integers(1, 1 << 34)


def _radius_near(draw, e: int) -> tuple[int, int]:
    man = draw(rad_mans)
    return _R_ZERO if man == 0 else (man, e + draw(gaps))


@_BALL
@given(st.integers(-(1 << 300), 1 << 300), st.integers(-300, 300),
       st.data(), precisions)
def test_rounded_matches_the_radius_helpers(man, exp, data, prec):
    # the half ulp is 2^(exp + sh - 1), sh the bits dropped
    sh = max(1, abs(man).bit_length() - prec)
    rad = _radius_near(data.draw, exp + sh - 1)
    assert _triple(hpreal._rounded(man, exp, rad, prec)) == _ref_rounded(
        man, exp, rad, prec)


@st.composite
def balls_near(draw) -> Ball:
    """A ball of either sign whose radius is zero or lies within a factor
    2^100 of its mantissa's unit 2^exp."""
    man = draw(st.integers(-(1 << 200), 1 << 200))
    exp = draw(st.integers(-300, 300))
    return Ball(man, exp, _radius_near(draw, exp))


@_BALL
@given(balls_near(), balls_near(), precisions)
def test_ball_mul_matches_the_radius_helpers(x, y, prec):
    want = _ref_ball_mul(x, y, prec)
    # twice: the second product reads both magnitudes from the memo
    assert _triple(ball_mul(x, y, prec)) == want
    assert _triple(ball_mul(x, y, prec)) == want


@_BALL
@given(st.integers(0, 1 << 300), st.integers(-400, 10), st.integers(10, 200),
       st.data())
def test_frac_point_matches_the_radius_helpers(man, exp, k, data):
    delta = Fraction(1, 3 << k)
    keep = max(64, _ceil_log2_inv(delta) + 32)
    # near the truncation's 2^-keep; from k = 30 on, a 32-bit radius there
    # is also next to delta
    ball = Ball(man, exp, _radius_near(data.draw, -keep))
    want = _ref_frac_point(ball, delta)
    plan = hpreal._plan(ExactReal(3, -1), [1], delta, False)
    assert plan.keep == keep
    try:
        got = frac_point(ball, plan)
    except IndeterminateFrac:
        got = None
    assert got == want


@_BALL
@given(st.integers(0, 1 << 34), st.integers(-400, 400), gaps)
def test_radius_add_of_a_power_of_two_is_r_add(man, e, gap):
    r = _r_norm(man, e + gap)
    assert hpreal._r_add_pow2(r, e) == _r_add(r, (1, e))


# the seam is the libgmp route wherever the library loads, else plain *
_EDGE_BITS = (1, 63, 64, 65, 128, 20000) + tuple(
    t + d for t in (hpreal._GMP_SMALLER_BITS, hpreal._GMP_LARGER_BITS)
    for d in (-65, -64, -1, 0, 1))


@st.composite
def mantissas(draw) -> int:
    """Zero, or a signed integer of a size at a 64-bit limb boundary or at
    the libgmp threshold: random, all ones, or a power of two."""
    if draw(st.integers(0, 15)) == 0:
        return 0
    bits = draw(st.sampled_from(_EDGE_BITS))
    shape = draw(st.sampled_from(("random", "ones", "power")))
    if shape == "ones":
        mag = (1 << bits) - 1
    elif shape == "power":
        mag = 1 << (bits - 1)
    else:
        mag = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return draw(st.sampled_from((1, -1))) * mag


@_BALL
@given(mantissas(), mantissas(), st.booleans())
def test_mul_seam_is_the_exact_product(a, b, square):
    if square:
        b = a  # the same object, as in ball_pow's squarings
    assert hpreal._mul(a, b) == a * b


# ---------------------------------------------------------------------------
# production-size orbits against exact residues
# ---------------------------------------------------------------------------

def _low_power(m: int, d: int, bits: int) -> int:
    """m^d mod 2^bits, by square-and-multiply on the multiply seam (checked
    above to be the exact product), masked at every step."""
    mask, r = (1 << bits) - 1, 1
    for bit in bin(d)[2:]:
        r = hpreal._mul(r, r) & mask
        if bit == "1":
            r = r * m & mask
    return r


def test_segment_ends_enclose_exact_values_at_production_scale():
    """The first and last point of every segment of three production-size
    orbits at dyadic alphas m/2^e, each against its exact residue."""
    for spec, m, e, N in (("monomial:k=2", 193, 7, 1000),
                          ("factorial", 7, 2, 10),
                          ("geomsum:k=2", 195, 7, 300)):
        family = parse_family(spec)
        alpha = ExactReal.from_fraction(Fraction(m, 1 << e))
        points = orbit(family, alpha, N, Fraction(1, 1 << 40)).points
        geometric = family.kind == "geomsum"
        # a geomsum point is the geometric walk's point at exponent d + 1
        exps = [degree(family, n) + geometric for n in range(1, N + 1)]
        segments = hpreal._plan(alpha, exps, Fraction(1, 1 << 40),
                                geometric).segments
        assert len(segments) > 1
        for i in sorted({i for start, stop, _ in segments
                         for i in (start, stop - 1)}):
            d = exps[i]
            if geometric:
                # (alpha^d - 1)/(alpha - 1) = (m^d - 2^(ed)) / (c 2^k) with
                # c = m - 2^e and k = e(d-1); reduce mod c 2^k in two parts
                c, k = m - (1 << e), e * (d - 1)
                top = m**d - (1 << (e * d))
                num = ((top >> k) % c << k) | (top & ((1 << k) - 1))
                den = c << k
            else:
                # frac(alpha^d) = (m^d mod 2^(ed)) / 2^(ed)
                num, den = _low_power(m, d, e * d), 1 << (e * d)
            assert _encloses(points[i], num, den), (spec, i + 1)
