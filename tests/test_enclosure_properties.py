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
    _r_add,
    _r_norm,
    ball_div_exact,
    ball_mul,
    ball_sub_int,
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
        segments = hpreal._segments(exps, alpha.upper_float())
        assert len(segments) > 1
        for i in sorted({i for start, stop in segments
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
