import random
from fractions import Fraction

import pytest

from ppclab import paircorr
from ppclab.families import parse_family, orbit
from ppclab.hpreal import UnitPoint, parse_alpha
from ppclab.paircorr import (
    TooBlurry,
    check_resolution,
    default_delta,
    gap_spectrum,
    naive_pair_count,
    pair_count,
    points_text,
    ppc_curve,
    read_points,
    star_discrepancy,
)


def pts(values, error=0.0):
    return [UnitPoint(Fraction(v), error) for v in values]


# ---------------------------------------------------------------------------
# pair counting
# ---------------------------------------------------------------------------

def test_pair_count_three_points():
    r = pair_count(pts([0.1, 0.15, 0.9]), 0.3)
    assert r.N == 3
    assert r.ordered_count == 2
    assert r.statistic == pytest.approx(2.0 / 3.0, abs=0.0)


def test_pair_count_coincident_points():
    r = pair_count(pts([0.3, 0.3, 0.3]), 0.01)
    assert r.ordered_count == 6
    assert r.statistic == 2.0


def test_threshold_tie_is_included():
    ps = pts([Fraction(0), Fraction(1, 5)])
    assert pair_count(ps, Fraction(2, 5)).ordered_count == 2
    # nudge s below the tie and the pair drops out
    assert pair_count(ps, Fraction(2, 5) - Fraction(1, 10**9)).ordered_count == 0


def test_wraparound_distance():
    # circle distance 0.04, well inside s/N = 0.05
    r = pair_count(pts([0.02, 0.98]), 0.1)
    assert r.ordered_count == 2


def test_grid_ties_at_the_threshold_and_across_the_wrap():
    N = 8
    grid = pts([Fraction(k, N) for k in range(N)])
    cases = [
        # s = 1: every neighbour sits exactly at s/N, 0 and 7/8 across 0
        (1, 2 * N),
        # 2s = N: the whole circle
        (Fraction(N, 2), N * (N - 1)),
        # 2s just below N: all but the antipodal pairs at distance 1/2
        (Fraction(N, 2) - Fraction(1, 10**9), N * (N - 1) - N),
    ]
    for s, count in cases:
        assert pair_count(grid, s).ordered_count == count
        assert naive_pair_count(grid, s) == count


def test_whole_circle_threshold():
    ps = pts([0.1, 0.4, 0.77])
    r = pair_count(ps, 2)  # s/N >= 1/2 covers everything
    assert r.ordered_count == 3 * 2
    assert naive_pair_count(ps, 2) == 6


def test_single_point_has_no_pairs():
    r = pair_count(pts([0.5]), 1)
    assert r.ordered_count == 0
    assert r.statistic == 0.0


def test_validation():
    with pytest.raises(ValueError):
        pair_count([], 0.3)
    with pytest.raises(ValueError):
        pair_count(pts([0.1]), 0)
    with pytest.raises(ValueError):
        naive_pair_count(pts([0.1]), -1)


def test_too_blurry_points_are_refused():
    ps = pts([0.1, 0.2, 0.4], error=2e-3)  # bound is 0.3/300 = 1e-3
    with pytest.raises(TooBlurry):
        pair_count(ps, 0.3)
    with pytest.raises(TooBlurry):
        naive_pair_count(ps, 0.3)
    # error at most the bound is allowed (2^-10 < (3/10)/300)
    assert pair_count(pts([0.1, 0.2, 0.4], error=2.0**-10), Fraction(3, 10)).N == 3


def test_pair_count_matches_naive_on_random_sets():
    rng = random.Random(20260819)
    for _ in range(60):
        n = rng.randint(2, 60)
        values = [Fraction(rng.random()) for _ in range(n)]
        # salt in duplicates and near-wrap values
        if n > 4:
            values[1] = values[0]
            values[2] = Fraction(1, 10**6)
            values[3] = 1 - Fraction(1, 10**6)
        ps = [UnitPoint(v, 0.0) for v in values]
        s = Fraction(rng.randint(1, 4 * n), 4)
        assert pair_count(ps, s).ordered_count == naive_pair_count(ps, s)


def test_pair_count_matches_naive_on_kronecker_orbit():
    fam = parse_family("kronecker")
    alpha = parse_alpha("1.6180339887498948482", 128)
    orb = orbit(fam, alpha, 120, 2**-40)
    for s in (Fraction(1, 10), Fraction(17, 10), Fraction(3)):
        assert pair_count(orb.points, s).ordered_count == naive_pair_count(orb.points, s)


# ---------------------------------------------------------------------------
# curves over N
# ---------------------------------------------------------------------------

def test_ppc_curve_matches_prefix_counts():
    fam = parse_family("monomial:k=2")
    alpha = parse_alpha("1.5", 64)
    delta = 2.0**-40
    curve = ppc_curve(fam, alpha, Fraction(3, 10), [1, 2, 3, 5, 8], delta)
    orb = orbit(fam, alpha, 8, delta)
    assert [r.N for r in curve] == [1, 2, 3, 5, 8]
    for r in curve:
        assert r == pair_count(orb.points[:r.N], Fraction(3, 10))


def test_ppc_curve_validation():
    fam = parse_family("monomial:k=2")
    alpha = parse_alpha("1.5", 64)
    with pytest.raises(ValueError):
        ppc_curve(fam, alpha, Fraction(3, 10), [], 2.0**-40)
    with pytest.raises(ValueError):
        ppc_curve(fam, alpha, Fraction(3, 10), [0, 4], 2.0**-40)
    with pytest.raises(ValueError):
        # delta coarser than s/(100*max(N))
        ppc_curve(fam, alpha, Fraction(3, 10), [100], 0.01)


def test_default_delta_branches():
    # large s: the fixed dyadic floor wins
    assert default_delta(1, 100) == Fraction(1, 2**40)
    # tiny s: the blur-proportional bound wins
    s = Fraction(1, 10**9)
    assert default_delta(s, 1000) == s / 200000


def test_check_resolution():
    assert check_resolution("0.3", Fraction(1, 10**6), 100) == (
        Fraction(3, 10), Fraction(1, 10**6))
    # the bound itself is allowed
    assert check_resolution(1, Fraction(1, 10**4), 100)[1] == Fraction(1, 10**4)
    for s, delta, n_max in ((0, 2.0**-40, 10), (-1, 2.0**-40, 10),
                            (1, 0, 10), (1, Fraction(1, 4), 10),
                            (1, Fraction(1, 10**4) + Fraction(1, 10**12), 100)):
        with pytest.raises(ValueError):
            check_resolution(s, delta, n_max)


# ---------------------------------------------------------------------------
# discrepancy and gaps
# ---------------------------------------------------------------------------

def test_star_discrepancy_two_points():
    assert star_discrepancy(pts([0.25, 0.75])).d_star == 0.25


def test_star_discrepancy_uniform_grid():
    ps = [UnitPoint(Fraction(i, 100), 0.0) for i in range(100)]
    assert star_discrepancy(ps).d_star == 0.01


def test_star_discrepancy_single_point():
    assert star_discrepancy(pts([0.7])).d_star == 0.7


def test_star_discrepancy_bounds_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 40)
        ps = [UnitPoint(Fraction(rng.random()), 0.0) for _ in range(n)]
        d = star_discrepancy(ps).d_star
        assert 1.0 / (2 * n) - 1e-12 <= d <= 1.0


def test_gap_spectrum_basics():
    gaps = gap_spectrum(pts([0.25, 0.75]))
    assert gaps == [Fraction(1, 2), Fraction(1, 2)]
    gaps = gap_spectrum(pts([0.9, 0.1, 0.5]))
    assert sum(gaps) == 1
    assert gaps == sorted(gaps)
    assert gap_spectrum(pts([0.3])) == [Fraction(1)]


def test_every_point_statistic_refuses_an_empty_set():
    for statistic in (lambda ps: pair_count(ps, 1),
                      lambda ps: naive_pair_count(ps, 1),
                      star_discrepancy, gap_spectrum):
        with pytest.raises(ValueError, match="^points must be nonempty$"):
            statistic([])


def test_gap_spectrum_kronecker_three_distance():
    fam = parse_family("kronecker")
    alpha = parse_alpha("1.6180339887498948482", 128)
    for n in (10, 37, 88):
        orb = orbit(fam, alpha, n, 2**-40)
        distinct = set(gap_spectrum(orb.points))
        assert len(distinct) <= 3


# ---------------------------------------------------------------------------
# point files
# ---------------------------------------------------------------------------

def test_points_roundtrip(tmp_path):
    fam = parse_family("monomial:k=2")
    alpha = parse_alpha("1.5", 64)
    orb = orbit(fam, alpha, 16, 2**-40)
    path = tmp_path / "pts.txt"
    path.write_text(points_text(orb.points, ["family=monomial:k=2 alpha=1.5"]))
    back = read_points(path)
    assert len(back) == 16
    for orig, rd in zip(orb.points, back):
        assert abs(orig.value - rd.value) <= Fraction(1, 10**29)
        assert rd.error == 0.0
    # second serialization of the parsed values is byte-identical
    again = tmp_path / "pts2.txt"
    again.write_text(points_text(back, ["family=monomial:k=2 alpha=1.5"]))
    assert path.read_bytes() == again.read_bytes()


def test_points_text_layout():
    text = points_text(pts([Fraction(1, 4), Fraction(1, 3)]), comments=["cfg"])
    lines = text.splitlines()
    assert lines[0] == "# ppc-points v1 N=2"
    assert lines[1] == "# cfg"
    assert lines[2] == "0.25"
    assert lines[3] == "0.333333333333333333333333333333"
    assert text.endswith("\n")


def test_read_points_rejects_bad_input(tmp_path, monkeypatch):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("# wrong v9 N=2\n0.1\n0.2\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_points(bad_header)

    out_of_range = tmp_path / "b.txt"
    out_of_range.write_text("# ppc-points v1 N=1\n1.5\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_points(out_of_range)

    miscount = tmp_path / "c.txt"
    miscount.write_text("# ppc-points v1 N=3\n0.1\n0.2\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_points(miscount)

    empty = tmp_path / "d.txt"
    empty.write_text("", encoding="ascii")
    with pytest.raises(ValueError):
        read_points(empty)

    for i, line in enumerate(("1/0", "1e999999999", "NaN", "-Infinity",
                              "1e-999999999")):
        bad_line = tmp_path / ("e%d.txt" % i)
        bad_line.write_text("# ppc-points v1 N=1\n%s\n" % line,
                            encoding="ascii")
        with pytest.raises(ValueError):
            read_points(bad_line)

    # a header past ORBIT_N_CAP is refused before any point line is parsed
    def never(text):
        raise AssertionError("point line parsed: %r" % text)

    too_long = tmp_path / "g.txt"
    too_long.write_text("# ppc-points v1 N=100001\n0.1\n0.2\n",
                        encoding="ascii")
    monkeypatch.setattr(paircorr, "check_literal", never)
    with pytest.raises(ValueError, match="100001"):
        read_points(too_long)

    # and a file is refused at the first point line past the declared N
    parsed = []
    monkeypatch.setattr(paircorr, "check_literal",
                        lambda text: parsed.append(text) or Fraction(text))
    extra = tmp_path / "h.txt"
    extra.write_text("# ppc-points v1 N=1\n0.1\n0.2\n0.3\n",
                     encoding="ascii")
    with pytest.raises(ValueError):
        read_points(extra)
    assert parsed == ["0.1"]
