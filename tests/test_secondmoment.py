"""Tests for the second-moment variance series and its quadrature plumbing."""

import functools
import json
import math
import operator
from fractions import Fraction

import pytest

from ppclab.families import IntervalSpec, orbit, parse_family
from ppclab.hpreal import PrecisionOverflow, parse_alpha
from ppclab.paircorr import default_delta, pair_count
from ppclab.secondmoment import (
    K_MAX,
    QuadratureSpec,
    _pool_size,
    decay_fit,
    quadrature_nodes,
    second_moment_series,
    series_to_csv,
    series_to_json,
    splitmix64_stream,
)

# First three outputs of SplitMix64, checked against a compiled build of the
# reference C implementation.
_SM64_VECTORS = {
    0: [8744659340150117237, 10830072956577746606, 13152321177565395536],
    42: [9160914938999031907, 8441186800356990344, 14069300161922139130],
    1234567: [4568939010520789948, 7365292947215543592, 2786505037572772808],
}


def test_splitmix64_frozen_vectors():
    for seed, expected in _SM64_VECTORS.items():
        assert splitmix64_stream(seed, 3) == expected


def test_splitmix64_outputs_are_64_bit():
    for z in splitmix64_stream(987654321, 200):
        assert 0 <= z < 2**64


def test_splitmix64_seed_validation():
    with pytest.raises(ValueError):
        splitmix64_stream(-1, 1)
    with pytest.raises(ValueError):
        splitmix64_stream(2**64, 1)


def test_quadrature_spec_caps_the_node_count():
    assert K_MAX > 32  # criterion 8 uses 32 nodes
    assert QuadratureSpec("midpoint", K_MAX).K == K_MAX
    with pytest.raises(ValueError, match="K must lie in"):
        QuadratureSpec("midpoint", K_MAX + 1)
    with pytest.raises(ValueError, match="K must lie in"):
        QuadratureSpec("random", 100_000_000)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec("trapezoid", 4)
    with pytest.raises(ValueError):
        QuadratureSpec("midpoint", 1)
    with pytest.raises(ValueError):
        QuadratureSpec("random", 4, seed=-1)
    with pytest.raises(ValueError):
        QuadratureSpec("random", 4, seed=2**64)


def test_midpoint_nodes_exact():
    interval = IntervalSpec(Fraction(3, 2), Fraction(2))
    nodes = quadrature_nodes(interval, QuadratureSpec("midpoint", 4))
    assert nodes == [Fraction(25, 16), Fraction(27, 16),
                     Fraction(29, 16), Fraction(31, 16)]
    assert all(isinstance(node, Fraction) for node in nodes)


def test_random_nodes_seeded_and_in_range():
    interval = IntervalSpec(Fraction(3, 2), Fraction(2))
    spec = QuadratureSpec("random", 16, seed=20260819)
    nodes = quadrature_nodes(interval, spec)
    assert len(nodes) == 16
    assert all(interval.a <= node < interval.b for node in nodes)
    assert nodes == quadrature_nodes(interval, spec)
    other = quadrature_nodes(interval, QuadratureSpec("random", 16, seed=7))
    assert nodes != other
    # draws must line up with the raw generator output
    draws = splitmix64_stream(20260819, 16)
    width = interval.b - interval.a
    assert nodes[0] == interval.a + width * Fraction(draws[0] >> 11, 2**53)


def test_float_sum_is_left_to_right():
    from ppclab.secondmoment import float_sum

    # compensated sums (sum() of floats from Python 3.12 on, math.fsum) give
    # 1.0 and 2.0 here
    values = [0.1] * 10
    assert math.fsum(values) == 1.0
    assert float_sum(values) == 0.9999999999999999
    assert float_sum(iter([1.0, 1e100, 1.0, -1e100])) == 0.0
    assert float_sum([]) == 0.0


def test_v_and_its_fit_are_reduced_left_to_right(monkeypatch):
    # node statistics whose squares sum differently left to right and
    # compensated; the pinned V(N) and fit are the left-to-right ones, and
    # Python 3.12's sum() gives 0.18960000000000002, 0.1567, 0.1704
    import ppclab.secondmoment as sm

    columns = [[1.8, 0.0, 1.15], [0.0, 1.4, 0.5], [1.0, 1.1, 0.9],
               [1.8, 0.3, 1.4], [0.6, 1.3, 0.65], [0.2, 0.1, 0.15],
               [0.0, 0.5, 1.9], [0.4, 1.9, 0.1], [1.6, 1.5, 1.85],
               [0.6, 1.0, 0.1]]
    monkeypatch.setattr(sm, "_run_nodes", lambda *args: columns)
    series = second_moment_series(parse_family("linpow"),
                                  IntervalSpec("1.5", "1.6"), 1, [10, 20, 40],
                                  QuadratureSpec("midpoint", 10))
    assert [v for _, v, _ in series.entries] == [
        0.18960000000000005, 0.15669999999999998, 0.17040000000000002]
    assert series.fitted_exponent == -0.0770168143362104
    assert series.fitted_log_constant == -1.531234071476132


def test_decay_fit_exact_inverse_law():
    slope, intercept = decay_fit([(100, 0.01), (200, 0.005), (400, 0.0025)])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_constant_series():
    slope, intercept = decay_fit([(10, 5.0), (100, 5.0), (1000, 5.0)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(5.0), rel=1e-12)


def test_decay_fit_rejections():
    with pytest.raises(ValueError):
        decay_fit([(10, 1.0), (20, 0.5)])
    with pytest.raises(ValueError, match="index 1"):
        decay_fit([(10, 1.0), (20, 0.0), (40, 0.25)])
    with pytest.raises(ValueError):
        decay_fit([(10, 1.0), (10, 2.0), (10, 3.0)])


def test_series_validation():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 2)
    with pytest.raises(ValueError):
        second_moment_series(fam, interval, 1, [], quad)
    with pytest.raises(ValueError):
        second_moment_series(fam, interval, 1, [0, 10], quad)
    with pytest.raises(ValueError):
        second_moment_series(fam, interval, 0, [10], quad)
    with pytest.raises(ValueError, match="too coarse"):
        second_moment_series(fam, interval, 1, [10], quad, delta=Fraction(1, 100))


def test_variance_formula_matches_direct_recomputation():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 3)
    series = second_moment_series(fam, interval, 1, [20, 40], quad)
    assert [n for n, _, _ in series.entries] == [20, 40]
    delta = series.delta
    nodes = quadrature_nodes(interval, quad)
    stats = []
    for node in nodes:
        alpha = parse_alpha(str(node), 128)
        orb = orbit(fam, alpha, 40, delta)
        stats.append([pair_count(orb.points[:n], 1).statistic for n in (20, 40)])
    width = float(interval.b - interval.a)
    for j, (n, v, node_values) in enumerate(series.entries):
        assert node_values == tuple(stats[i][j] for i in range(3))
        # summed left to right, as sum() did before Python 3.12
        squares = [(x - 2.0) ** 2 for x in node_values]
        assert v == width / 3 * functools.reduce(operator.add, squares, 0.0)


def test_nodes_reach_alpha_without_text(monkeypatch):
    from ppclab import hpreal

    fam = parse_family("linpow")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 3)
    expected = second_moment_series(fam, interval, 1, [5, 10], quad)

    def never(text):
        raise AssertionError("a node went through literal text")

    monkeypatch.setattr(hpreal, "check_literal", never)
    series = second_moment_series(fam, interval, 1, [5, 10], quad)
    assert series.entries == expected.entries


def test_duplicate_and_unsorted_n_list_collapses():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 2)
    series = second_moment_series(fam, interval, 1, [40, 20, 40], quad)
    assert [n for n, _, _ in series.entries] == [20, 40]
    assert series.fitted_exponent is None  # fewer than 3 distinct N


def test_prefix_reuse_matches_single_n_runs():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 2)
    # same delta in both routes so the orbits agree point for point
    delta = default_delta(1, 40)
    series = second_moment_series(fam, interval, 1, [20, 40], quad, delta=delta)
    for n, v, node_values in series.entries:
        single = second_moment_series(fam, interval, 1, [n], quad, delta=delta)
        _, v_single, single_nodes = single.entries[0]
        assert v_single == v
        assert single_nodes == node_values


def test_kronecker_on_random_nodes_has_flat_statistics():
    fam = parse_family("kronecker")
    interval = IntervalSpec(Fraction("1.55"), Fraction("1.70"))
    quad = QuadratureSpec("random", 4, seed=20260819)
    s = Fraction(1, 10)
    _, v, node_values = second_moment_series(fam, interval, s, [300], quad).entries[0]
    assert node_values == (0.0, 0.0, 0.0, 0.0)
    width = float(interval.b - interval.a)
    assert v == width / 4 * sum((0.0 - 0.2) ** 2 for _ in range(4))
    assert v > 0.005  # stays bounded away from zero, no decay here


def test_threads_match_serial():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 2)
    serial = second_moment_series(fam, interval, 1, [20, 40], quad, threads=1)
    pooled = second_moment_series(fam, interval, 1, [20, 40], quad, threads=2)
    assert serial.entries == pooled.entries


def test_pool_size_is_capped_by_jobs_and_cpus():
    assert _pool_size(10**6, 64, 2) == 2
    assert _pool_size(10**6, 10**6, 1) == 1
    assert _pool_size(8, 32, 2) == 2
    assert _pool_size(8, 3, 64) == 3
    assert _pool_size(4, 16, 8) == 4
    assert _pool_size(1, 16, 8) == 1


def test_node_failure_is_annotated_with_index():
    fam = parse_family("factorial")
    interval = IntervalSpec(Fraction(8, 5), Fraction(17, 10))
    quad = QuadratureSpec("midpoint", 2)
    with pytest.raises(PrecisionOverflow, match=r"node 0:"):
        second_moment_series(fam, interval, 1, [25], quad)


def test_fit_present_with_three_entries():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 2)
    series = second_moment_series(fam, interval, 1, [10, 20, 40], quad)
    if all(v > 0 for _, v, _ in series.entries):
        assert series.fitted_exponent is not None
        slope, intercept = decay_fit([(n, v) for n, v, _ in series.entries])
        assert series.fitted_exponent == slope
        assert series.fitted_log_constant == intercept


def test_csv_layout():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("midpoint", 2)
    series = second_moment_series(fam, interval, 1, [20, 40], quad)
    text = series_to_csv(series)
    lines = text.split("\n")
    assert lines[0] == "N,V,K,mode,seed,s,a,b,family"
    assert lines[-1] == ""
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "20"
    assert float(first[1]) == series.entries[0][1]
    assert first[2:] == ["2", "midpoint", "0", "1.0", "1.5", "1.6", "monomial:k=2"]


def test_json_schema_round_trip():
    fam = parse_family("monomial:k=2")
    interval = IntervalSpec(Fraction(3, 2), Fraction(8, 5))
    quad = QuadratureSpec("random", 2, seed=11)
    series = second_moment_series(fam, interval, 1, [20, 40], quad)
    doc = json.loads(json.dumps(series_to_json(series)))
    assert doc["schema"] == "second-moment v1"
    assert doc["family"] == "monomial:k=2"
    assert (doc["a"], doc["b"]) == (1.5, 1.6)
    assert doc["s"] == 1.0
    assert doc["K"] == 2
    assert doc["mode"] == "random"
    assert doc["seed"] == 11
    assert doc["delta"] == float(series.delta)
    assert [e["N"] for e in doc["entries"]] == [20, 40]
    for entry, (_, v, node_values) in zip(doc["entries"], series.entries):
        assert entry["V"] == v
        assert entry["node_values"] == list(node_values)
    assert doc["fitted_exponent"] is None
    assert doc["fitted_log_constant"] is None
