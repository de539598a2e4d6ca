"""Quadrature estimates of V(N) = integral over [a,b] of (R2(s,N,alpha) - 2s)^2.

Each quadrature node is an exact rational, rounded to alpha's 128-bit grid
(hpreal.round_alpha) as --alpha text is; the per-node statistics come from
paircorr.ppc_curve, one certified orbit at the largest requested N with
smaller N read off the orbit prefix, and the default delta, the N-list rules
and the blur bound are paircorr's too.  Nodes are independent, so they form
the unit of parallelism; the reduction always runs in ascending node order,
which makes the result identical for any thread count.

The random mode draws nodes with SplitMix64 so runs are reproducible across
machines and languages from the 64-bit seed alone.  Floats are reduced left
to right (float_sum), so V(N) and its fit do not depend on the Python
version.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ppclab.families import IntervalSpec, SequenceFamily, check_orbit_length
from ppclab.hpreal import (
    ALPHA_BITS,
    ExactReal,
    IndeterminateFrac,
    PrecisionOverflow,
    round_alpha,
)
from ppclab.paircorr import (check_n_list, check_resolution, default_delta,
                              ppc_curve)

_MASK64 = (1 << 64) - 1

# Most quadrature nodes a sweep may ask for.  Nodes are built before any
# work and each costs one orbit; criterion 8 uses 32 and the CLI default is 16.
K_MAX = 4096


class WorkerFailed(RuntimeError):
    """A worker process of a pooled sweep died."""


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """First `count` outputs of SplitMix64 seeded with `seed`."""
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1DE43E21) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


@dataclass(frozen=True)
class QuadratureSpec:
    mode: str
    K: int
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("midpoint", "random"):
            raise ValueError("mode must be 'midpoint' or 'random'")
        if not 2 <= self.K <= K_MAX:
            raise ValueError("K must lie in [2, %d], got %d" % (K_MAX, self.K))
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SecondMomentSeries:
    family: SequenceFamily
    interval: IntervalSpec
    s: Fraction
    quad: QuadratureSpec
    delta: Fraction
    entries: tuple[tuple[int, float, tuple[float, ...]], ...]
    fitted_exponent: float | None
    fitted_log_constant: float | None


def float_sum(values) -> float:
    """The floats summed one by one from the left, the same on every Python:
    sum() of floats is compensated (Neumaier) from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def quadrature_nodes(interval: IntervalSpec, quad: QuadratureSpec) -> list[Fraction]:
    """Exact rational node positions in [a, b], in evaluation order."""
    width = interval.b - interval.a
    if quad.mode == "midpoint":
        return [interval.a + width * Fraction(2 * i + 1, 2 * quad.K)
                for i in range(quad.K)]
    draws = splitmix64_stream(quad.seed, quad.K)
    return [interval.a + width * Fraction(z >> 11, 1 << 53) for z in draws]


def _node_stats(args) -> list[float]:
    """One node's statistics along n_list; module-level so a pool can
    pickle it."""
    return [res.statistic for res in ppc_curve(*args)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _pool_size(threads: int, jobs: int, cpus: int) -> int:
    """Worker processes: no more than asked for, than jobs, or than usable
    CPUs."""
    return max(1, min(threads, jobs, cpus))


def _columns(results) -> list[list[float]]:
    """Drain per-node results in node order; a precision failure names its
    node and keeps the orbit index of the point it could not certify."""
    columns: list[list[float]] = []
    try:
        for column in results:
            columns.append(column)
    except IndeterminateFrac as exc:
        raise IndeterminateFrac("node %d: %s" % (len(columns), exc),
                                exc.index) from exc
    except PrecisionOverflow as exc:
        raise PrecisionOverflow("node %d: %s" % (len(columns), exc)) from exc
    return columns


def _run_nodes(family: SequenceFamily, alphas: Sequence[ExactReal],
               n_list: Sequence[int], s: Fraction, delta: Fraction,
               threads: int) -> list[list[float]]:
    jobs = [(family, alpha, s, list(n_list), delta) for alpha in alphas]
    workers = _pool_size(threads, len(jobs), _usable_cpus())
    if workers == 1:
        return _columns(_node_stats(job) for job in jobs)
    # imported here: they load multiprocessing, which only a pooled sweep
    # needs and every other command would pay for at startup
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_node_stats, job) for job in jobs]
            return _columns(fut.result() for fut in futures)
    except BrokenProcessPool as exc:
        raise WorkerFailed(str(exc)) from exc


def second_moment_series(family: SequenceFamily, interval: IntervalSpec, s,
                         N_list: Sequence[int], quad: QuadratureSpec,
                         delta=None, threads: int = 1) -> SecondMomentSeries:
    """V(N) along N_list; one orbit per node at max(N), prefixes for smaller N."""
    check_n_list(N_list)
    n_sorted = sorted(set(int(n) for n in N_list))
    n_max = check_orbit_length(n_sorted[-1])
    if delta is None:
        delta = default_delta(s, n_max)
    s_frac, delta_frac = check_resolution(s, delta, n_max)
    alphas = [round_alpha(node, ALPHA_BITS)
              for node in quadrature_nodes(interval, quad)]
    columns = _run_nodes(family, alphas, n_sorted, s_frac, delta_frac, threads)
    width = float(interval.b - interval.a)
    two_s = 2.0 * float(s_frac)
    entries = []
    for j, n in enumerate(n_sorted):
        node_values = tuple(columns[i][j] for i in range(quad.K))
        try:
            v = width / quad.K * float_sum((stat - two_s) ** 2
                                           for stat in node_values)
        except OverflowError:  # a square past the float range
            v = math.inf
        if not math.isfinite(v):  # or a sum of finite squares past it
            raise OverflowError("V at N = %d leaves the float range" % n)
        entries.append((n, v, node_values))
    exponent = None
    log_constant = None
    if len(entries) >= 3 and all(v > 0 for _, v, _ in entries):
        exponent, log_constant = decay_fit([(n, v) for n, v, _ in entries])
    return SecondMomentSeries(family, interval, s_frac, quad, delta_frac,
                              tuple(entries), exponent, log_constant)


def decay_fit(entries: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """OLS slope and intercept of log V against log N."""
    if len(entries) < 3:
        raise ValueError("need at least 3 entries to fit")
    xs = []
    ys = []
    for i, (n, v) in enumerate(entries):
        if v <= 0:
            raise ValueError("nonpositive V at index %d" % i)
        xs.append(math.log(n))
        ys.append(math.log(v))
    x_bar = float_sum(xs) / len(xs)
    y_bar = float_sum(ys) / len(ys)
    sxx = float_sum((x - x_bar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least two distinct N values")
    sxy = float_sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, y_bar - slope * x_bar


def series_to_csv(series: SecondMomentSeries) -> str:
    """CSV with exact header `N,V,K,mode,seed,s,a,b,family`."""
    lines = ["N,V,K,mode,seed,s,a,b,family"]
    for n, v, _ in series.entries:
        lines.append("%d,%r,%d,%s,%d,%r,%r,%r,%s" % (
            n, v, series.quad.K, series.quad.mode, series.quad.seed,
            float(series.s), float(series.interval.a),
            float(series.interval.b), series.family.spec()))
    return "\n".join(lines) + "\n"


def series_to_json(series: SecondMomentSeries) -> dict:
    """JSON form of the series, schema `second-moment v1`."""
    return {
        "schema": "second-moment v1",
        "family": series.family.spec(),
        "a": float(series.interval.a),
        "b": float(series.interval.b),
        "s": float(series.s),
        "delta": float(series.delta),
        "K": series.quad.K,
        "mode": series.quad.mode,
        "seed": series.quad.seed,
        "entries": [
            {"N": n, "V": v, "node_values": list(vals)}
            for n, v, vals in series.entries
        ],
        "fitted_exponent": series.fitted_exponent,
        "fitted_log_constant": series.fitted_log_constant,
    }
