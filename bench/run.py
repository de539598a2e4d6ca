"""ppclab benchmark runner.

    python3 bench/run.py --workload walk-k2 --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py) through the public CLI entry point
`ppclab.cli.main`, in this process, from the sources under `src/`.  A pass runs
the workload's job batch once; passes repeat until the next one would
overrun `--seconds`.  Every output is checked outside the timed region, and
any failure counts against `fail_frac`.

With `--trace 0` the last stdout line carries the end-to-end metrics, times
at reference speed (see REF_NOMINAL_S):

  run_s        median time of one pass
  job_s_p50    median over the batch of each invocation's median time
  cpu_s        median user+sys CPU of one pass, pool workers included
  peak_rss_mb  peak RSS of this process plus its largest child
  setup_s      median time for a fresh interpreter to import ppclab.cli
               and build its parser

With `--trace 1` half the time goes to untraced passes and then one pass runs
with spans around calls into ppclab (tracing.py); the last line carries the
per-layer metrics.  Lines before the last are for people: the environment
fingerprint, each metric with its unit, fail_frac and any problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, kernel_times  # noqa: E402

SETUP_SPAWNS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, %r); import ppclab.cli; "
              "ppclab.cli.build_parser()" % str(SRC))

END_TO_END_UNITS = {"run_s": "s", "job_s_p50": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def load_ppclab():
    """Import ppclab from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "ppclab" / "cli.py").is_file():
        sys.exit("bench: no ppclab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ppclab.cli

    if Path(ppclab.cli.__file__).resolve().parent != SRC / "ppclab":
        sys.exit("bench: imported ppclab from %s, not from src/"
                 % ppclab.cli.__file__)
    return ppclab.cli


@dataclass
class JobRun:
    rc: int | str
    out: str
    err: str
    wall: float
    orbit: object = None


@dataclass
class Pass:
    wall: float
    cpu: float
    jobs: list[JobRun] = field(default_factory=list)
    speed: float = 1.0  # REF_NOMINAL_S / reference time around this pass


# This host's core speed drifts by tens of percent over seconds to minutes,
# invisibly to the process: CPU time drifts with wall time and no steal is
# accounted.  So a fixed reference job that calls no ppclab code is timed
# around every pass, and end-to-end times are reported at the speed where the
# reference takes REF_NOMINAL_S.  A change to ppclab cannot move the
# reference, so it moves these times by its own share.  Raw times are printed.
REF_NOMINAL_S = 0.2
_REF_RNG = random.Random("reference")
_REF_X = _REF_RNG.getrandbits(400_000) | 1
_REF_Y = _REF_RNG.getrandbits(400_000) | 1


def reference_s() -> float:
    """Wall time of three 0.4 Mbit int multiplies and a 1M-step bytecode loop."""
    t0 = time.perf_counter()
    for _ in range(3):
        _REF_X * _REF_Y
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


class Runner:
    """Calls ppclab.cli.main in-process and keeps what the checks need."""

    def __init__(self, cli, tracer: Tracer | None = None):
        self.cli = cli
        self.tracer = tracer
        self._captured = None

    @contextlib.contextmanager
    def capturing_orbits(self):
        """Keep the last Orbit the CLI computed (one extra call frame)."""
        import ppclab.paircorr

        sites = [(ppclab.paircorr, "orbit"), (self.cli, "orbit")]
        saved = [getattr(m, a) for m, a in sites]

        def capture(fn):
            def wrapper(*args, **kwargs):
                self._captured = fn(*args, **kwargs)
                return self._captured
            return wrapper

        for (m, a), fn in zip(sites, saved):
            setattr(m, a, capture(fn))
        try:
            yield
        finally:
            for (m, a), fn in zip(sites, saved):
                setattr(m, a, fn)

    def job(self, argv) -> JobRun:
        out, err = io.StringIO(), io.StringIO()
        self._captured = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    rc = self.cli.main(list(argv))
                else:
                    rc = self.tracer.call("cli.main", self.cli.main, (list(argv),))
        except Exception:  # a traceback is a failed job, not a dead benchmark
            rc = "exception"
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        return JobRun(rc, out.getvalue(), err.getvalue(), wall, self._captured)

    def one_pass(self, jobs) -> Pass:
        c0 = _cpu()
        t0 = time.perf_counter()
        runs = [self.job(j.argv) for j in jobs]
        return Pass(time.perf_counter() - t0, _cpu() - c0, runs)

    def passes(self, jobs, budget: float) -> list[Pass]:
        """At least one pass; stop before a pass would overrun the budget."""
        done: list[Pass] = []
        t0 = time.perf_counter()
        ref = reference_s()
        while True:
            # only the first pass keeps its orbits: the checks need one copy,
            # and keeping more would grow this process and its forked workers
            with self.capturing_orbits() if not done else contextlib.nullcontext():
                p = self.one_pass(jobs)
            ref_after = reference_s()
            p.speed = 2 * REF_NOMINAL_S / (ref + ref_after)
            ref = ref_after
            done.append(p)
            if time.perf_counter() - t0 + p.wall > budget:
                return done


def setup_times(count: int) -> tuple[list[float], float]:
    """Wall times of fresh interpreters importing ppclab.cli (after one
    warm-up), and the reference speed factor around them."""
    times = []
    ref = reference_s()
    for i in range(count + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                       cwd=ROOT, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times, 2 * REF_NOMINAL_S / (ref + reference_s())


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (s + c) / 1024.0  # ru_maxrss is in KiB on Linux


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint() -> dict:
    import ppclab

    return {
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "numpy": find_spec("numpy") is not None,
        "cpu_count": os.cpu_count(),
        "cpus_usable": workloads.nproc(),
        "ppclab": ppclab.__version__,
        "commit": _git_commit(),
    }


# ------------------------------------------------------------------ checks


def check_first_pass(workload, first: Pass, seed: int) -> list[list[str]]:
    """Problems per job of the first pass (empty list = job passed)."""
    rng = random.Random("checks/%s/%d" % (workload.name, seed))
    out = []
    audited = False
    for job, run in zip(workload.jobs, first.jobs):
        if run.rc != 0:
            out.append(["exit code %r: %s" % (run.rc, run.err.strip()[-400:])])
            continue
        try:
            probs = _check_job(job, run, rng)
            if run.orbit is not None and not audited:
                probs += checks.pair_count_audit(run.orbit.points[:1000])
                audited = True
        except Exception:  # a checker crash fails the job, with its cause
            probs = ["checker raised: %s" % traceback.format_exc(limit=3)]
        out.append(probs)
    return out


_ARTIFACT_CHECKS = {
    "paircorr-curve": checks.paircorr_curve_problems,
    "orbit": checks.points_file_problems,
    "discrepancy": checks.discrepancy_problems,
}
_REPORT_CHECKS = {
    "hypothesis": checks.hypothesis_problems,
    "measure": checks.measure_problems,
    "second-moment": checks.second_moment_problems,
}


def _check_job(job, run: JobRun, rng) -> list[str]:
    if job.kind in _REPORT_CHECKS:
        return _REPORT_CHECKS[job.kind](job, run.out)
    return (_ARTIFACT_CHECKS[job.kind](job, run.out, run.orbit)
            + checks.orbit_problems(job, run.orbit, rng))


# ------------------------------------------------------------------ the run


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, label: str, probs: list[str]) -> None:
        self.attempted += 1
        if probs:
            self.failed += 1
            self.problems.extend("%s: %s" % (label, p) for p in probs)


def _same(label, reference: JobRun, run: JobRun) -> list[str]:
    if run.rc != 0:
        return ["exit code %r" % run.rc]
    return [] if run.out == reference.out else [
        "%s output differs from the first pass" % label]


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 kernel_scale: float = 1.0):
    """Measure, check and return (tally, metrics, notes) for one run."""
    cli = load_ppclab()
    runner = Runner(cli)
    tally = Tally()
    notes: list[str] = []
    budget = seconds / 2 if trace else seconds
    passes = runner.passes(workload.jobs, budget)
    rss = peak_rss_mb()
    first = passes[0]

    for job, probs in zip(workload.jobs, check_first_pass(workload, first, seed)):
        tally.add(job.argv[0], probs)
    for later in passes[1:]:
        for job, ref, run in zip(workload.jobs, first.jobs, later.jobs):
            tally.add(job.argv[0], _same("repeat", ref, run))

    sweep = [(i, j) for i, j in enumerate(workload.jobs)
             if j.kind == "second-moment"]
    pool_speedup = 0.0
    for i, job in sweep:
        # byte-identical at --threads 1, which also times the serial sweep
        argv = list(job.argv)
        argv[argv.index("--threads") + 1] = "1"
        serial = runner.job(argv)
        tally.add("second-moment --threads 1", _same("threads-1", first.jobs[i], serial))
        pool_speedup = serial.wall / statistics.median(p.jobs[i].wall for p in passes)

    run_s = statistics.median(p.wall * p.speed for p in passes)
    if not trace:
        setups, setup_speed = setup_times(SETUP_SPAWNS)
        metrics = {
            "run_s": run_s,
            "job_s_p50": statistics.median(
                statistics.median(p.jobs[i].wall * p.speed for p in passes)
                for i in range(len(workload.jobs))),
            "cpu_s": statistics.median(p.cpu * p.speed for p in passes),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setups) * setup_speed,
        }
        notes.append("times at reference speed (reference %.3f s = %g s "
                     "nominal); raw medians: run_s %.4f s, cpu_s %.4f s, "
                     "setup_s %.4f s"
                     % (REF_NOMINAL_S / statistics.median(p.speed for p in passes),
                        REF_NOMINAL_S,
                        statistics.median(p.wall for p in passes),
                        statistics.median(p.cpu for p in passes),
                        statistics.median(setups)))
        notes.append("%d passes of %d jobs; job_s_p50 is the median over the "
                     "batch of each job's median (%d invocations); setup_s "
                     "over %d interpreters"
                     % (len(passes), len(workload.jobs),
                        len(passes) * len(workload.jobs), len(setups)))
        return tally, metrics, notes

    tracer = Tracer()
    traced_runner = Runner(cli, tracer)
    with tracer.installed():
        traced = traced_runner.one_pass(workload.jobs)
    for job, ref, run in zip(workload.jobs, first.jobs, traced.jobs):
        tally.add(job.argv[0] + " (traced)", _same("traced", ref, run))
    overhead = traced.wall - statistics.median(p.wall for p in passes)
    metrics = per_layer(tracer.summary(), overhead, pool_speedup)
    metrics.update(kernel_times(seed, kernel_scale))
    notes.extend(shares(metrics, traced.wall))
    return tally, metrics, notes


PER_LAYER_UNITS = {
    "hpreal.ball_mul.calls": "count",
    "hpreal.ball_mul.self_s": "s",
    "hpreal.ball_mul.in_pow_s": "s",
    "hpreal.ball_mul.in_walk_s": "s",
    "hpreal.ball_mul.operand_mbit": "Mbit",
    "hpreal.ball_mul.max_operand_mbit": "Mbit",
    "hpreal.kernel.mul_0.25mbit_s": "s",
    "hpreal.kernel.mul_0.8mbit_s": "s",
    "hpreal.kernel.mul_3.2mbit_s": "s",
    "hpreal.kernel.mul_0.8x0.004mbit_s": "s",
    "hpreal.ball_pow.calls": "count",
    "hpreal.ball_pow.self_s": "s",
    "hpreal.frac_point.calls": "count",
    "hpreal.frac_point.self_s": "s",
    "hpreal.frac_point.indeterminate": "count",
    "hpreal.required_precision.max_bits": "bit",
    "families.orbit.calls": "count",
    "families.orbit.s": "s",
    "families.orbit.self_s": "s",
    "families.orbit.points": "count",
    "families.orbit.retries": "count",
    "paircorr.pair_count.calls": "count",
    "paircorr.pair_count.s": "s",
    "paircorr.star_discrepancy.s": "s",
    "paircorr.points_text.s": "s",
    "secondmoment.second_moment_series.s": "s",
    "secondmoment.pool_speedup": "x",
    "hypothesis.check_hypotheses.s": "s",
    "hypothesis.condition5_lhs.calls": "count",
    "measure.level_set_measure.s": "s",
    "measure.g_evals": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(t: dict, overhead: float, pool_speedup: float) -> dict:
    calls, total, self_s = t["calls"], t["s"], t["self_s"]
    return {
        "hpreal.ball_mul.calls": calls["hpreal.ball_mul"],
        "hpreal.ball_mul.self_s": self_s["hpreal.ball_mul"],
        "hpreal.ball_mul.in_pow_s": t["mul_in_pow_s"],
        "hpreal.ball_mul.in_walk_s": t["mul_in_walk_s"],
        "hpreal.ball_mul.operand_mbit": t["operand_bits"] / 1e6,
        "hpreal.ball_mul.max_operand_mbit": t["max_operand_bits"] / 1e6,
        "hpreal.ball_pow.calls": calls["hpreal.ball_pow"],
        "hpreal.ball_pow.self_s": self_s["hpreal.ball_pow"],
        "hpreal.frac_point.calls": calls["hpreal.frac_point"],
        "hpreal.frac_point.self_s": self_s["hpreal.frac_point"],
        "hpreal.frac_point.indeterminate": t["indeterminate"],
        "hpreal.required_precision.max_bits": t["max_prec_bits"],
        "families.orbit.calls": calls["families.orbit"],
        "families.orbit.s": total["families.orbit"],
        "families.orbit.self_s": self_s["families.orbit"],
        "families.orbit.points": t["points"],
        "families.orbit.retries": t["retries"],
        "paircorr.pair_count.calls": calls["paircorr.pair_count"],
        "paircorr.pair_count.s": total["paircorr.pair_count"],
        "paircorr.star_discrepancy.s": total["paircorr.star_discrepancy"],
        "paircorr.points_text.s": total["paircorr.points_text"],
        "secondmoment.second_moment_series.s":
            total["secondmoment.second_moment_series"],
        "secondmoment.pool_speedup": pool_speedup,
        "hypothesis.check_hypotheses.s": total["hypothesis.check_hypotheses"],
        "hypothesis.condition5_lhs.calls":
            t["counts"]["hypothesis.condition5_lhs"],
        "measure.level_set_measure.s": total["measure.level_set_measure"],
        "measure.g_evals": t["counts"]["measure.g_evals"],
        "cli.self_s": self_s["cli.main"],
        "trace.overhead_s": overhead,
    }


def shares(m: dict, traced_run_s: float) -> list[str]:
    """The design shares the workloads were chosen for, as readable lines."""
    hp = m["hpreal.ball_mul.self_s"] + m["hpreal.ball_pow.self_s"]
    orbit_s = m["families.orbit.s"]
    lines = ["share hpreal self (ball_mul+ball_pow) / families.orbit.s = %s"
             % ("%.3f" % (hp / orbit_s) if orbit_s else "n/a"),
             "share hpreal self / traced run_s = %.3f" % (hp / traced_run_s),
             "ball_pow.self_s %.4f s; ball_mul under ball_pow %.3f s, "
             "directly in the walk %.3f s"
             % (m["hpreal.ball_pow.self_s"], m["hpreal.ball_mul.in_pow_s"],
                m["hpreal.ball_mul.in_walk_s"])]
    return lines


def render(tally: Tally, metrics: dict, units: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    load_ppclab()
    wl = workloads.build(ns.workload, ns.seed)
    print("env " + json.dumps(fingerprint(), sort_keys=True))
    print("workload %s seed %d: %s" % (wl.name, ns.seed, wl.why))
    tally, metrics, notes = run_workload(wl, ns.seed, ns.seconds, bool(ns.trace))
    units = PER_LAYER_UNITS if ns.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print("%-40s %14.6g %s" % (name, metrics[name], unit))
    print("%-40s %14.6g 1 (%d/%d jobs)" % (
        "fail_frac", tally.failed / tally.attempted, tally.failed,
        tally.attempted))
    for line in notes + tally.problems:
        print(line)
    print(json.dumps(render(tally, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
