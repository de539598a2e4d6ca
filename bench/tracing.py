"""Traced pass: spans around calls into ppclab's public functions.

The wrappers live here, in the benchmark, not in ppclab.  A function is
wrapped at every binding site: `families` imports `ball_mul`, `ball_pow` and
`frac_point` by name, `cli` imports `orbit` and `pair_count` by name, and so
on, so every ppclab module attribute that is the original function object is
replaced, and restored afterwards.  `value` is wrapped on the map classes.

Spans are kept in memory as (name, parent, start, end, note, failed) and
reduced only at the end: a span's self time is its duration minus the
durations of its direct children (one thread, so children never overlap).
Pool workers of `second-moment` are forked and their spans stay in the
worker; only the parent's call to `second_moment_series` is timed.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_perf = time.perf_counter

# (module, function, note) -- note(args, result) -> number kept with the span
SPANNED = (
    ("ppclab.hpreal", "ball_mul",
     lambda a, r: (a[0].man.bit_length(), a[1].man.bit_length())),
    ("ppclab.hpreal", "ball_pow", None),
    ("ppclab.hpreal", "frac_point", None),
    ("ppclab.hpreal", "required_precision", lambda a, r: r),
    ("ppclab.families", "orbit", lambda a, r: len(r.points)),
    ("ppclab.paircorr", "pair_count", None),
    ("ppclab.paircorr", "star_discrepancy", None),
    ("ppclab.paircorr", "points_text", None),
    ("ppclab.secondmoment", "second_moment_series", None),
    ("ppclab.hypothesis", "check_hypotheses", None),
    ("ppclab.measure", "level_set_measure", None),
)
# called too often for a span; counted only
COUNTED_FUNCTIONS = (("ppclab.hypothesis", "condition5_lhs"),)
COUNTED_METHODS = (("ppclab.measure", "PowerMap", "value"),
                   ("ppclab.measure", "DifferenceMap", "value"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs=None, note=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, parent, _perf(), 0.0, None, False]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[3] = _perf()
            self._stack.pop()
        if note is not None:
            rec[4] = note(args, result)
        return result

    def spanned(self, name, fn, note):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding site of the traced functions; undo on exit."""
        undo = []
        mods = [m for n, m in list(sys.modules.items())
                if n == "ppclab" or n.startswith("ppclab.")]

        def patch_everywhere(orig, wrapper):
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        try:
            for modname, fname, note in SPANNED:
                orig = getattr(sys.modules[modname], fname)
                short = modname.split(".")[-1] + "." + fname
                patch_everywhere(orig, self.spanned(short, orig, note))
            for modname, fname in COUNTED_FUNCTIONS:
                orig = getattr(sys.modules[modname], fname)
                short = modname.split(".")[-1] + "." + fname
                patch_everywhere(orig, self.counted(short, orig))
            for modname, cls_name, meth in COUNTED_METHODS:
                cls = getattr(sys.modules[modname], cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, self.counted("measure.g_evals", orig))
            yield self
        finally:
            for target, attr, orig in reversed(undo):
                setattr(target, attr, orig)

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus derived counters."""
        n = len(self.spans)
        child = [0.0] * n
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        mul_by_parent: defaultdict = defaultdict(float)
        operand_bits = 0
        max_operand = 0
        max_prec = 0
        points = 0
        retried_orbits = set()
        indeterminate = 0
        for i, (name, parent, start, end, note, failed) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            if name == "hpreal.ball_mul":
                operand_bits += note[0] + note[1] if note else 0
                max_operand = max(max_operand, *(note or (0,)))
                pname = self.spans[parent][0] if parent >= 0 else ""
                mul_by_parent[pname] += dur - child[i]
            elif name == "hpreal.required_precision" and note:
                max_prec = max(max_prec, note)
            elif name == "families.orbit" and note:
                points += note
            elif name == "hpreal.frac_point" and failed:
                indeterminate += 1
                j = parent
                while j >= 0 and self.spans[j][0] != "families.orbit":
                    j = self.spans[j][1]
                if j >= 0:
                    retried_orbits.add(j)
        return {
            "calls": calls, "s": total, "self_s": self_s,
            "mul_in_pow_s": mul_by_parent["hpreal.ball_pow"],
            "mul_in_walk_s": mul_by_parent["families.orbit"],
            "operand_bits": operand_bits, "max_operand_bits": max_operand,
            "max_prec_bits": max_prec, "points": points,
            "indeterminate": indeterminate, "retries": len(retried_orbits),
            "counts": self.counts,
        }


# synthetic ball_mul kernels: (metric, bits of x, bits of y, repetitions)
KERNELS = (
    ("hpreal.kernel.mul_0.25mbit_s", 250_000, 250_000, 7),
    ("hpreal.kernel.mul_0.8mbit_s", 800_000, 800_000, 5),
    ("hpreal.kernel.mul_3.2mbit_s", 3_200_000, 3_200_000, 3),
    ("hpreal.kernel.mul_0.8x0.004mbit_s", 800_000, 4_000, 15),
)


def kernel_times(seed: int, scale: float = 1.0) -> dict[str, float]:
    """Median seconds of public `ball_mul` on random balls of fixed size.

    Both balls carry a radius and the product is rounded back to the larger
    operand's size, as in the orbit walk.  `scale` shrinks the sizes for the
    smoke test.
    """
    from ppclab.hpreal import Ball, ball_mul

    rng = random.Random("kernels/%d" % seed)
    out = {}
    for name, bx, by, reps in KERNELS:
        bx, by = max(64, int(bx * scale)), max(64, int(by * scale))
        x = Ball(rng.getrandbits(bx) | (1 << (bx - 1)) | 1, -bx, (1, -bx))
        y = Ball(rng.getrandbits(by) | (1 << (by - 1)) | 1, -by, (1, -by))
        times = []
        for _ in range(reps):
            t0 = _perf()
            ball_mul(x, y, max(bx, by))
            times.append(_perf() - t0)
        out[name] = statistics.median(times)
    return out
