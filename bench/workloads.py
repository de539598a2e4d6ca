"""Workload definitions and the seeded input generator.

Every input is drawn from Python's `random.Random`, seeded from the workload
name and the benchmark's `--seed`.  ppclab's own SplitMix64 stream is not used
on purpose: the benchmark must not depend on code it is measuring, and a
change to that generator must not silently change the benchmark's inputs.

Each workload is a batch of CLI invocations (argument lists for
`ppclab.cli.main`).  A pass runs the batch once; run.py repeats passes.
`build(..., smoke=True)` gives tiny sizes for the smoke test only.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from decimal import Decimal

NAMES = ("walk-k2", "walk-short", "pow-factorial", "session-linpow")


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what the checker needs to know about it."""

    kind: str  # paircorr-curve | orbit | hypothesis | measure | discrepancy | second-moment
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]


def nproc() -> int:
    """CPUs this process may run on (the pool size the sweep asks for)."""
    return len(os.sched_getaffinity(0))


def _digits(rng: random.Random, count: int) -> str:
    # the last digit is odd and not 5, so the literal never shortens
    body = "".join(rng.choice("0123456789") for _ in range(count - 1))
    return body + rng.choice("1379")


def band_alpha(rng: random.Random) -> str:
    """A 20-significant-digit decimal in [1.500, 1.504).

    Orbit cost grows with log2(alpha); over this band it moves by under 1%,
    so seeds stay comparable.  The CLI parses the literal to a 128-bit
    mantissa, as it does for user decimals and criterion 3.
    """
    return "1.50" + rng.choice("0123") + _digits(rng, 16)


# Short dyadics with at most 8 significant bits.  Their cost depends on both
# log2(alpha) and the mantissa length; these three have Karatsuba operation
# counts within 2.5% of each other for the walk to N=1000, so seeds stay
# comparable.  Each run uses one of them.
SHORT_DYADICS = ("193/128", "195/128", "101/64")


def short_alpha_text(rng: random.Random) -> str:
    num, den = (int(x) for x in rng.choice(SHORT_DYADICS).split("/"))
    return str(Decimal(num) / Decimal(den))  # exact: 1.5078125, ...


def _paircorr(alpha: str, n_list: tuple[int, ...]) -> Job:
    argv = ("paircorr", "--family", "monomial:k=2",
            "--N-list", ",".join(map(str, n_list)), "--s", "1",
            "--alpha", alpha)
    return Job("paircorr-curve", argv,
               {"family": "monomial:k=2", "alpha": alpha,
                "n_list": n_list, "s": 1})


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's job batch for `seed`; `smoke` selects tiny sizes."""
    rng = random.Random("%s/%d" % (name, seed))
    if name == "walk-k2":
        # The paper's main statistic on its main family.  The incremental
        # walk multiplies balanced 0.1-0.2 Mbit operands.
        n_list = (10, 20, 40) if smoke else (125, 250, 500)
        jobs = (_paircorr(band_alpha(rng), n_list),)
        why = ("main statistic on the main family: balanced 0.1-0.2 Mbit "
               "multiplies in the orbit walk")
    elif name == "walk-short":
        # Same command at short literals (README, criterion 9).  The walk
        # multiplies a ~0.6 Mbit running product by a gap power of a few
        # kbit: a multiply that only wins on balanced operands regresses here.
        n_list = (20, 40, 80) if smoke else (250, 500, 1000)
        jobs = (_paircorr(short_alpha_text(rng), n_list),)
        why = ("short dyadic alphas: lopsided multiplies of a ~0.6 Mbit "
               "running product by a few-kbit gap power")
    elif name == "pow-factorial":
        # ball_pow squarings of ~2.1 Mbit operands dominate; this is the size
        # at which a faster multiply gains most and segmentation barely helps.
        # N=11 takes minutes per job and is excluded (see NOTES.md).
        n = 6 if smoke else 10
        alpha = band_alpha(rng)
        argv = ("orbit", "--family", "factorial", "--N", str(n),
                "--alpha", alpha)
        jobs = (Job("orbit", argv,
                    {"family": "factorial", "alpha": alpha, "N": n}),)
        why = ("factorial degrees: ball_pow squarings of ~2.1 Mbit "
               "operands, where a faster multiply gains most")
    elif name == "session-linpow":
        # One interval study of the linear-power control family.  Multiplies
        # stay under ~4 kbit, so multiply and walk changes should not move
        # it; it is the only workload that measures secondmoment,
        # hypothesis, measure and star_discrepancy.
        a = Decimal("1.500") + Decimal("0." + "000" + _digits(rng, 3))
        b = a + Decimal("0.1")
        mid = a + Decimal("0.05")
        a_t, b_t, mid_t = str(a), str(b), str(mid)
        n_disc = 200 if smoke else 4000
        n_list = (50, 100, 200) if smoke else (1000, 2000, 4000)
        hyp_bounds = ("--n1-max", "20", "--n2-max", "40") if smoke else ()
        n2 = 6 if smoke else 12
        threads = nproc()
        jobs = (
            Job("hypothesis",
                ("hypothesis", "--family", "linpow", "--a", a_t, "--b", b_t)
                + hyp_bounds,
                {"family": "linpow"}),
            Job("measure",
                ("measure", "--family", "linpow", "--n1", "3",
                 "--n2", str(n2), "--a", a_t, "--b", b_t,
                 "--target-c", "0", "--target-d", "0.25"),
                {"n1": 3, "n2": n2, "c": "0", "d": "0.25"}),
            Job("discrepancy",
                ("discrepancy", "--family", "linpow", "--alpha", mid_t,
                 "--N", str(n_disc)),
                {"family": "linpow", "alpha": mid_t, "N": n_disc}),
            Job("second-moment",
                ("second-moment", "--family", "linpow", "--a", a_t,
                 "--b", b_t, "--s", "1",
                 "--N-list", ",".join(map(str, n_list)),
                 "--threads", str(threads)),
                {"n_list": n_list, "K": 16, "threads": threads}),
        )
        why = ("linpow interval study: small multiplies; the only workload "
               "that measures secondmoment, hypothesis and measure")
    else:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (name, ", ".join(NAMES)))
    return Workload(name, why, jobs)
