"""Command-line front door for orbits, statistics, and verification runs.

Six subcommands: `orbit` writes certified point files, `paircorr` and
`discrepancy` evaluate statistics on orbits or saved point sets, `hypothesis`
runs the growth/convexity condition checks, `measure` verifies level-set
measures, and `second-moment` sweeps the variance of the pair-correlation
statistic over an alpha interval.  `paircorr` has one route to an orbit's
pair counts for --N and --N-list alike, paircorr.ppc_curve, which applies
paircorr's resolution policy (the default delta, the blur bound); the points
of an --in file go straight to paircorr.pair_count.

Exit codes: 0 success, 1 usage error (single machine-readable line on stderr
before any computation), 2 numeric or precision failure.  Every input rule
(alpha > 1 on its 128-bit grid, delta, s > 0 within the float range and the
blur bound, 1 < a < b with b within the float range, tol, the target arc,
whose length has a nonzero float, the hypothesis scan bounds) lives in the
library function or constructor that owns the value, with hpreal.check_float
the one float rule; this module only turns flag text into values and adds
the rules of the command line itself: N >= 2 and the flag combinations,
stated in the parser where argparse can state them.  `main` maps errors in
one place: PrecisionOverflow, IndeterminateFrac and OverflowError, the one
signal of a result past the float range (JSON holds no Infinity or NaN),
exit 2 as "precision"; TooBlurry, LevelCapExceeded and NonMonotone exit 2 as
"numeric"; a broken second-moment worker pool exits 2 as "worker"; any other
ValueError, wherever it is raised, is a usage error and exits 1, so library
messages never print an unbounded int in full.  An --out file that cannot be
written is the one usage error reported after the computation.

Caps, each checked before any work: the decimal exponent of a number in a
flag or an --in point line (hpreal.LITERAL_EXP_CAP, 4300), orbit points and
the N in an --in file's header (families.ORBIT_N_CAP, 100000), --n-max,
--grid-size and --n2-max of hypothesis (20, 256, 5000) and its sampled
geomsum degree n_max^k + 1 (1025), a degree n^k (families.DEGREE_CAP_BITS,
2048 bits), --tol of measure ([1e-30, 1e-6]) and --K of second-moment (4096).

Every emitted artifact embeds a replay block built from the parsed command
line: the subcommand, then every flag that is set, in the order --help lists
them, with the default --delta written out.  --out and --threads are left out,
so replays to a different location, or with different parallelism, compare
equal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from ppclab import __version__
from ppclab.families import (DifferenceMap, IntervalSpec, PowerMap, orbit,
                             parse_family)
from ppclab.hpreal import (
    ALPHA_BITS,
    MUL_BACKEND,
    IndeterminateFrac,
    LatticePoints,
    PrecisionOverflow,
    check_literal,
    parse_alpha,
)
from ppclab.hypothesis import check_hypotheses, report_to_json
from ppclab.measure import (
    CircleInterval,
    LevelCapExceeded,
    NonMonotone,
    level_set_measure,
    measure_to_json,
)
from ppclab.paircorr import (
    TooBlurry,
    default_delta,
    pair_count,
    points_text,
    ppc_curve,
    read_points,
    star_discrepancy,
)
from ppclab.secondmoment import (
    QuadratureSpec,
    WorkerFailed,
    decay_fit,
    second_moment_series,
    series_to_csv,
    series_to_json,
)

_SELFTEST_N = (125, 250, 500, 1000)
# namespace entries that never change an artifact's bytes
_NOT_REPLAYED = ("cmd", "out", "threads", "selftest")


class _UsageError(ValueError):
    """A rule of the command line itself; library rules raise ValueError."""


class _Parser(argparse.ArgumentParser):
    # single-line machine-readable errors instead of argparse's usage dump
    def error(self, message):
        raise _UsageError(message)


class _Formatter(argparse.HelpFormatter):
    # fixed width so --help output does not depend on the terminal
    def __init__(self, prog):
        super().__init__(prog, width=78)


def _frac(text: str, flag: str) -> Fraction:
    try:
        return check_literal(text)
    except ValueError as exc:
        raise _UsageError("%s: %s" % (flag, exc)) from None


def _interval(ns) -> IntervalSpec:
    return IntervalSpec(_frac(ns.a, "--a"), _frac(ns.b, "--b"))


def _n(text: str) -> int:
    # an argparse type: ArgumentTypeError keeps its message, where a
    # ValueError would be replaced by "invalid _n value"
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected an integer, got %r" % text) from None
    if n < 2:
        raise argparse.ArgumentTypeError("N must be >= 2, got %r" % text)
    return n


def _n_list(text: str) -> tuple[int, ...]:
    return tuple(_n(part) for part in text.split(","))


def _config(ns) -> dict:
    """The replay block: the subcommand, then every set flag in parser order
    (the order is part of every artifact's bytes)."""
    block = {"subcommand": ns.cmd}
    for key, value in vars(ns).items():
        if key in _NOT_REPLAYED or value is None or value is False:
            continue
        block[key] = ",".join(map(str, value)) if key == "N_list" else value
    return block


def _json_payload(doc: dict, ns) -> str:
    """A JSON artifact: the result document, then its replay block."""
    try:
        return json.dumps(dict(doc, config=_config(ns)), indent=2,
                          allow_nan=False) + "\n"
    except ValueError:  # JSON holds no Infinity or NaN
        raise OverflowError("a result leaves the float range") from None


def _delta(ns, s: Fraction | None, n_max: int) -> Fraction:
    """--delta's value; by default paircorr.default_delta(s, n_max), 2^-40
    or finer for a pair statistic at scale s, whose text goes into ns.delta
    so that the replay block records it."""
    if ns.delta is None:
        ns.delta = str(default_delta(s, n_max))
    return _frac(ns.delta, "--delta")


def _family_alpha(ns):
    """--family and --alpha as values, once they and --N (or paircorr's
    --N-list) are given."""
    if ns.family is None or ns.alpha is None:
        raise _UsageError("need --family and --alpha (or --in FILE)")
    family, alpha = parse_family(ns.family), parse_alpha(ns.alpha, ALPHA_BITS)
    if ns.N is None and getattr(ns, "N_list", None) is None:
        raise _UsageError("need --N (or --in FILE)")
    return family, alpha


def _points(ns) -> LatticePoints:
    """The points a command runs on: read from --in, which replaces the
    family flags, or walked as the orbit --family/--alpha/--N/--delta
    describe; on one lattice either way."""
    path = getattr(ns, "in", None)  # orbit takes no --in
    if path is not None:
        if any(getattr(ns, key, None) is not None
               for key in ("family", "alpha", "N", "N_list", "delta")):
            raise _UsageError("--in replaces the family flags; drop "
                              "--family/--alpha/--N/--N-list/--delta")
        try:
            return read_points(path)
        except OSError as exc:
            raise _UsageError("--in: %s" % exc) from None
    family, alpha = _family_alpha(ns)
    return orbit(family, alpha, ns.N, _delta(ns, None, ns.N),
                 threads=ns.threads).points


# ---------------------------------------------------------------- subcommands


def _cmd_orbit(ns) -> str:
    points = _points(ns)  # first: it fills in the default --delta
    return points_text(points, ["config " + json.dumps(_config(ns))])


def _cmd_paircorr(ns) -> str:
    s = _frac(ns.s, "--s")
    if getattr(ns, "in") is not None:
        results = [pair_count(_points(ns), s)]
    else:
        if ns.N is not None and ns.N_list is not None:
            raise _UsageError("need exactly one of --N or --N-list")
        family, alpha = _family_alpha(ns)
        n_list = ns.N_list or (ns.N,)
        results = ppc_curve(family, alpha, s, n_list,
                            _delta(ns, s, max(n_list)), threads=ns.threads)
    if ns.format == "csv":
        return "".join(["N,statistic\n"] + ["%d,%r\n" % (r.N, r.statistic)
                                             for r in results])
    if ns.N_list is None:
        res, = results
        return _json_payload({
            "schema": "paircorr-result v1",
            "N": res.N,
            "s": res.s,
            "ordered_count": res.ordered_count,
            "statistic": res.statistic,
        }, ns)
    return _json_payload({
        "schema": "paircorr-curve v1",
        "s": float(s),
        "entries": [{"N": r.N, "statistic": r.statistic} for r in results],
    }, ns)


def _cmd_discrepancy(ns) -> str:
    res = star_discrepancy(_points(ns))
    return _json_payload({
        "schema": "discrepancy-result v1",
        "N": res.N,
        "d_star": res.d_star,
    }, ns)


def _cmd_hypothesis(ns) -> str:
    report = check_hypotheses(parse_family(ns.family), _interval(ns),
                              n_max=ns.n_max, grid_size=ns.grid_size,
                              n1_search_max=ns.n1_max,
                              n2_verify_max=ns.n2_max)
    return _json_payload(report_to_json(report), ns)


def _cmd_measure(ns) -> str:
    interval = _interval(ns)
    if ns.degree is not None:
        if ns.n1 is not None or ns.n2 is not None:
            raise _UsageError("--n1/--n2 only apply with --family")
        g = PowerMap(ns.degree)
    else:
        if ns.n1 is None or ns.n2 is None:
            raise _UsageError("difference maps need --n1 and --n2")
        g = DifferenceMap(parse_family(ns.family), ns.n1, ns.n2)
    c = _frac(ns.target_c, "--target-c")
    d = _frac(ns.target_d, "--target-d")
    target = CircleInterval.wrap(c, d) if ns.wrap else CircleInterval.arc(c, d)
    result = level_set_measure(g, interval, target, _frac(ns.tol, "--tol"))
    return _json_payload(measure_to_json(result, target), ns)


def _cmd_second_moment(ns) -> str:
    if ns.selftest:
        plain = vars(build_parser().parse_args(["second-moment"]))
        if any(value != plain[key] for key, value in vars(ns).items()
               if key not in _NOT_REPLAYED and key != "N_list"):
            raise _UsageError("--selftest takes only --N-list, --out and "
                              "--threads")
        n_list = ns.N_list if ns.N_list is not None else _SELFTEST_N
        slope, _ = decay_fit([(n, 1.0 / n) for n in n_list])
        return "exponent %.3f\n" % slope
    if ns.family is None or ns.a is None or ns.b is None or ns.s is None:
        raise _UsageError("need --family, --a, --b and --s")
    if (ns.N is None) == (ns.N_list is None):
        raise _UsageError("need exactly one of --N or --N-list")
    family = parse_family(ns.family)
    interval = _interval(ns)
    s = _frac(ns.s, "--s")
    n_list = ns.N_list if ns.N_list is not None else (ns.N,)
    delta = _delta(ns, s, max(n_list))
    quad = QuadratureSpec(ns.mode, ns.K, ns.seed)
    series = second_moment_series(family, interval, s, list(n_list), quad,
                                  delta=delta, threads=ns.threads)
    if ns.format == "csv":
        return series_to_csv(series)
    return _json_payload(series_to_json(series), ns)


# -------------------------------------------------------------------- parser


def _add_family(sub, required: bool):
    sub.add_argument("--family", required=required,
                     help="sequence family spec, e.g. monomial:k=2, "
                          "geomsum:k=3, factorial, linpow, kronecker")


def _add_orbit_flags(sub, required: bool):
    """--family/--alpha/--N; optional where --in may replace them."""
    _add_family(sub, required)
    sub.add_argument("--alpha", required=required,
                     help="alpha as decimal or fraction text; parsed to "
                          "128 fractional bits")
    sub.add_argument("--N", type=_n, required=required, help="orbit length")


def _add_delta(sub, default: str):
    sub.add_argument("--delta", help="per-point error budget (default %s)"
                                     % default)


def _add_interval(sub, required: bool):
    sub.add_argument("--a", required=required,
                     help="interval left endpoint (> 1)")
    sub.add_argument("--b", required=required, help="interval right endpoint")


def build_parser() -> argparse.ArgumentParser:
    """The parser; its add_argument order is the replay block's key order."""
    parser = _Parser(prog="ppclab", formatter_class=_Formatter,
                     description="pair-correlation laboratory for "
                                 "fast-growing polynomial sequences")
    parser.add_argument("--version", action="version",
                        version="ppclab %s (multiply: %s)"
                                % (__version__, MUL_BACKEND))
    subs = parser.add_subparsers(dest="cmd", required=True,
                                 metavar="subcommand")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="output file (default: stdout)")
    shared.add_argument("--threads", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="worker processes for second-moment nodes, "
                             "threads for an orbit's segments (default: "
                             "available parallelism); never changes the "
                             "output bytes")
    pair_delta = "min(2^-40, s/(200 N))"

    p = subs.add_parser("orbit", parents=[shared], formatter_class=_Formatter,
                        help="write the first N certified orbit points")
    _add_orbit_flags(p, required=True)
    _add_delta(p, "2^-40")

    p = subs.add_parser("paircorr", parents=[shared],
                        formatter_class=_Formatter,
                        help="pair-correlation statistic of an orbit or file")
    _add_orbit_flags(p, required=False)
    p.add_argument("--N-list", type=_n_list, dest="N_list",
                   help="comma-separated prefix lengths for a curve")
    p.add_argument("--s", required=True, help="pair-correlation scale")
    _add_delta(p, pair_delta)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--in", help="ppc-points v1 file")

    p = subs.add_parser("discrepancy", parents=[shared],
                        formatter_class=_Formatter,
                        help="star discrepancy of an orbit or file")
    _add_orbit_flags(p, required=False)
    _add_delta(p, "2^-40")
    p.add_argument("--in", help="ppc-points v1 file")

    p = subs.add_parser("hypothesis", parents=[shared],
                        formatter_class=_Formatter,
                        help="check the five growth/convexity conditions")
    _add_family(p, required=True)
    _add_interval(p, required=True)
    p.add_argument("--n-max", type=int, default=8, dest="n_max",
                   help="indices checked for degree growth (default 8, "
                        "max 20)")
    p.add_argument("--grid-size", type=int, default=64, dest="grid_size",
                   help="grid for sampled constants (default 64, max 256)")
    p.add_argument("--n1-max", type=int, default=200, dest="n1_max",
                   help="search bound for N1 (default 200)")
    p.add_argument("--n2-max", type=int, default=500, dest="n2_max",
                   help="verification bound for n2 (default 500)")

    p = subs.add_parser("measure", parents=[shared],
                        formatter_class=_Formatter,
                        help="level-set measure of frac(g) in a target arc")
    g_source = p.add_mutually_exclusive_group(required=True)
    _add_family(g_source, required=False)
    _add_interval(p, required=True)
    g_source.add_argument("--degree", type=int,
                          help="use g(alpha) = alpha^degree (exactly one "
                               "of --degree and --family)")
    p.add_argument("--n1", type=int, help="difference map lower index")
    p.add_argument("--n2", type=int, help="difference map upper index")
    p.add_argument("--target-c", required=True, dest="target_c",
                   help="target arc start in [0,1]")
    p.add_argument("--target-d", required=True, dest="target_d",
                   help="target arc end in [0,1]")
    p.add_argument("--wrap", action="store_true",
                   help="target arc crosses zero")
    p.add_argument("--tol", default="1e-9",
                   help="endpoint resolution (default 1e-9, range "
                        "[1e-30, 1e-6])")

    p = subs.add_parser("second-moment", parents=[shared],
                        formatter_class=_Formatter,
                        help="variance of the statistic over alpha nodes")
    _add_family(p, required=False)
    _add_interval(p, required=False)
    p.add_argument("--N", type=_n, help="single N")
    p.add_argument("--N-list", type=_n_list, dest="N_list",
                   help="comma-separated N values")
    p.add_argument("--s", help="pair-correlation scale")
    _add_delta(p, pair_delta)
    p.add_argument("--seed", type=int, default=0,
                   help="SplitMix64 seed for random nodes (default 0)")
    p.add_argument("--K", type=int, default=16, help="quadrature nodes "
                                                     "(default 16)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--mode", choices=("midpoint", "random"),
                   default="midpoint", help="node placement")
    p.add_argument("--selftest", action="store_true",
                   help="fit the synthetic series V = 1/N and print "
                        "the exponent")
    return parser


_HANDLERS = {
    "orbit": _cmd_orbit,
    "paircorr": _cmd_paircorr,
    "discrepancy": _cmd_discrepancy,
    "hypothesis": _cmd_hypothesis,
    "measure": _cmd_measure,
    "second-moment": _cmd_second_moment,
}


def _emit(out: str | None, payload: str) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise _UsageError("--out: %s" % exc) from None


def _fail(doc: dict, code: int) -> int:
    print(json.dumps(doc), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        if ns.threads < 1:
            raise _UsageError("--threads must be >= 1")
        _emit(ns.out, _HANDLERS[ns.cmd](ns))
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (None, 0) else int(exc.code)
    except (PrecisionOverflow, IndeterminateFrac, OverflowError) as exc:
        return _fail({"error": "precision", "detail": str(exc),
                      "index": getattr(exc, "index", None)}, 2)
    # TooBlurry, LevelCapExceeded and NonMonotone subclass ValueError, so
    # they are caught before the usage clause
    except (LevelCapExceeded, NonMonotone, TooBlurry) as exc:
        return _fail({"error": "numeric", "detail": str(exc)}, 2)
    except WorkerFailed as exc:  # a second-moment worker died
        return _fail({"error": "worker", "detail": str(exc)}, 2)
    except ValueError as exc:  # _UsageError and every library input rule
        return _fail({"error": "usage", "detail": str(exc)}, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
