"""Command-line front end.

Subcommands: ``check`` (run one property verifier on an instance file),
``maximize`` (run an algorithm; ``--exact`` switches the randomized
algorithms to their exact expectation), and ``bench`` (run a suite and
print its report, one row per run with its ratio and bound).

Exit codes: 0 when the property holds / all bounds are satisfied, 1 on a
property or bound violation, 2 on input or usage errors, on results that
are not finite and on a stdout closed before the result is written.
stdout carries exactly one JSON document per invocation; diagnostics go to
stderr.  Each flag is checked by its argparse type, so a bad value exits 2
through argparse's usage message, which names the flag; command bodies
only dispatch, after ``maximize`` refuses any flag its mode would ignore.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterator

from .checks import (
    check_characterization,
    check_k_submodular,
    check_orthant_pair_inequality,
    check_orthant_submodular,
    check_r_wise_monotone,
)
from .core import (
    DEFAULT_MAX_PAIRS,
    DEFAULT_MAX_STATES,
    EPS,
    Dims,
    InputError,
    OracleRangeError,
    PreconditionError,
)
from .instances import parse_instance
from .maximize import (
    brute_force_max,
    det_greedy_guarantee,
    deterministic_greedy,
    empirical_expectation,
    exact_expectation_random_orthant,
    exact_expectation_randomized_greedy,
    naive_random_sample,
    rand_greedy_guarantee_ksub,
    random_orthant_guarantee,
    randomized_greedy,
)
from .zoo import (
    GraphInstance,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    random_ksubmodular,
    tabulate,
)


def _flag(parse, ok, rule: str):
    """argparse type: ``parse`` the text and require ``ok`` of the value;
    either failing exits 2 through argparse's usage, naming the flag."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")

    return convert


def _int_range(text: str) -> list:
    """Parse "2..6", "4", or "2,3,5" into a list of ints."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


_CHECKERS = {
    "ksub": check_k_submodular,
    "orthant": check_orthant_submodular,
    "characterization": check_characterization,
    "orthant-pairs": check_orthant_pair_inequality,
}


def _checker(text: str):
    """The --property checker, called as checker(table, eps, max_pairs), or
    None for an unknown name or an r below 1; r above k is refused at run
    time, as it depends on the instance."""
    name, _, arity = text.partition(":")
    if name == "monotone":
        r = int(arity)
        if r < 1:
            return None
        return lambda table, eps, max_pairs: check_r_wise_monotone(table, r, eps)
    return _CHECKERS.get(text)


_positive_int = _flag(int, lambda v: v >= 1, "a positive integer")
_seed = _flag(int, lambda v: v >= 0, "an integer >= 0")
_eps = _flag(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_order = _flag(lambda text: tuple(int(e) for e in text.split(",")), bool,
               "a comma-separated list of element indices")
_k_values = _flag(_int_range, lambda ks: ks and min(ks) >= 2,
                  "a non-empty range of k >= 2")
_r_values = _flag(_int_range, lambda rs: rs and min(rs) >= 1,
                  "a non-empty range of r >= 1")
_property = _flag(_checker, bool, "one of ksub, orthant, monotone:<r> with r >= 1, "
                  "characterization, orthant-pairs")


def _emit(doc: dict) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OracleRangeError(f"result holds a non-finite number: {exc}") from exc
    print(text, flush=True)  # a closed stdout raises here, inside main


def _load_instance(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    return parse_instance(text).build()


def cmd_check(args: argparse.Namespace) -> int:
    table = tabulate(_load_instance(args.instance), max_states=args.max_states)
    report = args.property(table, args.eps, args.max_pairs)
    _emit(report.to_json())
    return 0 if report.holds else 1


def _refuse_ignored_flags(args: argparse.Namespace) -> None:
    """Refuse a maximize flag that the chosen mode would ignore, naming it
    and the flag that rules it out."""
    algo = f"--algo {args.algo}"
    randomized = args.algo in ("random", "greedy-rand")
    seeded = args.seed is not None
    rules = (
        ("--exact", algo, args.exact and not randomized),
        ("--trials", algo, args.trials is not None and not randomized),
        ("--trials", "--exact", args.trials is not None and args.exact),
        ("--seed", algo, seeded and not randomized),
        ("--seed", "--exact", seeded and args.exact),
        ("--orthants-only", algo, args.orthants_only and args.algo != "brute"),
        ("--order", algo, args.order is not None and args.algo in ("brute", "random")),
    )
    for flag, rival, ignored in rules:
        if ignored:
            raise InputError(f"{flag} does not apply to {rival}")


def cmd_maximize(args: argparse.Namespace) -> int:
    algo, order, eps = args.algo, args.order, args.eps
    _refuse_ignored_flags(args)
    seed = 0 if args.seed is None else args.seed
    trials = 1 if args.trials is None else args.trials
    oracle = _load_instance(args.instance)
    if args.exact:
        if algo == "random":
            value = exact_expectation_random_orthant(oracle, max_states=args.max_states)
        else:
            value = exact_expectation_randomized_greedy(
                oracle, order, eps, max_states=args.max_states
            )
        _emit({"algorithm": algo, "mode": "exact-expectation",
               "expectation": value, "evals": oracle.calls})
        return 0
    if trials > 1:
        name = "greedy_rand" if algo == "greedy-rand" else "random"
        mean, stderr = empirical_expectation(oracle, name, trials, seed, order, eps)
        _emit({"algorithm": algo, "mode": "empirical-expectation",
               "trials": trials, "seed": seed, "mean": mean, "stderr": stderr})
        return 0
    if algo == "brute":
        result = brute_force_max(
            oracle, over_orthants_only=args.orthants_only, max_states=args.max_states
        )
    elif algo == "random":
        result = naive_random_sample(oracle, seed)
    elif algo == "greedy-det":
        result = deterministic_greedy(oracle, order, eps)
    else:
        result = randomized_greedy(oracle, seed, order, eps)
    _emit(result.to_json())
    return 0


def _paper_tight(args: argparse.Namespace) -> Iterator[tuple]:
    """Per k: the random orthant on an instance where its guarantee is
    tight, the deterministic greedy on det_greedy_tight(k, r) for each r of
    --r in [1, k] (default every r), and the randomized greedy on the
    coverage instance.  Yields (instance, oracle, k, r, seed, runs) with
    runs a list of (algorithm, mode, value, guarantee).  An --r value
    above every --k value would drop its rows unseen, so it is refused."""
    if args.r and max(args.r) > max(args.k):
        raise InputError(f"--r {max(args.r)} is above every --k value "
                         f"(largest {max(args.k)})")
    for k in args.k:
        if k == 2:
            edge = GraphInstance(2, ((0, 1),), directed=True)
            name, oracle = "layer_layout_edge", make_layer_layout(edge, 2)
        else:
            name, oracle = "indicator", make_indicator(k, 1)
        value = exact_expectation_random_orthant(oracle, args.max_states)
        yield name, oracle, k, None, None, [
            ("random", "exact-expectation", value, random_orthant_guarantee(k))
        ]
        for r in args.r or range(1, k + 1):
            if r <= k:
                oracle = make_det_greedy_tight(k, r)
                value = deterministic_greedy(oracle, eps=args.eps).value
                yield "det_greedy_tight", oracle, k, r, None, [
                    ("greedy-det", "single-run", value, det_greedy_guarantee(r))
                ]
        oracle = make_coverage_tight(k)
        value = exact_expectation_randomized_greedy(
            oracle, eps=args.eps, max_states=args.max_states
        )
        yield "coverage_tight", oracle, k, None, None, [
            ("greedy-rand", "exact-expectation", value, rand_greedy_guarantee_ksub(k))
        ]


def _random_ksub(args: argparse.Namespace) -> Iterator[tuple]:
    """--trials seeded random k-submodular tables on 3 elements per k, each
    run by all three algorithms; yields as :func:`_paper_tight` does."""
    eps, cap = args.eps, args.max_states
    for k in args.k:
        for t in range(args.trials):
            seed = args.seed * 1_000_003 + k * 1_009 + t
            table = random_ksubmodular(Dims(3, k), atoms=6, seed=seed)
            yield "random_ksub", table, k, None, seed, [
                ("greedy-det", "single-run", deterministic_greedy(table, eps=eps).value,
                 det_greedy_guarantee(2)),
                ("random", "exact-expectation",
                 exact_expectation_random_orthant(table, cap),
                 random_orthant_guarantee(k)),
                ("greedy-rand", "exact-expectation",
                 exact_expectation_randomized_greedy(table, eps=eps, max_states=cap),
                 rand_greedy_guarantee_ksub(k)),
            ]


_SUITES = {"paper-tight": _paper_tight, "random-ksub": _random_ksub}

def cmd_bench(args: argparse.Namespace) -> int:
    rows = []
    for instance, oracle, k, r, seed, runs in _SUITES[args.suite](args):
        opt = brute_force_max(oracle, max_states=args.max_states).value
        for algorithm, mode, value, bound in runs:
            ratio = value / opt if opt > 0 else None
            satisfied = True if ratio is None else ratio >= bound - args.eps
            rows.append(dict(instance=instance, k=k, r=r, algorithm=algorithm, mode=mode,
                             value=value, opt=opt, ratio=ratio, bound=bound,
                             bound_satisfied=satisfied, seed=seed))
    held = all(row["bound_satisfied"] for row in rows)
    _emit({"suite": args.suite, "eps": args.eps, "k_values": args.k, "rows": rows,
           "all_bounds_satisfied": held})
    return 0 if held else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=_eps, default=EPS,
                        help="comparison tolerance, finite and >= 0 (default 1e-9)")
    parser.add_argument("--max-states", type=_positive_int, default=DEFAULT_MAX_STATES,
                        help="cap on enumerated assignments (default 10^6)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksub",
        description="Verify and maximize k-submodular and related k-set functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a property verifier on an instance")
    p_check.add_argument("instance", help="path to an instance JSON file")
    p_check.add_argument("--property", required=True, type=_property,
                         help="ksub | orthant | monotone:<r> | characterization"
                         " | orthant-pairs")
    p_check.add_argument("--max-pairs", type=_positive_int, default=DEFAULT_MAX_PAIRS,
                         help="cap on the local rows, then the pairs, a checker"
                         " scans (default 10^8)")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_max = sub.add_parser("maximize", help="run a maximization algorithm")
    p_max.add_argument("instance", help="path to an instance JSON file")
    p_max.add_argument("--algo", required=True,
                       choices=["brute", "random", "greedy-det", "greedy-rand"])
    p_max.add_argument("--exact", action="store_true",
                       help="print the exact expectation instead of running")
    p_max.add_argument("--orthants-only", action="store_true",
                       help="restrict brute force to full partitions")
    p_max.add_argument("--seed", type=_seed, default=None, help="RNG seed (default 0)")
    p_max.add_argument("--trials", type=_positive_int, default=None,
                       help="number of seeded runs for empirical expectations")
    p_max.add_argument("--order", type=_order, default=None,
                       help="element order as a comma-separated permutation")
    _add_common(p_max)
    p_max.set_defaults(func=cmd_maximize)

    p_bench = sub.add_parser("bench", help="run a benchmark suite, print its report")
    p_bench.add_argument("--suite", required=True, choices=_SUITES)
    p_bench.add_argument("--k", required=True, type=_k_values,
                         help="k values >= 2, e.g. 2..6 or 3 or 2,4,6")
    p_bench.add_argument("--r", type=_r_values, default=None,
                         help="restrict the tight greedy family to arities r >= 1")
    p_bench.add_argument("--trials", type=_positive_int, default=100,
                         help="random tables per k for the random-ksub suite")
    p_bench.add_argument("--seed", type=_seed, default=0, help="base seed (default 0)")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PreconditionError, OracleRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the result was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
