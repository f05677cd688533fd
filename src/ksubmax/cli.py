"""Command-line front end.

Subcommands: ``check`` (run one property verifier on an instance file),
``maximize`` (run an algorithm; ``--exact`` switches the randomized
algorithms to their exact expectation), and ``bench`` (run a suite and
write a JSON report with a CSV twin).

Exit codes: 0 when the property holds / all bounds are satisfied, 1 on a
property or bound violation, 2 on input or usage errors and on results
that are not finite.  stdout carries exactly one JSON document per
invocation; diagnostics go to stderr.  The
environment variable ``KSUB_MAX_STATES`` overrides the default enumeration
cap; an explicit ``--max-states`` flag wins over both.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

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


def _positive_int(text: str) -> int:
    """argparse type for caps: a positive integer."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")


def _default_max_states() -> int:
    env = os.environ.get("KSUB_MAX_STATES")
    if env is None:
        return DEFAULT_MAX_STATES
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"KSUB_MAX_STATES: {exc}") from exc


def _emit(doc: dict) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OracleRangeError(f"result holds a non-finite number: {exc}") from exc
    print(text)


def _load_instance(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    return parse_instance(text).build()


def _parse_order(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"--order {text!r} is not a comma-separated permutation") from exc


def _parse_range(text: str) -> list:
    """Parse "2..6", "4", or "2,3,5" into a list of ints."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(part) for part in text.split(",")]
        return [int(text)]
    except ValueError as exc:
        raise InputError(f"cannot parse range {text!r}") from exc


def cmd_check(args: argparse.Namespace) -> int:
    oracle = _load_instance(args.instance)
    table = tabulate(oracle, max_states=args.max_states)
    prop = args.property
    if prop == "ksub":
        report = check_k_submodular(table, args.eps, args.max_pairs)
    elif prop == "orthant":
        report = check_orthant_submodular(table, args.eps, args.max_pairs)
    elif prop == "characterization":
        report = check_characterization(table, args.eps, args.max_pairs)
    elif prop == "orthant-pairs":
        report = check_orthant_pair_inequality(table, args.eps, args.max_pairs)
    elif prop.startswith("monotone:"):
        try:
            r = int(prop.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"--property {prop!r}: arity is not an integer") from exc
        report = check_r_wise_monotone(table, r, args.eps)
    else:
        raise InputError(
            f"--property {prop!r}: expected ksub, orthant, monotone:<r>, "
            "characterization, or orthant-pairs"
        )
    _emit(report.to_json())
    return 0 if report.holds else 1


def cmd_maximize(args: argparse.Namespace) -> int:
    oracle = _load_instance(args.instance)
    order = _parse_order(args.order)
    algo = args.algo
    if args.exact:
        if algo == "random":
            value = exact_expectation_random_orthant(oracle, max_states=args.max_states)
        elif algo == "greedy-rand":
            value = exact_expectation_randomized_greedy(
                oracle, order, args.eps, max_states=args.max_states
            )
        else:
            raise InputError(
                f"--exact applies to random and greedy-rand, not {algo!r}"
            )
        _emit(
            {
                "algorithm": algo,
                "mode": "exact-expectation",
                "expectation": value,
                "evals": oracle.calls,
            }
        )
        return 0
    if args.trials > 1:
        if algo not in ("random", "greedy-rand"):
            raise InputError(f"--trials applies to random and greedy-rand, not {algo!r}")
        mean, stderr = empirical_expectation(
            oracle,
            "greedy_rand" if algo == "greedy-rand" else "random",
            args.trials,
            args.seed,
            order,
            args.eps,
        )
        _emit(
            {
                "algorithm": algo,
                "mode": "empirical-expectation",
                "trials": args.trials,
                "seed": args.seed,
                "mean": mean,
                "stderr": stderr,
            }
        )
        return 0
    if algo == "brute":
        result = brute_force_max(
            oracle, over_orthants_only=args.orthants_only, max_states=args.max_states
        )
    elif algo == "random":
        result = naive_random_sample(oracle, args.seed)
    elif algo == "greedy-det":
        result = deterministic_greedy(oracle, order, args.eps)
    elif algo == "greedy-rand":
        result = randomized_greedy(oracle, args.seed, order, args.eps)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown algorithm {algo!r}")
    _emit(result.to_json())
    return 0


def _bench_row(
    instance: str,
    k: int,
    r: int | None,
    algorithm: str,
    mode: str,
    value: float,
    opt: float,
    bound: float,
    eps: float,
    trials: int | None = None,
    seed: int | None = None,
) -> dict:
    ratio = value / opt if opt > 0 else None
    satisfied = True if ratio is None else ratio >= bound - eps
    return {
        "instance": instance,
        "k": k,
        "r": r,
        "algorithm": algorithm,
        "mode": mode,
        "value": value,
        "opt": opt,
        "ratio": ratio,
        "bound": bound,
        "bound_satisfied": satisfied,
        "trials": trials,
        "seed": seed,
    }


def _paper_tight_rows(ks: list, rs: list | None, eps: float, max_states: int) -> list:
    rows = []

    def add(instance, oracle, k, r, algorithm, mode, value, bound):
        opt = brute_force_max(oracle, max_states=max_states).value
        rows.append(_bench_row(instance, k, r, algorithm, mode, value, opt, bound, eps))

    for k in ks:
        if k < 2:
            raise InputError(f"--k: paper-tight suite needs k >= 2, got {k}")
        if k == 2:
            edge = GraphInstance(2, ((0, 1),), directed=True)
            name, oracle = "layer_layout_edge", make_layer_layout(edge, 2)
        else:
            name, oracle = "indicator", make_indicator(k, 1)
        value = exact_expectation_random_orthant(oracle, max_states)
        add(name, oracle, k, None, "random", "exact-expectation",
            value, random_orthant_guarantee(k))
        for r in rs if rs is not None else range(1, k + 1):
            if not 1 <= r <= k:
                continue
            oracle = make_det_greedy_tight(k, r)
            value = deterministic_greedy(oracle, eps=eps).value
            add("det_greedy_tight", oracle, k, r, "greedy-det", "single-run",
                value, det_greedy_guarantee(r))
        oracle = make_coverage_tight(k)
        value = exact_expectation_randomized_greedy(oracle, eps=eps, max_states=max_states)
        add("coverage_tight", oracle, k, None, "greedy-rand", "exact-expectation",
            value, rand_greedy_guarantee_ksub(k))
    return rows


def _random_ksub_rows(
    ks: list, trials: int, seed: int, eps: float, max_states: int
) -> list:
    rows = []
    for k in ks:
        if k < 2:
            raise InputError(f"--k: random-ksub suite needs k >= 2, got {k}")
        for t in range(trials):
            table_seed = seed * 1_000_003 + k * 1_009 + t
            table = random_ksubmodular(Dims(3, k), atoms=6, seed=table_seed)
            opt = brute_force_max(table, max_states=max_states).value
            runs = (
                ("greedy-det", "single-run",
                 deterministic_greedy(table, eps=eps).value, det_greedy_guarantee(2)),
                ("random", "exact-expectation",
                 exact_expectation_random_orthant(table, max_states),
                 random_orthant_guarantee(k)),
                ("greedy-rand", "exact-expectation",
                 exact_expectation_randomized_greedy(table, eps=eps,
                                                     max_states=max_states),
                 rand_greedy_guarantee_ksub(k)),
            )
            for algorithm, mode, value, bound in runs:
                rows.append(_bench_row("random_ksub", k, None, algorithm, mode,
                                       value, opt, bound, eps, seed=table_seed))
    return rows


_CSV_COLUMNS = (
    "instance", "k", "r", "algorithm", "mode", "value", "opt",
    "ratio", "bound", "bound_satisfied", "trials", "seed",
)


def cmd_bench(args: argparse.Namespace) -> int:
    ks = _parse_range(args.k)
    if not ks:
        raise InputError(f"--k {args.k!r} describes an empty range")
    rs = _parse_range(args.r) if args.r is not None else None
    if args.suite == "paper-tight":
        rows = _paper_tight_rows(ks, rs, args.eps, args.max_states)
    elif args.suite == "random-ksub":
        rows = _random_ksub_rows(ks, args.trials, args.seed, args.eps, args.max_states)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown suite {args.suite!r}")
    report = {
        "suite": args.suite,
        "eps": args.eps,
        "k_values": ks,
        "rows": rows,
        "all_bounds_satisfied": all(row["bound_satisfied"] for row in rows),
    }
    out_path = Path(args.out)
    csv_path = out_path.with_suffix(".csv")
    try:
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            for row in rows:
                writer.writerow(
                    ["" if row[c] is None else row[c] for c in _CSV_COLUMNS]
                )
    except OSError as exc:
        raise InputError(f"cannot write report: {exc}") from exc
    _emit(
        {
            "suite": args.suite,
            "rows": len(rows),
            "violations": sum(1 for row in rows if not row["bound_satisfied"]),
            "out": str(out_path),
            "csv": str(csv_path),
        }
    )
    return 0 if report["all_bounds_satisfied"] else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=float, default=EPS,
                        help="comparison tolerance (default 1e-9)")
    parser.add_argument("--max-states", type=_positive_int, default=None,
                        help="cap on enumerated assignments (default 10^6, "
                        "or KSUB_MAX_STATES)")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--trials", type=int, default=1,
                        help="number of seeded runs for empirical expectations")
    parser.add_argument("--order", default=None,
                        help="element order as a comma-separated permutation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksub",
        description="Verify and maximize k-submodular and related k-set functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a property verifier on an instance")
    p_check.add_argument("instance", help="path to an instance JSON file")
    p_check.add_argument("--property", required=True,
                         help="ksub | orthant | monotone:<r> | characterization"
                         " | orthant-pairs")
    p_check.add_argument("--max-pairs", type=_positive_int, default=DEFAULT_MAX_PAIRS,
                         help="cap on enumerated assignment pairs (default 10^8)")
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
    _add_run_flags(p_max)
    _add_common(p_max)
    p_max.set_defaults(func=cmd_maximize)

    p_bench = sub.add_parser("bench", help="run a benchmark suite, write a report")
    p_bench.add_argument("--suite", required=True, choices=["paper-tight", "random-ksub"])
    p_bench.add_argument("--k", required=True,
                         help="k values, e.g. 2..6 or 3 or 2,4,6")
    p_bench.add_argument("--r", default=None,
                         help="restrict the tight greedy family to these arities")
    p_bench.add_argument("--trials", type=int, default=100,
                         help="random tables per k for the random-ksub suite")
    p_bench.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p_bench.add_argument("--out", required=True, help="report path (.json; CSV twin "
                         "written alongside)")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_states", None) is None:
            args.max_states = _default_max_states()
        return args.func(args)
    except (InputError, PreconditionError, OracleRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
