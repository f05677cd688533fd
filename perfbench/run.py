"""ksubmax benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload check-tables --seed 1 --seconds 10 --trace 0

Run from the root of a ksubmax checkout.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
The full record, stamped with machine, versions, git SHA and seed, is
written to ``perfbench/results/``.  ``--setup-only`` and ``--rung`` are
the child modes the benchmark starts itself.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/ksubmax/__init__.py", "tests/oracles.py")


def load_library() -> dict:
    """Import the ksubmax modules from this checkout's source tree.

    This runs before the benchmark's own modules are imported, so the time
    it takes includes numpy, as it does for a user."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    modules = {layer: importlib.import_module(f"ksubmax.{layer}") for layer in tracing.LAYERS}
    origin = Path(modules["core"].__file__).resolve()
    if src not in origin.parents:
        raise RuntimeError(f"ksubmax was imported from {origin}, not from {src}")
    return modules


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--rung", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: {ROOT} is not a ksubmax checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    start = time.perf_counter()
    modules = load_library()
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(ROOT / "tests"))
    import harness
    import reach
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only or args.rung is not None:
        workdir = ROOT / "perfbench" / "work" / f"child-{os.getpid()}"
        wl = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        lib = tracing.Lib(modules)
        try:
            if args.setup_only:
                wl.setup(lib)
                print(json.dumps({"setup_s": time.perf_counter() - start, "import_s": import_s}))
                return 0
            return wl.rung(lib, args.rung)
        except (modules["core"].InputError, MemoryError):
            return reach.REFUSED
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    result = harness.run(ROOT, modules, start, import_s, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    out = ROOT / "perfbench" / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(result, default=float) + "\n")
    for metric, entry in result["metrics"].items():
        print(f"{args.workload:14s} {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        print(f"{'':14s} job_tail_ms is p{result['job_tail_percentile']} of "
              f"{result['jobs_in_percentiles']} jobs in whole passes ({result['jobs']} run); "
              f"failed_frac {result['failed_frac']:.6g}; reach ladder {result['reach_ladder']}")
        raw = result["unscaled"]
        print(f"{'':14s} host probe {result['host']['probe_median_s'] * 1e3:.3f} ms against "
              f"{result['host']['probe_reference_s'] * 1e3:.3f} ms; unscaled "
              + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    for problems in result["failures"]:
        print(f"FAILED: {problems}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
