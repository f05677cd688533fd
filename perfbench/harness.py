"""Closed-loop measurement, metrics and the result record.

One client runs the workload's jobs back to back for the given number of
seconds; a job's time covers only its calls into ksubmax, and its output
is checked after the clock stops.  Between jobs the loop times the host
probe (see :mod:`hostprobe`), and the end-to-end timings are job times
scaled to the reference host speed.  An untraced run reports the end-to-end
metrics.  A traced run executes every job twice in a row, once through a
traced and once through an untraced library handle (alternating which goes
first), so it reports the per-layer metrics and the tracing overhead from
one process.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostprobe
import reach
import tracing
import reference as ref
from workloads import WORKLOADS

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("reach_states", "count"),
)

CHECK_SPANS = {
    "checks.k_submodular_s": "checks.check_k_submodular",
    "checks.orthant_submodular_s": "checks.check_orthant_submodular",
    "checks.r_wise_monotone_s": "checks.check_r_wise_monotone",
    "checks.orthant_pair_inequality_s": "checks.check_orthant_pair_inequality",
    "checks.characterization_s": "checks.check_characterization",
}
# The checkers whose pairs checks.pairs_per_s counts.
PAIR_SPANS = (
    "checks.check_k_submodular",
    "checks.check_orthant_submodular",
    "checks.check_orthant_pair_inequality",
)
# Busy-time metric -> the span it averages.
BUSY_SPANS = {
    **CHECK_SPANS,
    "maximize.brute_force_max_s": "maximize.brute_force_max",
    "maximize.exact_random_orthant_s": "maximize.exact_expectation_random_orthant",
    "maximize.exact_randomized_greedy_s": "maximize.exact_expectation_randomized_greedy",
    "maximize.deterministic_greedy_s": "maximize.deterministic_greedy",
    "maximize.empirical_expectation_s": "maximize.empirical_expectation",
    "zoo.tabulate_s": "zoo.tabulate",
    "instances.parse_s": "instances.parse_instance",
    "instances.build_s": "instances.InstanceSpec.build",
}

PER_LAYER = (
    ("core.oracle_calls", "count"),
    ("core.call_us", "us"),
    ("zoo.generate_s", "s"),
    ("zoo.tabulate_s", "s"),
    ("zoo.tabulate_states_per_s", "1/s"),
    *((name, "s") for name in CHECK_SPANS),
    ("checks.pairs_per_s", "1/s"),
    ("checks.useful_pair_frac", "ratio"),
    ("checks.rss_delta_mb", "MB"),
    ("checks.cold_s", "s"),
    ("maximize.brute_force_max_s", "s"),
    ("maximize.exact_random_orthant_s", "s"),
    ("maximize.exact_randomized_greedy_s", "s"),
    ("maximize.deterministic_greedy_s", "s"),
    ("maximize.states_per_s", "1/s"),
    ("maximize.evals_per_run", "count"),
    ("maximize.empirical_expectation_s", "s"),
    ("maximize.trial_us", "us"),
    ("instances.parse_s", "s"),
    ("instances.build_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.process_overhead_s", "s"),
    *((f"{layer}.self_frac", "ratio") for layer in tracing.LAYERS),
    ("trace.overhead_frac", "ratio"),
)

# Candidates for job_tail_ms: the highest with ten jobs beyond it is taken.
# Bands of at least 2.5x in job count (40, 100, 1000, ...) keep the choice
# steady under run-to-run speed swings.
PERCENTILES = (50, 75, 90, 99, 99.9)
# This process plus fresh children; setup_s is the median of their set-up
# times.  The import in each is taken as measured: loading and linking do
# not follow the probes.  The rest (input generation, warm-up) is the
# workload's own kind of work and is scaled like the job times, by the
# probe's reference over its median in the job loop.
SETUP_SAMPLES = 3
PROBE_WARMUP = 3  # untimed probe runs before the loop


def tail_percentile(samples, min_beyond: int = 10) -> tuple[float, float]:
    """The highest of PERCENTILES (nearest rank) with at least ``min_beyond``
    samples above it, and its value; the median when none qualifies."""
    xs = sorted(samples)
    best = (50, xs[math.ceil(len(xs) / 2) - 1])
    for p in PERCENTILES:
        rank = -(-round(p * 10) * len(xs) // 1000)  # ceil(p/100 * n), exact
        if rank >= 1 and len(xs) - rank >= min_beyond:
            best = (p, xs[rank - 1])
    return best


def timings(records: list, times: list) -> dict:
    """The timing metrics of whole passes over the job pool, from each pool
    job's median time over its runs.  The jobs are deterministic, so a
    job's spread over its runs is the host's, not the program's; taking
    each job at its median keeps that spread out, and keeps the percentiles
    from landing between the slowest run of one job and the fastest of the
    next.  ``times`` are the records' times in seconds."""
    by_job: dict = {}
    for r, t in zip(records, times):
        by_job.setdefault(r["job"], []).append(t)
    typical = {job: statistics.median(ts) for job, ts in by_job.items()}
    ok = sum(1 for r in records if not r["problems"]) / len(records)
    tail_p, tail = tail_percentile([typical[r["job"]] for r in records])
    return {
        "jobs_per_s": ok * len(typical) / sum(typical.values()),
        "job_p50_ms": statistics.median(typical.values()) * 1e3,
        "job_tail_ms": tail * 1e3,
        "job_tail_percentile": tail_p,
    }


def stamp(root: Path, seed: int, traced: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            models = (line.split(":", 1)[1] for line in handle if line.startswith("model name"))
            cpu = next(models, cpu).strip()
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = None if sha is None else bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": sha, "git_dirty": dirty, "seed": seed, "traced": traced,
    }


def execute(wl, lib, pool: list, job_id: int) -> dict:
    job = pool[job_id % len(pool)]
    tracer = lib.tracer
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(lib, job)
        else:
            with tracer.span("job"):
                out = wl.run(lib, job)
    except Exception as exc:  # a job that raises counts as failed; the run goes on
        elapsed, problems, counts = time.perf_counter() - start, [f"raised {exc!r}"], {}
    else:
        elapsed = time.perf_counter() - start
        try:
            problems, counts = wl.verify(job, out)
        except Exception as exc:  # malformed output fails the job, not the run
            problems, counts = [f"output check raised {exc!r}"], {}
    finally:
        if tracer is not None:
            tracer.job = None
    return {"id": job_id, "job": job_id % len(pool), "start": start, "time": elapsed,
            "traced": tracer is not None, "problems": problems, "counts": counts}


def measure(wl, libs: list, seconds: float) -> tuple[list, float, list]:
    """Run the job pool in a closed loop until ``seconds`` have passed; with
    two handles each job runs once through each, and which goes first
    alternates from job to job and, for the same job, from pass to pass.
    The workload's host probe runs between jobs every ``every_s`` seconds;
    returns the records, the wall time and the (time, seconds) probes."""
    pool = wl.pool()
    records, probes, i = [], [], 0
    for _ in range(PROBE_WARMUP):
        wl.probe.run()
    start = due = time.perf_counter()
    while time.perf_counter() - start < seconds:
        now = time.perf_counter()
        if now >= due:
            probes.append((now, wl.probe.run()))
            due = now + wl.probe.every_s
        for lib in libs if (i + i // len(pool)) % 2 == 0 else libs[::-1]:
            records.append(execute(wl, lib, pool, i))
        i += 1
    probes.append((time.perf_counter(), wl.probe.run()))
    return records, time.perf_counter() - start, probes


def setup_in_child(root: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def call_us(oracles: list, repeats: int = 5) -> float:
    """Median over repeats of microseconds per direct oracle call, on up to
    256 assignments of each oracle."""
    points = []
    for f in oracles:
        points += [(f, tuple(int(v) for v in x)) for x in ref.digits(f.dims.n, f.dims.k)[:256]]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for f, x in points:
            f(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / max(len(points), 1) * 1e6


def overhead(records: list) -> float:
    """Median over jobs of traced time / untraced time - 1; each job ran
    once each way, back to back."""
    by_id: dict = {}
    for r in records:
        by_id.setdefault(r["id"], {})[r["traced"]] = r["time"]
    ratios = [t[True] / t[False] - 1.0 for t in by_id.values() if len(t) == 2 and t[False] > 0]
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(wl, records: list, tracer: tracing.Tracer, import_s: float, call: float) -> dict:
    spans = tracer.spans
    durations: dict = {}
    for name, start, end, _, job in spans:
        if job is not None:
            durations.setdefault(name, []).append(end - start)

    def busy(name: str) -> float:
        return float(sum(durations.get(name, ())))

    def mean_busy(name: str) -> float:
        return float(np.mean(durations[name])) if name in durations else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    counts: dict = {}
    traced = [r for r in records if r["traced"]]
    for r in traced:
        for key, value in r["counts"].items():
            counts[key] = counts.get(key, 0) + value
    job_s = busy("job")
    self_by_layer: dict = {}
    for (name, _, _, _, job), own in zip(spans, tracing.self_times(spans)):
        if isinstance(job, int) and name != "job":
            layer = name.split(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
    out = {
        "core.oracle_calls": ratio(counts.get("oracle_calls", 0), len(traced)),
        "core.call_us": call,
        "zoo.generate_s": float(sum(end - start for name, start, end, _, job in spans
                                    if job is None and name.startswith("zoo.")
                                    and name != "zoo.tabulate")),
        "zoo.tabulate_states_per_s": ratio(counts.get("tabulated_states", 0), busy("zoo.tabulate")),
        "checks.pairs_per_s": ratio(counts.get("pairs", 0), sum(busy(s) for s in PAIR_SPANS)),
        "checks.useful_pair_frac": ratio(counts.get("useful_pairs", 0), counts.get("pairs", 0)),
        "checks.rss_delta_mb": 0.0,
        "checks.cold_s": 0.0,
        "maximize.states_per_s": ratio(counts.get("states", 0), busy("maximize.brute_force_max")
                                       + busy("maximize.exact_expectation_random_orthant")),
        "maximize.evals_per_run": ratio(counts.get("greedy_evals", 0),
                                        counts.get("greedy_runs", 0)),
        "maximize.trial_us": 1e6 * ratio(busy("maximize.empirical_expectation"),
                                         counts.get("trials", 0)),
        "cli.import_s": import_s,
        "cli.main_s": 0.0,
        "cli.process_overhead_s": 0.0,
        "trace.overhead_frac": overhead(records),
    }
    out.update({metric: mean_busy(span) for metric, span in BUSY_SPANS.items()})
    out.update({f"{layer}.self_frac": ratio(self_by_layer.get(layer, 0.0), job_s)
                for layer in tracing.LAYERS})
    out.update(wl.extra)
    return out


def run(root: Path, modules: dict, start: float, import_s: float, workload: str, seed: int,
        seconds: float, traced: bool) -> dict:
    """One measured run; ``start`` is when the import of ksubmax began."""
    workdir = root / "perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        return _run(root, workdir, modules, start, import_s, workload, seed, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(root: Path, workdir: Path, modules: dict, start: float, import_s: float, workload: str,
         seed: int, seconds: float, traced: bool) -> dict:
    plain = tracing.Lib(modules)
    tracer = tracing.Tracer() if traced else None
    lib = tracing.Lib(modules, tracer) if traced else plain
    wl = WORKLOADS[workload](seed, root, workdir)
    wl.setup(lib)
    setup_s = time.perf_counter() - start
    key = wl.answer_key()

    records, wall, probes = measure(wl, [plain, lib] if traced else [plain], seconds)
    failed = sum(1 for r in records if r["problems"])
    probe_s = statistics.median(s for _, s in probes)
    result = {"workload": workload, "why": wl.why, "stamp": stamp(root, seed, traced),
              "seconds": seconds, "answer_key": key,
              "host": {"probe_reference_s": wl.probe.reference_s, "probe_median_s": probe_s,
                       "probes": len(probes)},
              "failures": [r["problems"] for r in records if r["problems"]][:20]}
    if traced:
        tracer.job = "extras"  # spans that feed busy-time metrics but belong to no job
        wl.traced_extras(lib, plain, records)
        tracer.job = None
        metrics = layer_metrics(wl, records, tracer, import_s, call_us(wl.oracles(plain)))
        units = dict(PER_LAYER)
        result.update({"spans": tracer.spans, "attempted": len(records), "failed": failed})
    else:
        # Percentiles over whole passes of the pool, so every job counts
        # equally often whatever the loop was doing when time ran out.
        whole = len(records) - len(records) % len(wl.pool()) or len(records)
        counted = records[:whole]
        raw = [r["time"] for r in counted]
        scale = hostprobe.factors([r["start"] + r["time"] / 2 for r in counted], probes,
                                  wl.probe.reference_s)
        scaled = timings(counted, [t * f for t, f in zip(raw, scale)])
        unscaled = timings(counted, raw)
        peak_rss = wl.peak_rss_mb()
        children = [setup_in_child(root, workload, seed) for _ in range(SETUP_SAMPLES - 1)]
        samples = [(setup_s, import_s)] + [(c["setup_s"], c["import_s"]) for c in children]
        setups = [s for s, _ in samples]
        host = wl.probe.reference_s / probe_s
        scaled_setups = [imp + (s - imp) * host for s, imp in samples]
        refused = wl.rung_refused

        def attempt(n: int) -> str:
            try:
                argv = wl.rung_argv(plain, n)
            except modules["core"].InputError:
                return "refused"
            return reach.run_rung(argv, cwd=root, refused=refused)

        reached, ladder = reach.climb(attempt)
        wrong = sum(1 for _, status in ladder if status == "wrong")
        metrics = {
            "jobs_per_s": scaled["jobs_per_s"],
            "job_p50_ms": scaled["job_p50_ms"],
            "job_tail_ms": scaled["job_tail_ms"],
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(scaled_setups),
            "ok_frac": 1.0 - failed / len(records),
            "reach_states": reached,
        }
        units = dict(END_TO_END)
        result.update({
            "jobs": len(records), "jobs_in_percentiles": whole,
            "job_tail_percentile": scaled["job_tail_percentile"],
            "unscaled": {**unscaled, "loop_jobs_per_s": (len(records) - failed) / wall,
                         "setup_s": statistics.median(setups)},
            "setup_samples_s": setups,
            "setup_import_s": [imp for _, imp in samples],
            "failed_frac": failed / len(records), "reach_ladder": ladder,
            "reach_budget": {"seconds": reach.BUDGET_S, "address_space_bytes": reach.BUDGET_BYTES},
        })
        result.update({"attempted": len(records) + len(ladder), "failed": failed + wrong})
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return result
