"""The benchmark's four workloads.

Each workload generates its inputs from the seed, warms up, and then offers
a fixed pool of jobs that the harness runs one at a time.  ``run`` is the
timed part and goes through a :class:`tracing.Lib`; ``verify`` checks the
output against answer keys from :mod:`reference` and returns the counts
the per-layer metrics need.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostprobe
import reach
import reference as ref

CHECKS = ("ksub", "orthant", "monotone:2", "monotone:k", "orthant-pairs", "characterization")


def derived(seed: int, *salt: int) -> int:
    """A 32-bit seed for one input, fixed by the run seed and a salt."""
    return int(np.random.SeedSequence([seed % 2**32, *salt]).generate_state(1)[0])


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_check(lib, check: str, table):
    if check == "ksub":
        return lib.checks.check_k_submodular(table)
    if check == "orthant":
        return lib.checks.check_orthant_submodular(table)
    if check == "orthant-pairs":
        return lib.checks.check_orthant_pair_inequality(table)
    if check == "characterization":
        return lib.checks.check_characterization(table)
    r = table.dims.k if check == "monotone:k" else int(check.split(":")[1])
    return lib.checks.check_r_wise_monotone(table, r)


def pair_counts(check: str, report: dict, n: int, k: int) -> tuple[int, int]:
    """Pairs the exhaustive checker materializes, and those up to and
    including the reported witness; computed from (n, k), not counted by
    the library."""
    size, orthants, subsets = (k + 1) ** n, k**n, 2**n
    ce = report["counterexample"]

    def orthant_pos(x) -> int:
        return sum((v - 1) * k**e for e, v in enumerate(x))

    def mask(x) -> int:
        return sum(1 << e for e, v in enumerate(x) if v)

    if check == "ksub":
        total = size * size
        useful = total if ce is None else ref.index(ce["s"], k) * size + ref.index(ce["t"], k) + 1
    elif check == "orthant":
        if ce is None:
            total = useful = orthants * subsets**2
        else:
            pos = orthant_pos(ce["orthant"])
            total = (pos + 1) * subsets**2
            useful = pos * subsets**2 + mask(ce["s"]) * subsets + mask(ce["t"]) + 1
    elif check == "orthant-pairs":
        total = orthants * orthants
        useful = total if ce is None else orthant_pos(ce["s"]) * orthants + orthant_pos(ce["t"]) + 1
    else:
        return 0, 0
    return total, useful


def build(lib, text: str):
    """Parse a JSON instance and build its oracle."""
    return lib.call("instances.InstanceSpec.build", lib.instances.parse_instance(text).build)


def audit(lib, text: str) -> dict:
    """The full guarantee audit of one JSON instance, on the oracle."""
    f = build(lib, text)
    table = lib.zoo.tabulate(f)
    best = lib.maximize.brute_force_max(f)
    e_random = lib.maximize.exact_expectation_random_orthant(f)
    e_greedy = lib.maximize.exact_expectation_randomized_greedy(f)
    before = f.calls
    det = lib.maximize.deterministic_greedy(f)
    return {
        "n": f.dims.n, "k": f.dims.k, "table": table.values, "best": best.to_json(),
        "e_random": e_random, "e_greedy": e_greedy, "det": det.to_json(),
        "det_calls": f.calls - before, "calls": f.calls,
    }


def check_audit(out: dict, values: np.ndarray, key: dict) -> list[str]:
    n, k = out["n"], out["k"]
    problems = []
    table = out["table"]
    if table.shape != values.shape or not np.allclose(table, values, rtol=0, atol=ref.TOL):
        problems.append("tabulated values differ from the reference evaluation")
    problems += ref.check_expectation("optimum", key["opt"], out["best"]["value"])
    problems += ref.check_maximize(values, k, key, out["best"], None)
    problems += ref.check_expectation("random-orthant expectation", key["exp_random"],
                                      out["e_random"])
    problems += ref.check_expectation("randomized-greedy expectation", key["exp_greedy"],
                                      out["e_greedy"])
    problems += ref.check_maximize(values, k, key, out["det"], 2 * k * n)
    if out["det_calls"] > 2 * k * n:
        problems.append(f"deterministic greedy made {out['det_calls']} calls, 2kn = {2 * k * n}")
    for name in ("e_random", "e_greedy"):
        if out[name] > out["best"]["value"] + ref.TOL:
            problems.append(f"{name} {out[name]} exceeds the brute-force optimum")
    return problems


def random_graph(rng, n: int, directed: bool) -> dict:
    edges = set()
    while len(edges) < n:
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((u, v) if directed else (min(u, v), max(u, v)))
    edges = sorted(edges)
    weights = [round(float(w), 3) for w in rng.uniform(0.5, 1.5, size=len(edges))]
    return {"edges": [list(e) for e in edges], "directed": directed, "weights": weights}


def layer_layout_doc(rng, n: int, k: int) -> dict:
    return {"kind": "layer_layout", "n": n, "k": k, **random_graph(rng, n, True)}


def max_k_cut_doc(rng, n: int, k: int) -> dict:
    return {"kind": "max_k_cut", "n": n, "k": k, **random_graph(rng, n, False)}


def embedding_doc(rng, n: int) -> dict:
    """Embedding of a random cut function, which vanishes on the ground
    set, so the embedded values stay nonnegative."""
    masks = np.arange(2**n)
    values = np.zeros(2**n)
    for _ in range(n):
        u, v = rng.choice(n, size=2, replace=False)
        values += round(float(rng.uniform(0.5, 1.5)), 3) * ((masks >> u & 1) != (masks >> v & 1))
    base = {"kind": "tabular", "n": n, "k": 1, "values": values.tolist()}
    return {"kind": "embedding", "n": n, "k": 2, "base": base}


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed, self.root, self.workdir = seed, root, workdir
        self.extra: dict = {}  # per-layer metrics measured outside the job loop

    #: What the job loop times to scale job times to the reference host.
    probe = hostprobe.INTERPRETED

    def setup(self, lib) -> None:
        """Input generation and cache warm-up; counted in setup_s."""

    def answer_key(self) -> dict:
        """Expected outputs, from the reference; not timed."""
        return {}

    def pool(self) -> list:
        raise NotImplementedError

    def run(self, lib, job):
        raise NotImplementedError

    def verify(self, job, out) -> tuple[list, dict]:
        raise NotImplementedError

    def oracles(self, lib) -> list:
        """Oracles whose direct call cost is core.call_us."""
        return []

    def traced_extras(self, lib, plain, records: list) -> None:
        """Per-layer measurements a traced run makes after the job loop;
        ``lib`` is traced, ``plain`` is not."""

    def peak_rss_mb(self) -> float:
        return maxrss_mb()

    #: Exit code with which a rung child reports a cap refusal.
    rung_refused = reach.REFUSED

    def rung_argv(self, lib, n: int) -> list:
        """Command for one reach rung: by default this benchmark in rung mode."""
        return [sys.executable, str(self.root / "perfbench" / "run.py"), "--workload", self.name,
                "--seed", str(self.seed), "--rung", str(n)]

    def rung(self, lib, n: int) -> int:
        """Run the heaviest job at (n, 3) in-process; returns an exit code."""
        raise NotImplementedError


class CheckTables(Workload):
    name = "check-tables"
    why = (
        "one property check per job on seeded (5,3),(4,4),(5,4),(6,3) tables: holding, early-"
        " and late-violation; pair enumeration in checks dominates, core and maximize idle"
    )
    SIZES = ((5, 3), (4, 4), (5, 4), (6, 3))
    probe = hostprobe.MIXED
    WARM = ("ksub", "orthant", "monotone:2", "orthant-pairs")

    def setup(self, lib) -> None:
        self.tables = []  # (kind, table, raw values)
        for i, (n, k) in enumerate(self.SIZES):
            dims = lib.core.Dims(n, k)
            holds = lib.zoo.random_ksubmodular(dims, atoms=3 * n, seed=derived(self.seed, i, 0))
            early = lib.zoo.random_table(dims, seed=derived(self.seed, i, 1))
            base = lib.zoo.random_ksubmodular(dims, atoms=3 * n, seed=derived(self.seed, i, 2))
            # Raise the last orthant far beyond any slack, so the violation
            # comes last in enumeration order whatever the seed.
            values = base.values.copy()
            values[-1] += 2.0 * values.max() + 1.0
            late = lib.zoo.TabularFunction(dims, values, name="raised")
            for kind, table in (("holds", holds), ("early", early), ("late", late)):
                self.tables.append((kind, table, np.array(table.values, copy=True)))
        self.cold = {}
        rss_delta = 0.0
        for kind, table, _ in self.tables:
            if kind != "holds":
                continue
            for check in self.WARM:
                before, start = maxrss_mb(), time.perf_counter()
                run_check(lib, check, table)
                self.cold[(table.dims.n, table.dims.k, check)] = time.perf_counter() - start
                rss_delta += maxrss_mb() - before
        self.extra["checks.rss_delta_mb"] = rss_delta

    def answer_key(self) -> dict:
        rules = {"holds": "every check holds", "early": "any violation must re-verify",
                 "late": "ksub and orthant find the raised entry"}
        return {f"{kind}-n{t.dims.n}-k{t.dims.k}": rules[kind] for kind, t, _ in self.tables}

    def pool(self) -> list:
        return [(t, check) for t in range(len(self.tables)) for check in CHECKS]

    def oracles(self, lib) -> list:
        return [table for _, table, _ in self.tables]

    def run(self, lib, job):
        return run_check(lib, job[1], self.tables[job[0]][1]).to_json()

    def verify(self, job, report):
        kind, table, values = self.tables[job[0]]
        check, (n, k) = job[1], (table.dims.n, table.dims.k)
        problems = []
        if check == "characterization" or kind == "holds":
            if not report["holds"]:
                problems.append(f"{check} must hold on a {kind} table: {report['counterexample']}")
        elif report["holds"]:
            if kind == "late" and check in ("ksub", "orthant"):
                problems.append(f"{check} missed the raised entry")
        else:
            problems += ref.check_witness(values, k, report["counterexample"])
        pairs, useful = pair_counts(check, report, n, k)
        return problems, {"pairs": pairs, "useful_pairs": useful}

    def traced_extras(self, lib, plain, records: list) -> None:
        cold = 0.0
        for kind, table, _ in self.tables:
            if kind == "holds":
                for check in self.WARM:
                    start = time.perf_counter()
                    run_check(plain, check, table)
                    warm = time.perf_counter() - start
                    cold += self.cold[(table.dims.n, table.dims.k, check)] - warm
        self.extra["checks.cold_s"] = cold

    def rung(self, lib, n: int) -> int:
        dims = lib.core.Dims(n, reach.LADDER_K)
        table = lib.zoo.random_ksubmodular(dims, atoms=3 * n, seed=derived(self.seed, n, 9))
        return reach.REACHED if lib.checks.check_characterization(table).holds else reach.WRONG


class AuditOracle(Workload):
    name = "audit-oracle"
    why = (
        "one full audit per job (tabulate, brute force, both exact expectations, greedy) of "
        "seeded cut, layout, sum and embedding JSON instances; oracle calls in core, zoo, "
        "maximize"
    )
    SIZES = ((6, 3), (6, 4), (7, 3))
    EMBED_NS = (7, 8)

    def _docs(self, rng) -> list:
        docs = []
        for n, k in self.SIZES:
            layout, cut = layer_layout_doc(rng, n, k), max_k_cut_doc(rng, n, k)
            both = {"kind": "sum", "n": n, "k": k, "terms": [layout, cut], "weights": [1.0, 0.5]}
            docs += [layout, cut, both]
        return docs + [embedding_doc(rng, n) for n in self.EMBED_NS]

    def setup(self, lib) -> None:
        self.docs = self._docs(np.random.default_rng(derived(self.seed, 1)))
        self.texts = [json.dumps(doc) for doc in self.docs]
        audit(lib, self.texts[0])

    def answer_key(self) -> dict:
        self.values = [ref.evaluate(doc) for doc in self.docs]
        self.keys = [ref.expectations(v, d["n"], d["k"]) for v, d in zip(self.values, self.docs)]
        return {f"{d['kind']}-n{d['n']}-k{d['k']}": key for d, key in zip(self.docs, self.keys)}

    def pool(self) -> list:
        return list(range(len(self.docs)))

    def oracles(self, lib) -> list:
        return [build(lib, text) for text in self.texts]

    def run(self, lib, job):
        return audit(lib, self.texts[job])

    def verify(self, job, out):
        n, k = out["n"], out["k"]
        counts = {"oracle_calls": out["calls"], "tabulated_states": (k + 1) ** n,
                  "states": (k + 1) ** n + k**n, "greedy_runs": 1, "greedy_evals": out["det_calls"]}
        return check_audit(out, self.values[job], self.keys[job]), counts

    def rung(self, lib, n: int) -> int:
        doc = layer_layout_doc(np.random.default_rng(derived(self.seed, n, 9)), n, reach.LADDER_K)
        out = audit(lib, json.dumps(doc))
        values = ref.evaluate(doc)
        ok = not check_audit(out, values, ref.expectations(values, n, reach.LADDER_K))
        return reach.REACHED if ok else reach.WRONG


class SampleTrials(Workload):
    name = "sample-trials"
    why = (
        "one 1000-trial empirical_expectation per job, greedy_rand and random, on coverage "
        "k=5,13,21 and n=6,k=3 tables; per-trial cost in maximize, not enumeration"
    )
    COVERAGE_KS = (5, 13, 21)
    TABLES = 3
    TABLE_DIMS = (6, 3)
    ALGOS = ("greedy_rand", "random")
    TRIALS = 1000

    def _table(self, lib, n: int, k: int, salt: int):
        dims = lib.core.Dims(n, k)
        return lib.zoo.random_ksubmodular(dims, atoms=3 * n, seed=derived(self.seed, salt))

    def setup(self, lib) -> None:
        self.fs = [lib.zoo.make_coverage_tight(k) for k in self.COVERAGE_KS]
        self.docs = [{"kind": "coverage_tight", "n": 2, "k": k} for k in self.COVERAGE_KS]
        n, k = self.TABLE_DIMS
        for i in range(self.TABLES):
            self.fs.append(self._table(lib, n, k, i))
            values = np.array(self.fs[-1].values)
            self.docs.append({"kind": "tabular", "n": n, "k": k, "values": values})
        for algo in self.ALGOS:
            lib.maximize.empirical_expectation(self.fs[0], algo, 2, self.seed)

    def answer_key(self) -> dict:
        self.keys = [ref.expectations(ref.evaluate(doc), doc["n"], doc["k"]) for doc in self.docs]
        return {f.name: key for f, key in zip(self.fs, self.keys)}

    def pool(self) -> list:
        return [(i, algo, derived(self.seed, i, j))
                for i in range(len(self.fs)) for j, algo in enumerate(self.ALGOS)]

    def oracles(self, lib) -> list:
        return self.fs

    @classmethod
    def trial_job(cls, lib, f, algo: str, seed: int) -> dict:
        before = f.calls
        mean, stderr = lib.maximize.empirical_expectation(f, algo, cls.TRIALS, seed)
        return {"mean": mean, "stderr": stderr, "calls": f.calls - before}

    def run(self, lib, job):
        return self.trial_job(lib, self.fs[job[0]], job[1], job[2])

    @classmethod
    def check_trials(cls, out: dict, key: dict, algo: str, n: int, k: int) -> list[str]:
        exact = key["exp_greedy" if algo == "greedy_rand" else "exp_random"]
        problems = ref.check_sample_mean(exact, out["mean"], out["stderr"])
        if out["calls"] > 2 * k * n * cls.TRIALS:
            problems.append(f"{out['calls']} calls over {cls.TRIALS} trials exceed 2kn per trial")
        return problems

    def verify(self, job, out):
        f, algo = self.fs[job[0]], job[1]
        greedy = algo == "greedy_rand"
        counts = {"oracle_calls": out["calls"], "trials": self.TRIALS,
                  "greedy_runs": self.TRIALS if greedy else 0,
                  "greedy_evals": out["calls"] if greedy else 0}
        return self.check_trials(out, self.keys[job[0]], algo, f.dims.n, f.dims.k), counts

    def rung(self, lib, n: int) -> int:
        f = self._table(lib, n, reach.LADDER_K, 100 + n)
        key = ref.expectations(np.array(f.values), n, reach.LADDER_K)
        for algo in self.ALGOS:
            out = self.trial_job(lib, f, algo, derived(self.seed, n))
            if self.check_trials(out, key, algo, n, reach.LADDER_K):
                return reach.WRONG
        return reach.REACHED


def run_process(argv: list, cwd: Path) -> tuple[int, bytes, float]:
    """Run a child to completion; returns its exit code, stdout and peak RSS
    in MB, taken from the child's own resource usage."""
    child = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        child.stdout.close()
        if child.returncode is None:
            child.kill()
            child.wait()
    return child.returncode, out, usage.ru_maxrss / 1024


class CliCold(Workload):
    name = "cli-cold"
    why = (
        "one cold ksub process per job, check and maximize on small JSON files: interpreter "
        "start, import, parse, build and cold caches; the only workload through instances and"
        " cli"
    )
    probe = hostprobe.CHILD

    def _commands(self, lib) -> list:
        """(name, instance document, ksub arguments after the file, expected exit code)."""
        rng = np.random.default_rng(derived(self.seed, 2))

        def tabular(table) -> dict:
            d = table.dims
            return {"kind": "tabular", "n": d.n, "k": d.k, "values": table.values.tolist()}

        holds = lib.zoo.random_ksubmodular(lib.core.Dims(5, 3), atoms=15,
                                           seed=derived(self.seed, 3))
        early = lib.zoo.random_table(lib.core.Dims(4, 4), seed=derived(self.seed, 4))
        layout, cut = layer_layout_doc(rng, 5, 3), max_k_cut_doc(rng, 5, 3)
        return [
            ("ksub-holds", tabular(holds), ["check", "--property", "ksub"], 0),
            ("ksub-violated", tabular(early), ["check", "--property", "ksub"], 1),
            ("orthant-layout", layout, ["check", "--property", "orthant"], 0),
            ("pairwise-cut", cut, ["check", "--property", "monotone:2"], 1),
            ("brute-layout", layout, ["maximize", "--algo", "brute"], 0),
            ("greedy-cut", max_k_cut_doc(rng, 6, 3), ["maximize", "--algo", "greedy-det"], 0),
            ("exact-greedy-coverage", {"kind": "coverage_tight", "n": 2, "k": 13},
             ["maximize", "--algo", "greedy-rand", "--exact"], 0),
            ("exact-random-sum", {"kind": "sum", "n": 5, "k": 3, "terms": [layout, cut]},
             ["maximize", "--algo", "random", "--exact"], 0),
        ]

    def setup(self, lib) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.commands = []
        for name, doc, args, code in self._commands(lib):
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.commands.append((name, doc, [args[0], str(path), *args[1:]], code))
        self.child_rss = 0.0
        warm = next(args for name, _, args, _ in self.commands if name == "exact-greedy-coverage")
        run_process(self.ksub(warm), self.root)

    def ksub(self, args: list) -> list:
        """A ``ksub`` command line that runs this checkout's source."""
        entry = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
                 "from ksubmax.cli import main; sys.exit(main(sys.argv[1:]))")
        return [sys.executable, "-c", entry, str(self.root / "src"), *args]

    def answer_key(self) -> dict:
        self.keys = []
        for name, doc, args, code in self.commands:
            n, k = doc["n"], doc["k"]
            values = ref.evaluate(doc)
            key = {"exit": code, **ref.expectations(values, n, k)}
            if name.startswith("ksub-"):
                key["exit"] = 0 if ref.first_ksub_violation(values, n, k) is None else 1
            self.keys.append((values, key))
        return {c[0]: key for c, (_, key) in zip(self.commands, self.keys)}

    def pool(self) -> list:
        return list(range(len(self.commands)))

    def oracles(self, lib) -> list:
        return [build(lib, json.dumps(doc)) for _, doc, _, _ in self.commands]

    def run(self, lib, job):
        return lib.call("cli.process", run_process, self.ksub(self.commands[job][2]), self.root)

    def check_document(self, job: int, code: int, stdout) -> list[str]:
        name, doc, args, _ = self.commands[job]
        values, key = self.keys[job]
        k = doc["k"]
        if code != key["exit"]:
            return [f"{name}: exit code {code}, answer key says {key['exit']}"]
        try:
            out = json.loads(stdout)
        except ValueError as exc:
            return [f"{name}: stdout is not one JSON document: {exc}"]
        if args[0] == "check":
            if out.get("holds") != (code == 0):
                return [f"{name}: holds={out.get('holds')} disagrees with exit code {code}"]
            return [] if code == 0 else ref.check_witness(values, k, out["counterexample"])
        if "--exact" in args:
            field = "exp_greedy" if "greedy-rand" in args else "exp_random"
            return ref.check_expectation(name, key[field], out.get("expectation", float("nan")))
        budget = None if "brute" in args else 2 * k * doc["n"]
        problems = ref.check_maximize(values, k, key, out, budget)
        if "brute" in args:
            problems += ref.check_expectation("optimum", key["opt"], out["value"])
        return problems

    def verify(self, job, out):
        code, stdout, rss = out
        self.child_rss = max(self.child_rss, rss)
        return self.check_document(job, code, stdout), {}

    def peak_rss_mb(self) -> float:
        return self.child_rss

    def traced_extras(self, lib, plain, records: list) -> None:
        # Cold minus warm cost of the checker at the sizes the ksub jobs use;
        # this process has not run a checker yet.
        cold = 0.0
        for name, doc, _, _ in self.commands:
            if name.startswith("ksub-"):
                table = lib.zoo.tabulate(build(lib, json.dumps(doc)))
                times = []
                for _ in range(2):
                    start = time.perf_counter()
                    plain.checks.check_k_submodular(table)
                    times.append(time.perf_counter() - start)
                cold += times[0] - times[1]
        self.extra["checks.cold_s"] = cold
        main_s = []
        for rep in range(2):
            for job, (name, _, args, _) in enumerate(self.commands):
                sink = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(sink):
                    code = lib.cli.main(args)
                elapsed = time.perf_counter() - start
                if rep:
                    main_s.append(elapsed)
                    problems = self.check_document(job, code, sink.getvalue())
                    if problems:
                        raise RuntimeError(f"in-process cli.main: {problems}")
        self.extra["cli.main_s"] = float(np.mean(main_s))
        process_s = [np.mean([r["time"] for r in records if r["job"] == job] or [np.nan])
                     for job in self.pool()]
        self.extra["cli.process_overhead_s"] = float(np.nanmean(np.subtract(process_s, main_s)))

    rung_refused = 2  # ksub exits 2 on input errors, caps included

    def rung_argv(self, lib, n: int) -> list:
        k = reach.LADDER_K
        table = lib.zoo.random_ksubmodular(lib.core.Dims(n, k), atoms=3 * n,
                                           seed=derived(self.seed, n, 9))
        path = self.workdir / f"rung-{n}.json"
        path.write_text(json.dumps({"kind": "tabular", "n": n, "k": k,
                                    "values": table.values.tolist()}))
        return self.ksub(["check", str(path), "--property", "ksub"])


WORKLOADS = {w.name: w for w in (CheckTables, AuditOracle, SampleTrials, CliCold)}
