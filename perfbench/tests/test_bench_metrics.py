"""Tail percentile, self time and the declared metric lists."""

import json

import pytest

import harness
import tracing
import workloads
from conftest import ROOT


@pytest.mark.parametrize(
    "n, percentile",
    [(19, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (999, 90), (1000, 99),
     (9999, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # n..1, so the value is the nearest rank
    p, value = harness.tail_percentile(samples)
    assert p == percentile
    assert sum(1 for x in samples if x > value) >= 10 or n < 20
    if n >= 20:
        assert value == -(-round(p * 10) * n // 1000)


def test_tail_of_few_samples_falls_back_to_the_median():
    assert harness.tail_percentile([5.0, 1.0, 3.0]) == (50, 3.0)


class Clock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_the_time_children_cover():
    # job [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [3.5, 6]:
    # b overlaps a, so the children of job cover [1, 6].
    tracer = tracing.Tracer(Clock([0, 1, 2, 3, 4, 3.5, 6, 10]))
    with tracer.span("job"):
        with tracer.span("zoo.a"):
            with tracer.span("core.c"):
                pass
        with tracer.span("checks.b"):
            pass
    names = [s[tracing.NAME] for s in tracer.spans]
    own = dict(zip(names, tracing.self_times(tracer.spans)))
    assert own == pytest.approx({"job": 5.0, "zoo.a": 2.0, "core.c": 1.0, "checks.b": 2.5})
    parents = [s[tracing.PARENT] for s in tracer.spans]
    assert parents == [None, 0, 1, 0]


def test_traced_lib_records_spans_and_untraced_lib_is_the_module():
    import ksubmax.core as core

    modules = {layer: core for layer in tracing.LAYERS}
    assert tracing.Lib(modules).core is core
    tracer = tracing.Tracer()
    lib = tracing.Lib(modules, tracer)
    tracer.job = 7
    assert lib.core.Dims(2, 3).k == 3
    assert lib.core.InputError is core.InputError
    assert [(s[tracing.NAME], s[tracing.JOB]) for s in tracer.spans] == [("core.Dims", 7)]


def test_benchmark_json_declares_what_the_harness_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(harness.PER_LAYER)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_timings_take_each_job_at_its_median_run():
    # Job 0 ran 1, 1 and 9 s (one run on a stalled host), job 1 ran 2 s
    # each time; one run of job 1 failed its output check.
    jobs = [0, 1, 0, 1, 0, 1]
    times = [1.0, 2.0, 1.0, 2.0, 9.0, 2.0]
    records = [{"job": j, "problems": ["wrong"] if i == 3 else []} for i, j in enumerate(jobs)]
    out = harness.timings(records, times)
    assert out["job_p50_ms"] == pytest.approx(1500.0)
    assert out["jobs_per_s"] == pytest.approx(5 / 6 * 2 / 3.0)
    assert (out["job_tail_percentile"], out["job_tail_ms"]) == (50, pytest.approx(1000.0))
