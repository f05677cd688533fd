"""The output checks catch wrong answers."""

import json

import numpy as np
import pytest

import reference as ref
import tracing
import workloads
from ksubmax import Dims, check_k_submodular, check_r_wise_monotone, random_table

import ksubmax.checks
import ksubmax.cli
import ksubmax.core
import ksubmax.instances
import ksubmax.maximize
import ksubmax.zoo

LIB = tracing.Lib({layer: getattr(ksubmax, layer) for layer in tracing.LAYERS})


def test_reference_evaluation_matches_the_library_on_every_kind():
    rng = np.random.default_rng(0)
    layout, cut = workloads.layer_layout_doc(rng, 4, 3), workloads.max_k_cut_doc(rng, 4, 3)
    both = {"kind": "sum", "n": 4, "k": 3, "terms": [layout, cut], "weights": [1, 0.5]}
    docs = [layout, cut, both, workloads.embedding_doc(rng, 4),
            {"kind": "coverage_tight", "n": 2, "k": 5}]
    for doc in docs:
        table = LIB.zoo.tabulate(workloads.build(LIB, json.dumps(doc)))
        assert np.allclose(table.values, ref.evaluate(doc), rtol=0, atol=1e-12), doc["kind"]


def test_genuine_witnesses_pass_and_tampered_ones_fail():
    table = random_table(Dims(3, 2), seed=4)
    report = check_k_submodular(table).to_json()
    assert not report["holds"]
    assert ref.check_witness(table.values, 2, report["counterexample"]) == []
    moved = dict(report["counterexample"], s=[1, 1, 1])
    assert ref.check_witness(table.values, 2, moved)
    inflated = dict(report["counterexample"], rhs=report["counterexample"]["lhs"] - 1.0)
    assert ref.check_witness(table.values, 2, inflated)

    marginal = check_r_wise_monotone(table, 1).to_json()["counterexample"]
    assert ref.check_witness(table.values, 2, marginal) == []
    assert ref.check_witness(table.values, 2, dict(marginal, labels=[2]))


def test_check_tables_verify_flags_a_tampered_witness():
    wl = workloads.CheckTables(0, None, None)
    wl.SIZES = ((3, 2),)
    wl.WARM = ()
    wl.setup(LIB)
    early = next(i for i, (kind, _, _) in enumerate(wl.tables) if kind == "early")
    report = wl.run(LIB, (early, "ksub"))
    assert wl.verify((early, "ksub"), report)[0] == []
    tampered = dict(report, counterexample=dict(report["counterexample"], t=[0, 0, 0]))
    assert wl.verify((early, "ksub"), tampered)[0]
    holds = next(i for i, (kind, _, _) in enumerate(wl.tables) if kind == "holds")
    report = wl.run(LIB, (holds, "orthant"))
    assert wl.verify((holds, "orthant"), report)[0] == []
    assert wl.verify((holds, "orthant"), dict(report, holds=False))[0]


@pytest.fixture(scope="module")
def small_audit():
    doc = workloads.layer_layout_doc(np.random.default_rng(1), 4, 3)
    values = ref.evaluate(doc)
    return workloads.audit(LIB, json.dumps(doc)), values, ref.expectations(values, 4, 3)


def test_audit_check_passes_a_correct_audit(small_audit):
    out, values, key = small_audit
    assert workloads.check_audit(out, values, key) == []


@pytest.mark.parametrize("field, change", [
    ("best", lambda best: dict(best, value=best["value"] + 1.0)),
    ("best", lambda best: dict(best, value=best["value"] - 0.25)),
    ("e_greedy", lambda e: e * 1.01),
    ("det", lambda det: dict(det, solution=[0] * len(det["solution"]))),
    ("det", lambda det: dict(det, evals=10**6)),
])
def test_audit_check_flags_wrong_answers(small_audit, field, change):
    out, values, key = small_audit
    assert workloads.check_audit(dict(out, **{field: change(out[field])}), values, key)


def test_sample_mean_must_sit_within_four_standard_errors():
    assert ref.check_sample_mean(1.0, 1.039, 0.01) == []
    assert ref.check_sample_mean(1.0, 1.041, 0.01)
    assert ref.check_sample_mean(1.0, 1.0 + 1e-6, 0.0)
