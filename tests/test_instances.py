"""JSON instance schema: validation diagnostics and oracle construction."""

import json

import pytest

from ksubmax import InputError, parse_instance, tabulate
from ksubmax.instances import instance_from_dict


def parse(obj):
    return parse_instance(json.dumps(obj))


class TestValidation:
    def test_indicator_valid(self):
        spec = parse({"kind": "indicator", "n": 1, "k": 3, "target": 1})
        assert spec.kind == "indicator"
        assert spec.dims.n == 1 and spec.dims.k == 3

    def test_max_k_cut_valid(self):
        spec = parse(
            {"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1]], "directed": False}
        )
        assert spec.payload["edges"] == [(0, 1)]

    def test_det_greedy_tight_r_out_of_range(self):
        with pytest.raises(InputError, match=r"\.r"):
            parse({"kind": "det_greedy_tight", "n": 2, "k": 2, "r": 3})

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="kind"):
            parse({"kind": "mystery", "n": 1, "k": 1})

    def test_missing_field_named(self):
        with pytest.raises(InputError, match=r"instance\.n"):
            parse({"kind": "indicator", "k": 3, "target": 1})
        with pytest.raises(InputError, match=r"instance\.target"):
            parse({"kind": "indicator", "n": 1, "k": 3})

    def test_not_json(self):
        with pytest.raises(InputError, match="JSON"):
            parse_instance("{nope")

    def test_bad_edge_named(self):
        with pytest.raises(InputError, match=r"edges\[1\]"):
            parse({"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1], [0, 2]]})
        with pytest.raises(InputError, match="self-loop"):
            parse({"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[1, 1]]})

    def test_direction_mismatch(self):
        with pytest.raises(InputError, match="directed"):
            parse({"kind": "max_k_cut", "n": 2, "k": 2,
                   "edges": [[0, 1]], "directed": True})
        with pytest.raises(InputError, match="directed"):
            parse({"kind": "layer_layout", "n": 2, "k": 3, "edges": [[0, 1]]})

    def test_tabular_values(self):
        with pytest.raises(InputError, match="values"):
            parse({"kind": "tabular", "n": 1, "k": 2, "values": [0, 1]})
        with pytest.raises(InputError, match=r"values\[2\]"):
            parse({"kind": "tabular", "n": 1, "k": 2, "values": [0, 1, -1]})

    def test_weights_validation(self):
        with pytest.raises(InputError, match=r"weights\[0\]"):
            parse({"kind": "max_k_cut", "n": 2, "k": 2,
                   "edges": [[0, 1]], "weights": [-2]})
        with pytest.raises(InputError, match="weights"):
            parse({"kind": "max_k_cut", "n": 2, "k": 2,
                   "edges": [[0, 1]], "weights": [1, 2]})

    def test_sum_nested_diagnostics(self):
        with pytest.raises(InputError, match=r"terms\[1\]"):
            parse({
                "kind": "sum", "n": 1, "k": 2,
                "terms": [
                    {"kind": "indicator", "n": 1, "k": 2, "target": 1},
                    {"kind": "indicator", "n": 1, "k": 3, "target": 1},
                ],
            })

    def test_embedding_requirements(self):
        base = {"kind": "tabular", "n": 2, "k": 1, "values": [0, 1, 1, 0]}
        spec = parse({"kind": "embedding", "n": 2, "k": 2, "base": base})
        assert spec.payload["base"].kind == "tabular"
        with pytest.raises(InputError, match=r"base\.k"):
            parse({"kind": "embedding", "n": 2, "k": 2,
                   "base": {"kind": "tabular", "n": 2, "k": 2,
                            "values": [0] * 9}})
        with pytest.raises(InputError, match=r"\.k"):
            parse({"kind": "embedding", "n": 2, "k": 3, "base": base})

    def test_non_object(self):
        with pytest.raises(InputError, match="object"):
            instance_from_dict([1, 2, 3])


class TestBuild:
    def test_tabular_roundtrip(self):
        values = [0.0, 0.5, 1.5]
        f = parse({"kind": "tabular", "n": 1, "k": 2, "values": values}).build()
        assert [f((x,)) for x in range(3)] == values

    def test_each_kind_builds(self):
        docs = [
            {"kind": "indicator", "n": 1, "k": 3, "target": 2},
            {"kind": "max_k_cut", "n": 3, "k": 2,
             "edges": [[0, 1], [1, 2]], "weights": [1, 2]},
            {"kind": "layer_layout", "n": 2, "k": 3,
             "edges": [[0, 1]], "directed": True},
            {"kind": "det_greedy_tight", "n": 2, "k": 3, "r": 2},
            {"kind": "coverage_tight", "n": 2, "k": 4},
            {"kind": "tabular", "n": 1, "k": 1, "values": [0, 1]},
        ]
        for doc in docs:
            f = parse(doc).build()
            assert f.dims.n == doc["n"] and f.dims.k == doc["k"]
            tabulate(f)

    def test_sum_build(self):
        doc = {
            "kind": "sum", "n": 1, "k": 2,
            "terms": [
                {"kind": "indicator", "n": 1, "k": 2, "target": 1},
                {"kind": "indicator", "n": 1, "k": 2, "target": 2},
            ],
            "weights": [2.0, 3.0],
        }
        f = parse(doc).build()
        assert f((1,)) == 2.0
        assert f((2,)) == 3.0

    def test_embedding_build(self):
        doc = {
            "kind": "embedding", "n": 2, "k": 2,
            "base": {"kind": "tabular", "n": 2, "k": 1, "values": [0, 1, 1, 0]},
        }
        f = parse(doc).build()
        assert f((1, 2)) == 2.0


INDICATOR = {"kind": "indicator", "n": 1, "k": 2, "target": 1}


@pytest.mark.parametrize("doc,where", [
    ({"kind": "indicator", "n": 1, "k": 3, "target": 4}, r"instance\.target: "),
    ({"kind": "coverage_tight", "n": 3, "k": 3}, r"instance\.n: "),
    ({"kind": "det_greedy_tight", "n": 2, "k": 1, "r": 1}, r"instance\.k: "),
    ({"kind": "layer_layout", "n": 2, "k": 1,
      "edges": [[0, 1]], "directed": True}, r"instance\.k: "),
    ({"kind": "embedding", "n": 2, "k": 2,
      "base": {"kind": "tabular", "n": 3, "k": 1, "values": [0] * 8}},
     r"instance\.n: "),
    ({"kind": "sum", "n": 1, "k": 2, "terms": [INDICATOR], "weights": [-1]},
     r"instance\.weights\[0\]: "),
], ids=["indicator-target", "coverage-n", "det-greedy-k", "layout-k",
        "embedding-base-n", "sum-weight"])
def test_constructor_rules_name_the_json_field(doc, where):
    with pytest.raises(InputError, match=where):
        parse(doc)
