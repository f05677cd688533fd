"""JSON instance schema: validation diagnostics and oracle construction."""

import json

import pytest

import ksubmax.instances
from ksubmax import InputError, make_indicator, parse_instance, tabulate
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
        f = spec.build()
        assert (f.name, f((1, 2)), f((1, 1))) == ("max_2_cut", 1.0, 0.0)

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
        assert spec.build().name == "embed(table)"
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

    def test_nested_sum_builds_each_term_once(self, monkeypatch):
        # reading checks each term by building it; the sum, and the spec's
        # build(), use that oracle rather than building the term again
        built = []

        def counted(*args):
            built.append(args)
            return make_indicator(*args)

        monkeypatch.setattr(ksubmax.instances, "make_indicator", counted)
        doc = {"kind": "indicator", "n": 1, "k": 2, "target": 2}
        for _ in range(8):
            doc = {"kind": "sum", "n": 1, "k": 2, "terms": [doc]}
        spec = parse(doc)
        f = spec.build()
        assert (len(built), f((2,)), f((1,))) == (1, 1.0, 0.0)
        assert spec.build() is f


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


# Malformed documents and the full message the parser gave for each before
# the per-kind readers replaced its validator and builder tables: JSON
# paths and constructor wording are pinned byte for byte.
IND = '{"kind": "indicator", "n": 1, "k": 2, "target": 1}'
IND2 = IND.replace('"n": 1', '"n": 2')
TAB1 = '{"kind": "tabular", "n": 2, "k": 1, "values": [0, 1, 1, 0]}'
BIG = "1" + "0" * 400  # an integer literal beyond the float range
DIAGNOSTICS = [
    ('{nope',
     "instance is not valid JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ('{"kind": "tabular", "n": 1, "k": 1, "values": [0, NaN]}',
     "instance: NaN is not a finite number"),
    ('[1, 2, 3]',
     "instance: expected a JSON object"),
    ('{"kind": "mystery", "n": 1, "k": 1}',
     "instance.kind: unknown kind 'mystery'; expected one of ('tabular', "
     "'max_k_cut', 'layer_layout', 'det_greedy_tight', 'coverage_tight', "
     "'indicator', 'sum', 'embedding')"),
    ('{"kind": ["tabular"], "n": 1, "k": 1}',
     "instance.kind: unknown kind ['tabular']; expected one of ('tabular', "
     "'max_k_cut', 'layer_layout', 'det_greedy_tight', 'coverage_tight', "
     "'indicator', 'sum', 'embedding')"),
    ('{"kind": "indicator", "k": 3, "target": 1}',
     "instance.n: missing required field"),
    ('{"kind": "indicator", "n": true, "k": 3, "target": 1}',
     "instance.n: expected an integer, got True"),
    ('{"kind": "indicator", "n": 1, "k": 3.0, "target": 1}',
     "instance.k: expected an integer, got 3.0"),
    # the one message reworded on purpose: Dims now refuses n and k through
    # check_int, which also names a float or a bool ("must be >= 1" before)
    ('{"kind": "indicator", "n": 0, "k": 3, "target": 1}',
     "instance.n: must be an integer >= 1, got 0"),
    ('{"kind": "indicator", "n": 1, "k": 3, "target": 4}',
     "instance.target: label 4 out of range [1, k=3]"),
    ('{"kind": "tabular", "n": 1, "k": 2, "values": {"a": 1}}',
     "instance.values: missing or not an array"),
    ('{"kind": "tabular", "n": 1, "k": 2, "values": [0, 1]}',
     "instance.values: need (k+1)^n = 3^1 entries for n=1, k=2, got shape (2,)"),
    ('{"kind": "tabular", "n": 1, "k": 2, "values": [0, "1", 2]}',
     "instance.values[1]: expected a number, got '1'"),
    ('{"kind": "tabular", "n": 1, "k": 2, "values": [0, 1, -1]}',
     "instance.values[2]: must be finite and >= 0, got -1.0"),
    ('{"kind": "tabular", "n": 1, "k": 1, "values": [0, ' + BIG + ']}',
     "instance.values[1]: int too large to convert to float"),
    ('{"kind": "max_k_cut", "n": 3, "k": 2, "edges": [[0, 1], [1]]}',
     "instance.edges[1]: expected a pair [u, v] of integers"),
    ('{"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1], [0, 2]]}',
     "instance.edges[1]: (0,2) out of range for n_vertices=2"),
    ('{"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[1, 1]]}',
     "instance.edges[0]: self-loop (1,1) not allowed"),
    ('{"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1]], "directed": 0}',
     "instance.directed: expected a boolean"),
    ('{"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1]], "directed": true}',
     "instance.directed: max-k-cut expects an undirected graph"),
    ('{"kind": "layer_layout", "n": 2, "k": 3, "edges": [[0, 1]]}',
     "instance.directed: layer layout expects a directed graph"),
    ('{"kind": "layer_layout", "n": 2, "k": 1, "edges": [[0, 1]], "directed": true}',
     "instance.k: layer layout needs k >= 2, got 1"),
    ('{"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1]], "weights": [-2]}',
     "instance.weights[0]: must be finite and >= 0, got -2.0"),
    ('{"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1]], "weights": [1, 2]}',
     "instance.weights: 2 weights for 1 edges"),
    ('{"kind": "max_k_cut", "n": 2, "k": 2, "edges": [[0, 1]], "weights": [null]}',
     "instance.weights[0]: expected a number, got None"),
    ('{"kind": "det_greedy_tight", "n": 2, "k": 2}',
     "instance.r: missing required field"),
    ('{"kind": "det_greedy_tight", "n": 2, "k": 2, "r": 3}',
     "instance.r: must be in [1, k=2], got 3"),
    ('{"kind": "coverage_tight", "n": 3, "k": 3}',
     "instance.n: declared 3, but this coverage_tight payload builds n=2"),
    ('{"kind": "sum", "n": 1, "k": 2, "terms": ' + IND + '}',
     "instance.terms: missing or not an array"),
    ('{"kind": "sum", "n": 1, "k": 2, "terms": []}',
     "instance.terms: need at least one oracle"),
    ('{"kind": "sum", "n": 1, "k": 2, "terms": [' + IND + ', '
     '{"kind": "indicator", "n": 1, "k": 3, "target": 1}]}',
     "instance.terms[1]: dims (n=1, k=3) differ from parent (n=1, k=2)"),
    ('{"kind": "sum", "n": 1, "k": 2, "terms": [' + IND + ', '
     '{"kind": "indicator", "n": 1, "k": 2, "target": 5}]}',
     "instance.terms[1].target: label 5 out of range [1, k=2]"),
    ('{"kind": "sum", "n": 1, "k": 2, "terms": [' + IND + '], "weights": [-1]}',
     "instance.weights[0]: must be finite and >= 0, got -1.0"),
    ('{"kind": "embedding", "n": 2, "k": 2, "base": 7}',
     "instance.base: expected a JSON object"),
    ('{"kind": "embedding", "n": 2, "k": 2, "base": ' + IND2 + '}',
     "instance.base.n: declared 2, but this indicator payload builds n=1"),
    ('{"kind": "embedding", "n": 1, "k": 2, "base": ' + IND + '}',
     "instance.base.kind: expected 'tabular', got 'indicator'"),
    ('{"kind": "embedding", "n": 2, "k": 2, "base": '
     '{"kind": "tabular", "n": 2, "k": 2, "values": [0, 0, 0, 0, 0, 0, 0, 0, 0]}}',
     "instance.base.k: embedding needs a set-function oracle (k=1), got k=2"),
    ('{"kind": "embedding", "n": 2, "k": 3, "base": ' + TAB1 + '}',
     "instance.k: declared 3, but this embedding payload builds k=2"),
    ('{"kind": "embedding", "n": 3, "k": 2, "base": ' + TAB1 + '}',
     "instance.n: declared 3, but this embedding payload builds n=2"),
    # a list of floats is taken as it is: one item of another type among
    # them is still named
    ('{"kind": "tabular", "n": 1, "k": 2, "values": [0.5, true, 1.5]}',
     "instance.values[1]: expected a number, got True"),
    ('{"kind": "max_k_cut", "n": 3, "k": 2, "edges": [[0, 1], [1, 2]], '
     '"weights": [1.5, "2.5"]}',
     "instance.weights[1]: expected a number, got '2.5'"),
]


@pytest.mark.parametrize("text,message", DIAGNOSTICS,
                         ids=[f"doc{i}" for i in range(len(DIAGNOSTICS))])
def test_diagnostics_are_pinned(text, message):
    with pytest.raises(InputError) as info:
        parse_instance(text)
    assert str(info.value) == message
