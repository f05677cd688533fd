"""Function families: values, structure membership, generators, tabulation."""

import hashlib
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ksubmax.core
from ksubmax.core import (
    assignment_of,
    digits_of,
    index_rows,
)
from ksubmax import (
    Dims,
    GraphInstance,
    InputError,
    OracleRangeError,
    TabularFunction,
    ValueOracle,
    check_k_submodular,
    check_orthant_submodular,
    check_r_wise_monotone,
    coverage_gamma,
    deterministic_greedy,
    embed_submodular,
    extend_to_orthant,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    make_max_k_cut,
    random_ksubmodular,
    random_table,
    sum_combine,
    tabulate,
)

import oracles
from factories import (
    EVAL_CASES,
    all_assignments,
    directed_path,
    hexed,
    random_submodular_table,
    single_edge,
    triangle,
)


class TestGraphInstance:
    def test_validation(self):
        with pytest.raises(InputError):
            GraphInstance(2, ((0, 2),))
        with pytest.raises(InputError):
            GraphInstance(3, ((1, 1),))
        with pytest.raises(InputError):
            GraphInstance(2, ((0, 1),), weights=(1.0, 2.0))
        with pytest.raises(InputError):
            GraphInstance(2, ((0, 1),), weights=(-1.0,))

    def test_default_weights(self):
        g = GraphInstance(3, ((0, 1), (1, 2)))
        assert g.weights == (1.0, 1.0)


class TestMaxKCut:
    def test_single_edge_values(self):
        f = make_max_k_cut(single_edge(), 2)
        assert f((1, 2)) == 1.0
        assert f((1, 1)) == 0.0
        assert f((1, 0)) == 1.0  # an unassigned endpoint counts as different
        assert f((0, 0)) == 0.0

    def test_triangle_orthant(self):
        f = make_max_k_cut(triangle(), 3)
        assert f((1, 2, 3)) == 3.0

    def test_weighted(self):
        f = make_max_k_cut(GraphInstance(2, ((0, 1),), weights=(2.5,)), 2)
        assert f((1, 2)) == 2.5

    def test_rejects_directed(self):
        with pytest.raises(InputError):
            make_max_k_cut(single_edge(directed=True), 2)

    def test_not_k_submodular_but_orthant_submodular(self):
        # counting half-open edges breaks pairwise monotonicity, hence
        # k-submodularity, while each orthant restriction stays submodular
        table = tabulate(make_max_k_cut(single_edge(), 3))
        report = check_k_submodular(table)
        assert not report.holds
        assert oracles.violation_margin(table, report.counterexample) > 1e-9
        assert check_orthant_submodular(table).holds
        assert not check_r_wise_monotone(table, 2).holds


class TestLayerLayout:
    def test_single_edge_values_k4(self):
        f = make_layer_layout(single_edge(directed=True), 4)
        assert f((0, 0)) == 0.0
        assert f((1, 0)) == 3 / 4
        assert f((0, 3)) == 2 / 4
        assert f((1, 2)) == 1.0
        assert f((3, 2)) == 0.0

    def test_rejects_undirected_and_small_k(self):
        with pytest.raises(InputError):
            make_layer_layout(single_edge(), 3)
        with pytest.raises(InputError):
            make_layer_layout(single_edge(directed=True), 1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_structure(self, k):
        table = tabulate(make_layer_layout(single_edge(directed=True), k))
        assert check_orthant_submodular(table).holds
        assert check_r_wise_monotone(table, k).holds
        # k-submodular exactly when k = 2
        assert check_k_submodular(table).holds == (k == 2)


def layout_edge_value(k, xu, xv):
    """One directed edge's layer-layout value, by its definition."""
    if xu == 0 and xv == 0:
        return 0.0
    if xv == 0:
        return (k - xu) / k
    if xu == 0:
        return (xv - 1) / k
    return 1.0 if xu < xv else 0.0


@pytest.mark.parametrize("build,directed,edge_value", [
    (make_max_k_cut, False, lambda k, xu, xv: float(xu != xv)),
    (make_layer_layout, True, layout_edge_value),
], ids=["cut", "layout"])
def test_an_edge_sum_builds_one_table_by_numpy(build, directed, edge_value):
    # a 5-edge path at k = 1000 took 0.34 s and 112 MB when each label pair
    # was a Python call and each edge kept its own weighted copy; one
    # (k+1)^2 table, 8 MB, is built now, whatever the number of edges
    k = 1000
    path = GraphInstance(6, tuple((e, e + 1) for e in range(5)), directed=directed,
                         weights=(0.5, 1.0, 1.5, 2.0, 2.5))
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        build(path, k)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.05
    tracemalloc.start()
    try:
        f = build(path, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (k + 1) ** 2
    rng = np.random.default_rng(k)
    for x in rng.integers(0, k + 1, size=(40, 6)).tolist() + [[0] * 6, [k] * 6]:
        want = 0.0
        for (u, v), w in zip(path.edges, path.weights):
            want += w * edge_value(k, x[u], x[v])
        assert f(tuple(x)).hex() == want.hex()


class TestDetGreedyTight:
    @pytest.mark.parametrize("k,r", [(2, 1), (2, 2), (4, 3)])
    def test_values(self, k, r):
        f = make_det_greedy_tight(k, r)
        assert f((1, 1)) == 1 / (r + 1)
        assert f((2, 2)) == 1.0
        assert f((0, 0)) == 0.0

    def test_rejects_bad_r(self):
        with pytest.raises(InputError):
            make_det_greedy_tight(2, 3)
        with pytest.raises(InputError):
            make_det_greedy_tight(2, 0)

    @pytest.mark.parametrize("r", [1.5, 2.0, True])
    def test_rejects_non_integer_r(self, r):
        # 1.5 built det_greedy_tight_k3_r1.5
        with pytest.raises(InputError, match=r"^r: must be an integer >= 1"):
            make_det_greedy_tight(3, r)

    @pytest.mark.parametrize("k,r", [(2, 1), (2, 2), (3, 2), (4, 4)])
    def test_declared_structure(self, k, r):
        table = tabulate(make_det_greedy_tight(k, r))
        assert check_orthant_submodular(table).holds
        assert check_r_wise_monotone(table, r).holds
        if r >= 2:
            assert not check_r_wise_monotone(table, r - 1).holds


class TestCoverageTight:
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_values(self, k):
        f = make_coverage_tight(k)
        gamma = coverage_gamma(k)
        assert gamma == 1 / math.sqrt(k - 1)
        for j in range(1, k + 1):
            assert f((1, j)) == 1 + gamma
        for i in range(2, k + 1):
            assert f((i, 1)) == gamma
        assert f((0, 0)) == 0.0

    def test_all_marginals_nonnegative(self):
        k = 4
        f = make_coverage_tight(k)
        for s in all_assignments(f.dims):
            base = f(s)
            for e in range(2):
                if s[e] != 0:
                    continue
                for i in range(1, k + 1):
                    bumped = list(s)
                    bumped[e] = i
                    assert f(tuple(bumped)) - base >= 0.0

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_r_wise_monotone_for_all_r(self, r):
        table = tabulate(make_coverage_tight(4))
        assert check_r_wise_monotone(table, r).holds


class TestIndicator:
    def test_values(self):
        f = make_indicator(2, 1)
        assert f((1,)) == 1.0
        assert f((2,)) == 0.0
        assert f((0,)) == 0.0
        g = make_indicator(3, 3)
        assert g((3,)) == 1.0

    def test_rejects_bad_target(self):
        with pytest.raises(InputError):
            make_indicator(3, 4)


class TestSumCombine:
    def test_zero_weights_give_zero(self):
        fs = [make_indicator(2, 1), make_indicator(2, 2)]
        f = sum_combine(fs, [0.0, 0.0])
        assert all(f(x) == 0.0 for x in all_assignments(f.dims))

    def test_path_of_two_edges(self):
        edges = [
            make_max_k_cut(GraphInstance(3, ((0, 1),)), 2),
            make_max_k_cut(GraphInstance(3, ((1, 2),)), 2),
        ]
        f = sum_combine(edges)
        assert f((1, 2, 1)) == 2.0

    def test_halving(self):
        base = make_coverage_tight(3)
        half = sum_combine([base], [0.5])
        for x in all_assignments(base.dims):
            assert half(x) == 0.5 * base(x)

    def test_errors(self):
        with pytest.raises(InputError):
            sum_combine([])
        with pytest.raises(InputError):
            sum_combine([make_indicator(2, 1)], [-1.0])
        with pytest.raises(InputError):
            sum_combine([make_indicator(2, 1), make_indicator(3, 1)])
        with pytest.raises(InputError):
            sum_combine([make_indicator(2, 1)], [1.0, 2.0])

    def test_preserves_k_submodularity(self):
        dims = Dims(2, 3)
        parts = [random_ksubmodular(dims, atoms=4, seed=s) for s in (3, 4)]
        combined = tabulate(sum_combine(parts, [0.7, 1.3]))
        assert check_k_submodular(combined).holds


class TestEmbedding:
    def edge_cut_g(self):
        # g(empty)=0, g({a})=g({b})=1, g(U)=0
        return TabularFunction(Dims(2, 1), [0.0, 1.0, 1.0, 0.0])

    def test_values(self):
        f = embed_submodular(self.edge_cut_g())
        assert f((1, 2)) == 2.0  # S={a}, T={b}
        assert f((0, 0)) == 0.0
        assert f((2, 0)) == 1.0  # S=empty, T={a}

    def test_call_accounting(self):
        g = self.edge_cut_g()
        f = embed_submodular(g)
        assert g.calls == 1  # ground-set value cached at construction
        f((1, 2))
        f((0, 0))
        assert g.calls == 1 + 2 * 2

    def test_rejects_non_set_function(self):
        with pytest.raises(InputError):
            embed_submodular(make_indicator(2, 1))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cut_sum_embeddings_are_bisubmodular(self, seed):
        g = random_submodular_table(3, seed, cut_only=True)
        table = tabulate(embed_submodular(g))
        assert check_k_submodular(table).holds

    def test_negative_embedding_surfaces_at_tabulation(self):
        # for monotone g with g(U) > 0 the formula goes negative at
        # (S, T) = (empty, U): g(empty) + g(empty) - g(U)
        g = TabularFunction(Dims(2, 1), [0.0, 1.0, 1.0, 1.0])
        f = embed_submodular(g)
        assert f((2, 2)) == -1.0
        with pytest.raises(OracleRangeError):
            tabulate(f)


#: The seeded table generators, each as seed -> table.
SEEDED = [
    lambda seed: random_table(Dims(2, 2), seed=seed),
    lambda seed: random_ksubmodular(Dims(2, 2), atoms=3, seed=seed),
]
SEEDED_IDS = ["random-table", "random-ksub"]


class TestRandomGenerators:
    def test_atoms_zero_gives_zero_table(self):
        table = random_ksubmodular(Dims(2, 2), atoms=0, seed=9)
        assert np.all(table.values == 0.0)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3),
        k=st.integers(2, 4),
    )
    def test_output_is_k_submodular(self, seed, n, k):
        table = random_ksubmodular(Dims(n, k), atoms=5, seed=seed)
        assert check_k_submodular(table).holds

    def test_seed_reproducible(self):
        a = random_ksubmodular(Dims(3, 3), atoms=7, seed=42)
        b = random_ksubmodular(Dims(3, 3), atoms=7, seed=42)
        assert np.array_equal(a.values, b.values)
        c = random_ksubmodular(Dims(3, 3), atoms=7, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_cap(self):
        with pytest.raises(InputError):
            random_ksubmodular(Dims(4, 4), atoms=2, seed=0, max_states=100)

    @pytest.mark.parametrize("atoms", [2.5, True, -1])
    def test_rejects_atoms_but_an_integer_at_least_0(self, atoms):
        # 2.5 raised numpy's TypeError, and True was taken as one atom
        with pytest.raises(InputError, match=r"^atoms: must be an integer >= 0"):
            random_ksubmodular(Dims(2, 2), atoms=atoms, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    @pytest.mark.parametrize("build", SEEDED, ids=SEEDED_IDS)
    def test_rejects_seed_but_an_integer_at_least_0(self, build, seed):
        # 1.5 raised numpy's TypeError, -1 numpy's ValueError naming no
        # argument, and True built random_table_sTrue
        with pytest.raises(InputError, match=r"^seed: must be an integer >= 0"):
            build(seed)

    @pytest.mark.parametrize("build", SEEDED, ids=SEEDED_IDS)
    def test_a_numpy_integer_seed_is_the_int_seed(self, build):
        a, b = build(3), build(np.int64(3))
        assert a.name == b.name
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n,k,atoms,seed", [(1, 3, 4, 0), (2, 2, 6, 1), (3, 4, 9, 2),
                                                (5, 2, 15, 3), (4, 3, 20, 4)])
    def test_random_ksubmodular_is_the_per_assignment_sum(self, n, k, atoms, seed):
        # the same draws and products, added entry by entry in atom order
        rng = np.random.default_rng(seed)
        rows = [tuple(int(i) // (k + 1) ** e % (k + 1) for e in range(n))
                for i in range((k + 1) ** n)]
        values = np.zeros(len(rows))
        for _ in range(atoms):
            weight = rng.random()
            if n >= 2 and rng.random() < 0.5:
                u, v = rng.choice(n, size=2, replace=False)
                cut = [x[u] != x[v] and x[u] * x[v] != 0 for x in rows]
                half = [(x[u] == 0) ^ (x[v] == 0) for x in rows]
                values += [weight * (1.0 * c + 0.5 * h) for c, h in zip(cut, half)]
            else:
                e, p = int(rng.integers(n)), int(rng.integers(1, k + 1))
                values += [weight * (x[e] == p) for x in rows]
        table = random_ksubmodular(Dims(n, k), atoms=atoms, seed=seed)
        assert table.values.tobytes() == values.tobytes()

    def test_random_ksubmodular_memory_is_about_its_table(self):
        # each atom is added onto the table by broadcasting, not through
        # a (k+1)^n x n label matrix and full-size temporaries
        tracemalloc.start()
        try:
            table = random_ksubmodular(Dims(12, 2), atoms=36, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table.values.nbytes

    def test_random_table_nonnegative(self):
        table = random_table(Dims(2, 3), seed=5)
        assert table.values.min() >= 0.0


class TestTabulate:
    def test_indicator_table(self):
        table = tabulate(make_indicator(2, 1))
        assert list(table.values) == [0.0, 1.0, 0.0]

    def test_constant_zero(self):
        zero = ValueOracle(Dims(2, 2), lambda x: 0.0)
        table = tabulate(zero)
        assert np.all(table.values == 0.0)

    def test_idempotent_no_calls(self):
        table = tabulate(make_indicator(2, 1))
        before = table.calls
        again = tabulate(table)
        assert again is table
        assert table.calls == before

    def test_matches_oracle_everywhere(self):
        f = make_coverage_tight(3)
        table = tabulate(f)
        for x in all_assignments(f.dims):
            assert table(x) == f(x)

    def test_cap(self):
        with pytest.raises(InputError):
            tabulate(make_coverage_tight(3), max_states=4)

    def test_negative_value_raises(self):
        bad = ValueOracle(Dims(1, 1), lambda x: -1.0 if x[0] else 0.0)
        with pytest.raises(OracleRangeError):
            tabulate(bad)

    def test_table_constructor_validates(self):
        with pytest.raises(InputError):
            TabularFunction(Dims(1, 1), [0.0, 1.0, 2.0])
        with pytest.raises(OracleRangeError):
            TabularFunction(Dims(1, 1), [0.0, -0.5])


class TestEvalIndices:
    @settings(max_examples=80)
    @given(name=st.sampled_from(sorted(EVAL_CASES)), data=st.data())
    def test_matches_scalar_calls_and_counts(self, name, data):
        f, subs = EVAL_CASES[name]()
        size = f.dims.num_assignments
        idx = data.draw(st.lists(st.integers(0, size - 1), max_size=3 * size))
        calls, sub_calls = f.calls, [g.calls for g, _ in subs]
        got = f.eval_indices(np.array(idx, dtype=np.int64))
        assert f.calls == calls + len(idx)
        for (g, per_row), before in zip(subs, sub_calls):
            assert g.calls == before + per_row * len(idx)
        want = []
        for i in idx:  # untabulated f(x): one call, a float, sub-oracles per row
            calls, sub_calls = f.calls, [g.calls for g, _ in subs]
            want.append(f(assignment_of(i, f.dims)))
            assert type(want[-1]) is float
            assert f.calls == calls + 1
            for (g, per_row), before in zip(subs, sub_calls):
                assert g.calls == before + per_row
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("name", sorted(set(EVAL_CASES) - {"fallback"}))
    def test_families_have_no_scalar_form(self, name):
        # one form per family: an untabulated f(x) evaluates one label row
        f, subs = EVAL_CASES[name]()
        assert f._fn is None
        assert all(g._fn is None for g, _ in subs)

    @pytest.mark.parametrize("name", sorted(EVAL_CASES))
    def test_blocks_and_empty_input(self, name, monkeypatch):
        f, _ = EVAL_CASES[name]()
        idx = np.arange(f.dims.num_assignments)[::-1]
        whole = f.eval_indices(idx)
        monkeypatch.setattr(ksubmax.core, "EVAL_BLOCK", 7)
        assert np.array_equal(f.eval_indices(idx), whole)
        calls = f.calls
        assert f.eval_indices([]).shape == (0,)
        assert f.calls == calls

    def test_rejects_bad_indices(self):
        f = make_indicator(3, 1)
        for bad in ([4], [-1], [0.5], [[0, 1]]):
            with pytest.raises(InputError):
                f.eval_indices(np.array(bad))
        assert f.calls == 0


def block_axes(n, k, block):
    """The largest m in 1..n with (k+1)^m <= block, else 1: eval_all's
    blocks are (k+1)^m assignments on m axes."""
    return max([m for m in range(1, n + 1) if (k + 1) ** m <= block], default=1)


def grid_indices(cols, k):
    """The mixed-radix index of every assignment of broadcasting label
    columns, in C order, by plain broadcasting arithmetic."""
    shape = np.broadcast_shapes(*map(np.shape, cols))
    index = np.zeros(shape, dtype=np.int64)
    for e, col in enumerate(cols):
        index += np.broadcast_to(col, shape) * (k + 1) ** e
    return index.ravel()


class TestEvalAll:
    # k = 9 takes the floor m = 1 at a block bound of 7: 10 assignments a block
    CASES = {**EVAL_CASES, "coverage_k9": lambda: (make_coverage_tight(9), [])}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_eval_indices_in_aligned_blocks(self, name, monkeypatch):
        monkeypatch.setattr(ksubmax.core, "EVAL_BLOCK", 7)
        f, subs = self.CASES[name]()
        g, g_subs = self.CASES[name]()
        n, k = g.dims.n, g.dims.k
        size = g.dims.num_assignments
        blocks = []

        def keep_cols(cols, evaluate=g._eval_cols):
            blocks.append(cols)  # kept: a later block must not change it
            return evaluate(cols)

        monkeypatch.setattr(g, "_eval_cols", keep_cols)
        want = f.eval_indices(np.arange(size))
        got = g.eval_all()
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        assert g.calls == f.calls == size
        assert [h.calls for h, _ in g_subs] == [h.calls for h, _ in subs]
        if isinstance(g, TabularFunction):  # gathered from its values
            assert blocks == []
            return
        m = block_axes(n, k, 7)
        assert len(blocks) == size // (k + 1) ** m and (len(blocks) > 1 or n == 1)
        for cols in blocks:  # an open grid: m columns 0..k, n - m scalars
            assert len(cols) == n
            for e, col in enumerate(cols[:m]):
                assert col.shape == (k + 1,) + (1,) * e and not col.flags.writeable
                assert col.ravel().tolist() == list(range(k + 1))
            assert all(type(col) is np.int64 for col in cols[m:])
        indices = np.concatenate([grid_indices(cols, k) for cols in blocks])
        assert np.array_equal(indices, np.arange(size))

    @pytest.mark.parametrize("name", ["nested_sum", "fallback"])
    def test_a_kept_vector_is_gathered(self, name):
        f, subs = self.CASES[name]()
        table = tabulate(f)
        calls, sub_calls = f.calls, [h.calls for h, _ in subs]
        got = f.eval_all()
        assert np.array_equal(got, table.values)
        assert f.calls == calls + got.size
        assert [h.calls for h, _ in subs] == sub_calls
        got[0] += 1.0  # a copy: the kept vector is unchanged
        assert np.array_equal(f.eval_all(), table.values)

    @pytest.mark.parametrize("bad,message", [(math.inf, "non-finite value"),
                                             (-1.0, "negative")])
    def test_a_later_block_refusal_names_its_assignment(self, bad, message,
                                                        monkeypatch):
        # 27 states in blocks of 3; index 22 lies in the eighth block, and
        # the later bad value at index 25 is not the one named
        monkeypatch.setattr(ksubmax.core, "EVAL_BLOCK", 7)
        dims = Dims(3, 2)
        first, later = assignment_of(22, dims), assignment_of(25, dims)

        def batch(cols):
            return np.where(np.isin(grid_indices(cols, 2), [22, 25]), bad, 1.0)

        f = ValueOracle(dims, lambda x: bad if x in (first, later) else 1.0,
                        batch=batch)
        for _ in range(2):
            with pytest.raises(OracleRangeError,
                               match=f"{message} at {re.escape(str(first))}: "):
                tabulate(f)
            assert f._kept is None


@pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (7, 3), (9, 3), (19, 1), (6, 9),
                                 (2, 999), (1, 10**6)])
def test_digits_of_matches_assignment_of(n, k):
    # (2, 999) holds the largest index the 10^6 state cap admits, 999999;
    # index_rows must map the rows back to the indices
    dims = Dims(n, k)
    top = dims.num_assignments - 1
    rng = np.random.default_rng(1000 * n + k)
    idx = np.concatenate([rng.integers(0, top + 1, size=300), [0, top]])
    got = digits_of(idx, n, k)
    assert got.dtype == np.int64 and got.flags.f_contiguous
    assert list(map(tuple, got.tolist())) == [assignment_of(int(i), dims) for i in idx]
    back = index_rows(got, k)
    assert back.dtype == np.int64 and np.array_equal(back, idx)


def divmod_label_rows(n, k, m):
    """The labels of assignments 0..(k+1)^m - 1 by repeated divmod of every
    index, one column per element: the reference the open grids must
    equal."""
    rest = np.arange((k + 1) ** m, dtype=np.int64)
    digits = np.empty((rest.size, n), dtype=np.int64)
    for e in range(n):
        rest, digits[:, e] = np.divmod(rest, k + 1)
    return digits


@pytest.mark.parametrize("block,most", [(7, 2**10), (2**14, 2**15)])
def test_open_grids_match_divmod(block, most, monkeypatch):
    # every (n, k) up to `most` assignments, and (9, 3) in blocks of 4^7:
    # the open grids of eval_all, broadcast to label rows and taken in
    # order, are the labels of every assignment in index order
    monkeypatch.setattr(ksubmax.core, "EVAL_BLOCK", block)
    sizes = [(n, k) for n in range(1, 12) for k in range(1, 40) if (k + 1) ** n <= most]
    for n, k in sizes + [(9, 3)] * (block > 7):
        blocks = []
        f = ValueOracle(Dims(n, k), None, batch=lambda cols: blocks.append(cols) or 0.0)
        assert np.array_equal(f.eval_all(), np.zeros((k + 1) ** n)), (n, k)
        rows = np.concatenate([
            np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, n) for cols in blocks
        ])
        assert np.array_equal(rows, divmod_label_rows(n, k, n)), (n, k)


#: A recipe is pure data, built into oracles by build_recipe: each leaf a
#: zoo family, a "sum" of recipes of the same (n, k), an "embed" of a k = 1
#: recipe.
def recipes(n, k, depth):
    weights = st.floats(0.0, 4.0, allow_nan=False)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = st.lists(st.tuples(pairs, weights), max_size=5)
    seeds = st.integers(0, 2**16)
    leaves = [st.tuples(st.just("table"), seeds),
              st.tuples(st.just("ksub"), st.integers(0, 6), seeds)]
    if n >= 2:
        leaves.append(st.tuples(st.just("cut"), edges))
        if k >= 2:
            leaves.append(st.tuples(st.just("layout"), edges))
    if n == 2 and k >= 2:
        leaves += [st.tuples(st.just("det"), st.integers(1, k)),
                   st.tuples(st.just("coverage"))]
    if n == 1:
        leaves.append(st.tuples(st.just("indicator"), st.integers(1, k)))
    options = leaves
    if depth > 0:
        parts = st.lists(st.tuples(st.deferred(lambda: recipes(n, k, depth - 1)), weights),
                         min_size=1, max_size=3)
        options = options + [st.tuples(st.just("sum"), parts)]
        if k == 2:
            options.append(st.tuples(st.just("embed"), recipes(n, 1, depth - 1)))
    return st.one_of(*options)


def build_recipe(recipe, n, k, built):
    """The oracle of ``recipe`` at (n, k); every oracle built for it,
    sub-oracles first, is appended to ``built``."""
    kind, args = recipe[0], recipe[1:]
    if kind == "table":
        f = random_table(Dims(n, k), seed=args[0])
    elif kind == "ksub":
        f = random_ksubmodular(Dims(n, k), atoms=args[0], seed=args[1])
    elif kind in ("cut", "layout"):
        graph = GraphInstance(n, tuple(p for p, _ in args[0]), directed=kind == "layout",
                              weights=tuple(w for _, w in args[0]))
        f = (make_layer_layout if kind == "layout" else make_max_k_cut)(graph, k)
    elif kind == "det":
        f = make_det_greedy_tight(k, args[0])
    elif kind == "coverage":
        f = make_coverage_tight(k)
    elif kind == "indicator":
        f = make_indicator(k, args[0])
    elif kind == "sum":
        terms = [build_recipe(part, n, k, built) for part, _ in args[0]]
        f = sum_combine(terms, [w for _, w in args[0]])
    else:
        f = embed_submodular(build_recipe(args[0], n, 1, built))
    built.append(f)
    return f


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block=st.sampled_from([7, 2**14]))
def test_eval_all_is_eval_indices_over_nested_families(data, block):
    # eval_all's open grids and eval_indices' matrices of columns give the
    # same values, bit for bit, and charge the oracle and every sub-oracle
    # the same calls
    n, k = data.draw(st.sampled_from([(1, 3), (2, 2), (2, 5), (3, 2), (4, 2),
                                      (3, 4), (5, 2), (6, 1), (4, 3)]))
    recipe = data.draw(recipes(n, k, depth=2))
    by_index, by_grid = [], []
    f = build_recipe(recipe, n, k, by_index)
    g = build_recipe(recipe, n, k, by_grid)
    before = [h.calls for h in by_index]
    assert before == [h.calls for h in by_grid]
    size = (k + 1) ** n
    saved = ksubmax.core.EVAL_BLOCK
    ksubmax.core.EVAL_BLOCK = block
    try:
        want = f.eval_indices(np.arange(size))
        got = g.eval_all()
    finally:
        ksubmax.core.EVAL_BLOCK = saved
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert f.calls - before[-1] == g.calls - before[-1] == size
    assert [h.calls for h in by_grid] == [h.calls for h in by_index]


def family_digest(f):
    """sha256 of everything a family's values feed, every float by float.hex:
    the tabulated values, two deterministic greedy results, the greedy
    extensions of three partial assignments and the type of a scalar value."""
    n, k = f.dims.n, f.dims.k
    parts = [hexed(tabulate(f).values.tolist())]
    parts.append(hexed(deterministic_greedy(f).to_json()))
    parts.append(hexed(deterministic_greedy(f, tuple(range(n))[::-1], 0.5).to_json()))
    for s in [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (k,)]:
        parts.append(list(extend_to_orthant(f, s)))
    value = f((k,) * n)
    parts.append([type(value).__name__, value.hex()])
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


@pytest.mark.parametrize("build,calls,digest", [
    (lambda: EVAL_CASES["max_k_cut"]()[0], 316,
     "704302da900f6ad744d71dd687e23972185867ac1e51005d70279231fdacd5fe"),
    (lambda: make_max_k_cut(triangle(), 2), 59,
     "162e6ea1cd8aa45899f3a2ca9da550f3e86d40db055b1e4b800903056c81dbaf"),
    (lambda: EVAL_CASES["layer_layout"]()[0], 703,
     "fb7b6a3b17737d745810036382e3107057d9754d5b6717765e5a720ab8befd15"),
    (lambda: make_layer_layout(directed_path(5), 3), 1099,
     "ceece51a78f9e43f26418b71712db11161e559057757c4356642fffd9b0111cd"),
    (lambda: EVAL_CASES["nested_sum"]()[0], 316,
     "6ed3dea483a5ced08b27df053a4ac1938b6a982b3bf00958f18ee89a6fd4b9d2"),
    (lambda: EVAL_CASES["embedding"]()[0], 123,
     "48fc0dc66162a3e93851702f21c68cc5318c092df9f506bdca26cb4b5baa7854"),
    (lambda: make_det_greedy_tight(4, 2), 63,
     "ecb8deb41a262fad77fbf37c66a0247141b3d0107e4ac8c51052b2ab074b2f9a"),
    (lambda: make_coverage_tight(5), 82,
     "4fcd74a30945bcc6b0b7d1f7ad9643012be5cab2bdc237b75b892863ea50550e"),
    (lambda: make_indicator(4, 2), 21,
     "1b2eca0509b0b68f767676ef78f157375f9746d6930a0dd41bb450e0748cea50"),
], ids=["cut-weighted", "cut-triangle", "layout-weighted", "layout-path",
        "nested-sum", "embedding", "det-greedy-tight", "coverage-tight",
        "indicator"])
def test_family_outputs_keep_their_recorded_digests(build, calls, digest):
    # recorded before max-k-cut and the layer layout shared one edge sum, and
    # for the tight instances and the indicator before the families lost
    # their scalar forms; a changed float, label, value type or call count
    # changes the digest
    f = build()
    assert (family_digest(f), f.calls) == (digest, calls)
