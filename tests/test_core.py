"""Core representation: lattice operations, indexing, oracle contract."""

import itertools
import math

import numpy as np
import pytest

from ksubmax import (
    Dims,
    InputError,
    PreconditionError,
    TabularFunction,
    ValueOracle,
    all_orthants,
    brute_force_max,
    deterministic_greedy,
    extend_to_orthant,
    id0,
    is_orthant,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    make_max_k_cut,
    marginal,
    max0,
    min0,
    random_ksubmodular,
    random_table,
    restrict,
    tabulate,
)
from ksubmax.core import (
    assignment_of,
    index_of,
    with_label,
)
from ksubmax.maximize import smallest_max_label

import oracles
from factories import all_assignments, single_edge


class TestLatticeOps:
    def test_min0_examples(self):
        assert min0((1, 2, 0), (1, 1, 2)) == (1, 0, 0)
        assert min0((0, 0), (0, 0)) == (0, 0)
        assert min0((2, 0), (2, 3)) == (2, 0)

    def test_max0_examples(self):
        assert max0((1, 2, 0), (1, 1, 2)) == (1, 0, 2)
        assert max0((0, 0), (0, 0)) == (0, 0)
        assert max0((2, 0), (2, 3)) == (2, 3)

    def test_id0_examples(self):
        assert id0((1, 2), (1, 1)) == (1, 0)
        assert id0((2, 2), (2, 2)) == (2, 2)
        assert id0((1, 2), (2, 1)) == (0, 0)

    @pytest.mark.parametrize("op", [min0, max0, id0])
    def test_length_mismatch(self, op):
        with pytest.raises(InputError):
            op((1, 2), (1, 2, 3))

    def test_scalar_laws_exhaustive(self):
        # commutativity, idempotence, and agreement with the reference
        # definition over every coordinate pair up to k=5
        k = 5
        for a, b in itertools.product(range(k + 1), repeat=2):
            assert min0((a,), (b,)) == min0((b,), (a,)) == (oracles.sc_min0(a, b),)
            assert max0((a,), (b,)) == max0((b,), (a,)) == (oracles.sc_max0(a, b),)
            assert id0((a,), (b,)) == id0((b,), (a,)) == (oracles.sc_id0(a, b),)
            assert min0((a,), (a,)) == max0((a,), (a,)) == id0((a,), (a,)) == (a,)

    def test_orthant_pairs_collapse_to_id0(self):
        # on orthant pairs the three operations coincide
        dims = Dims(2, 3)
        for s in all_orthants(dims):
            for t in all_orthants(dims):
                assert min0(s, t) == max0(s, t) == id0(s, t)


class TestRestrictAndOrthant:
    def test_restrict_examples(self):
        assert restrict((1, 2, 3), {0, 2}) == (1, 0, 3)
        assert restrict((1, 2, 3), set()) == (0, 0, 0)
        assert restrict((1, 2, 3), {0, 1, 2}) == (1, 2, 3)

    def test_restrict_idempotent_and_off_support(self):
        x = (1, 0, 3, 2)
        keep = {1, 2}
        once = restrict(x, keep)
        assert restrict(once, keep) == once
        for e in range(4):
            assert once[e] == (x[e] if e in keep else 0)

    def test_restrict_out_of_range(self):
        with pytest.raises(InputError):
            restrict((1, 2), {2})

    def test_is_orthant(self):
        assert is_orthant((1, 2))
        assert not is_orthant((1, 0))


class TestIndexing:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 3), (3, 2)])
    def test_roundtrip(self, n, k):
        dims = Dims(n, k)
        for idx, x in enumerate(all_assignments(dims)):
            assert index_of(x, k) == idx
            assert assignment_of(idx, dims) == x

    def test_all_orthants_ascending_and_complete(self):
        dims = Dims(2, 3)
        seen = list(all_orthants(dims))
        assert len(seen) == dims.num_orthants
        assert all(is_orthant(x) for x in seen)
        indices = [index_of(x, 3) for x in seen]
        assert indices == sorted(indices)

    def test_dims_validation(self):
        with pytest.raises(InputError):
            Dims(0, 2)
        with pytest.raises(InputError):
            Dims(2, 0)

    @pytest.mark.parametrize("n,k,name", [(2.0, 3, "n"), (True, 2, "n"), (2, 3.0, "k"),
                                          (2, False, "k"), ("2", 3, "n")])
    def test_dims_refuse_non_integers(self, n, k, name):
        # Dims(2.0, 3) was accepted, and random_table then died in numpy with
        # "expected a sequence of integers"; Dims(True, 2) was taken as n=1
        with pytest.raises(InputError, match=rf"^{name}: must be an integer >= 1"):
            Dims(n, k)

    def test_dims_hold_python_ints(self):
        # with numpy ints, (k+1)^n wrapped in int64: 4^40 read 0 and passed caps
        dims = Dims(np.int64(40), np.int32(3))
        assert (type(dims.n), type(dims.k)) == (int, int)
        assert dims == Dims(40, 3)
        with pytest.raises(InputError, match="4\\^40 states"):
            dims.check_cap("tabulation", 10**6)

    def test_caps_hold_at_their_bound(self):
        Dims(3, 2).check_cap("tabulation", 27)
        with pytest.raises(InputError, match=r"^tabulation needs 3\^3 states, cap is 26$"):
            Dims(3, 2).check_cap("tabulation", 26)
        # base 1 never exceeds a cap of 1 or more, for any n
        Dims(10**12, 1).check_cap("orthant count", 1, base=1)
        with pytest.raises(InputError, match=r"needs 1\^1000000000000 states, cap is 0$"):
            Dims(10**12, 1).check_cap("orthant count", 0, base=1)

    @pytest.mark.parametrize("run,refusal", [
        (lambda dims: tabulate(ValueOracle(dims, sum)), "tabulation needs 3"),
        (lambda dims: brute_force_max(ValueOracle(dims, sum)), "brute force needs 3"),
        (lambda dims: brute_force_max(ValueOracle(dims, sum), over_orthants_only=True),
         "brute force needs 2"),
        (lambda dims: random_table(dims, seed=0), "random table needs 3"),
        (lambda dims: random_ksubmodular(dims, atoms=1, seed=0), "random table needs 3"),
        (lambda dims: TabularFunction(dims, [0.0, 1.0, 2.0]), r"values: need .* = 3"),
    ], ids=["tabulate", "brute-force", "brute-force-orthants", "random-table",
            "random-ksubmodular", "tabular"])
    def test_caps_refuse_a_huge_n_without_building_the_count(self, run, refusal):
        # 3^(10^12) was built before it was compared: n = 2*10^7 took seconds
        with pytest.raises(InputError, match=rf"^{refusal}\^1000000000000 "):
            run(Dims(10**12, 2))


class TestValueOracle:
    def test_calls_counter_increases(self):
        f = make_indicator(3, 1)
        assert f.calls == 0
        f((1,))
        f((2,))
        assert f.calls == 2

    def test_rejects_bad_assignments(self):
        f = make_indicator(3, 1)
        with pytest.raises(InputError):
            f((1, 2))
        with pytest.raises(InputError):
            f((4,))
        with pytest.raises(InputError):
            f((-1,))

    def test_accepts_lists(self):
        f = make_indicator(3, 2)
        assert f([2]) == 1.0

    @pytest.mark.parametrize("x", [(1.5, 2), (1.0, 0), (True, 0), ("1", 0),
                                   (np.float64(1), 0), (np.True_, 0)])
    def test_refuses_labels_that_are_not_integers(self, x):
        # a layout read (1.5, 2) as 1.0, and a table raised IndexError on (1.0, 0)
        layout = make_layer_layout(single_edge(directed=True), 3)
        for f in (layout, random_table(Dims(2, 3), seed=1)):
            with pytest.raises(InputError, match=r"^label .* is not an integer$"):
                f(x)
            assert f.calls == 0

    def test_accepts_numpy_integer_labels(self):
        f = make_layer_layout(single_edge(directed=True), 3)
        for x in [(np.int64(1), np.int32(2)), (np.uint8(1), 2), np.array([1, 2])]:
            assert f(x) == f((1, 2)) == 1.0


class TestMarginal:
    def test_max_2_cut_examples(self):
        f = make_max_k_cut(single_edge(), 2)
        assert marginal(f, 1, 0, (0, 0)) == 1.0
        assert marginal(f, 2, 1, (2, 0)) == -1.0

    def test_constant_function(self):
        f = ValueOracle(Dims(2, 2), lambda x: 3.5)
        assert marginal(f, 2, 1, (1, 0)) == 0.0

    def test_exactly_two_calls(self):
        f = make_max_k_cut(single_edge(), 2)
        before = f.calls
        marginal(f, 1, 0, (0, 0))
        assert f.calls - before == 2

    def test_precondition(self):
        f = make_max_k_cut(single_edge(), 2)
        with pytest.raises(PreconditionError):
            marginal(f, 1, 0, (2, 0))
        with pytest.raises(InputError):
            marginal(f, 3, 0, (0, 0))
        with pytest.raises(InputError):
            marginal(f, 1, 5, (0, 0))

    def test_matches_direct_evaluation_exhaustively(self):
        table = random_ksubmodular(Dims(2, 3), atoms=5, seed=29)
        for s in all_assignments(table.dims):
            for e in range(2):
                if s[e] != 0:
                    continue
                for i in range(1, 4):
                    direct = table(with_label(s, e, i)) - table(s)
                    assert marginal(table, i, e, s) == direct


class TestExtendToOrthant:
    def test_indicator(self):
        f = make_indicator(3, 1)
        out = extend_to_orthant(f, (0,))
        assert out == (1,)
        assert f(out) == 1.0

    def test_orthant_unchanged(self):
        f = make_max_k_cut(single_edge(), 2)
        assert extend_to_orthant(f, (2, 1)) == (2, 1)

    def test_det_greedy_tight_pair(self):
        f = make_det_greedy_tight(2, 2)
        out = extend_to_orthant(f, (0, 2))
        assert out == (2, 2)
        assert f(out) == 1.0

    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
    def test_never_decreases_on_ksubmodular(self, n, k):
        # pairwise monotone functions extend without loss
        table = random_ksubmodular(Dims(n, k), atoms=5, seed=17 * n + k)
        for s in all_assignments(table.dims):
            extended = extend_to_orthant(table, s)
            assert is_orthant(extended)
            assert table(extended) >= table(s) - 1e-12

    @pytest.mark.parametrize("s,refusal", [
        ((1, 2, 3), r"^assignment has length 3, expected n=2$"),
        ((9, 7), r"^label 9 out of range \[0, k=3\]$"),
        ((1.5, 2), r"^label 1.5 is not an integer$"),
    ], ids=["length", "label-out-of-range", "float-label"])
    def test_malformed_input_refused(self, s, refusal):
        # each came back as an orthant: only a partial input was checked, by f(s)
        f = make_coverage_tight(3)
        with pytest.raises(InputError, match=refusal):
            extend_to_orthant(f, s)
        assert f.calls == 0

    def test_orthant_costs_no_call(self):
        f = make_coverage_tight(3)
        assert extend_to_orthant(f, (np.int64(3), 1)) == (3, 1)
        assert f.calls == 0


def test_smallest_max_label_tie_breaking():
    assert smallest_max_label([0.0, 0.0, 0.0]) == 1
    assert smallest_max_label([1.0, 2.0, 2.0]) == 2
    assert smallest_max_label([2.0, 2.0 - 1e-12, 0.0]) == 1  # within eps counts as tied
    assert smallest_max_label([1.0, 2.0, 1.0], eps=0.0) == 2


def test_smallest_max_label_takes_k_when_the_first_value_is_nan():
    # max() then returns the NaN, which no value is within eps of.  The
    # greedy meets it when a negative-valued f, which the oracle does not
    # refuse, overflows its running value: inf, then inf - inf
    assert smallest_max_label([math.nan, 1.0, 0.0]) == 3
    f = ValueOracle(Dims(3, 2), lambda x: -1e308 if x == (0, 0, 0) else 1e308)
    with np.errstate(over="ignore"):
        result = deterministic_greedy(f)
    assert result.solution == (1, 1, 2) and math.isnan(result.value)


def test_with_label():
    assert with_label((0, 1, 0), 2, 3) == (0, 1, 3)
