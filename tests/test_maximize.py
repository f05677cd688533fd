"""Algorithms: worked instances, determinism, traces, and agreement with the
independent enumeration references."""

import ast
import hashlib
import itertools
import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ksubmax.maximize
from ksubmax import (
    Dims,
    GraphInstance,
    InputError,
    OracleRangeError,
    TabularFunction,
    ValueOracle,
    brute_force_max,
    coverage_gamma,
    det_greedy_guarantee,
    deterministic_greedy,
    embed_submodular,
    empirical_expectation,
    exact_expectation_random_orthant,
    exact_expectation_randomized_greedy,
    extend_to_orthant,
    induced_set_function,
    is_orthant,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    make_max_k_cut,
    marginal,
    naive_random_sample,
    rand_greedy_guarantee,
    rand_greedy_guarantee_ksub,
    random_ksubmodular,
    random_orthant_guarantee,
    random_table,
    randomized_greedy,
    sum_combine,
    tabulate,
)

import oracles
from factories import EVAL_CASES, directed_path, hexed, single_edge


class TestBruteForce:
    def test_max_2_cut_single_edge(self):
        f = make_max_k_cut(single_edge(), 2)
        over_orthants = brute_force_max(f, over_orthants_only=True)
        assert over_orthants.value == 1.0
        assert over_orthants.solution == (2, 1)  # smallest index attaining 1
        assert over_orthants.evals == 4
        everywhere = brute_force_max(f)
        assert everywhere.value == 1.0
        assert everywhere.solution == (1, 0)  # half-open edge already counts

    @pytest.mark.parametrize("k,r", [(2, 1), (3, 2), (4, 4)])
    def test_det_greedy_tight_optimum(self, k, r):
        result = brute_force_max(make_det_greedy_tight(k, r))
        assert result.value == 1.0
        assert result.solution == (2, 2)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_coverage_optimum(self, k):
        result = brute_force_max(make_coverage_tight(k))
        assert result.value == pytest.approx(1 + coverage_gamma(k), abs=1e-12)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), k=st.integers(2, 3))
    def test_matches_reference_and_orthant_mode_agrees(self, seed, n, k):
        table = random_ksubmodular(Dims(n, k), atoms=5, seed=seed)
        full = brute_force_max(table)
        assert full.value == oracles.brute_max_value(table, n, k)
        # pairwise monotone functions peak on an orthant
        restricted = brute_force_max(table, over_orthants_only=True)
        assert restricted.value == pytest.approx(full.value, abs=1e-12)
        assert is_orthant(restricted.solution)

    def test_cap(self):
        with pytest.raises(InputError):
            brute_force_max(make_coverage_tight(5), max_states=10)


class TestNaiveRandom:
    def test_seed_determinism(self):
        f = make_coverage_tight(4)
        a = naive_random_sample(f, seed=123)
        b = naive_random_sample(f, seed=123)
        assert a.solution == b.solution and a.value == b.value
        assert is_orthant(a.solution)

    def test_constant_function(self):
        f = ValueOracle(Dims(2, 3), lambda x: 2.25)
        for seed in range(5):
            assert naive_random_sample(f, seed).value == 2.25

    def test_indicator_hit_rate(self):
        f = make_indicator(3, 1)
        hits = sum(naive_random_sample(f, seed).value for seed in range(3000))
        assert hits / 3000 == pytest.approx(1 / 3, abs=0.04)


class TestExactExpectationRandomOrthant:
    def test_layer_layout_k2_quarter(self):
        f = make_layer_layout(single_edge(directed=True), 2)
        assert exact_expectation_random_orthant(f) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_indicator_one_over_k(self, k):
        f = make_indicator(k, 1)
        assert exact_expectation_random_orthant(f) == pytest.approx(1 / k, abs=1e-12)

    def test_max_2_cut_half(self):
        f = make_max_k_cut(single_edge(), 2)
        assert exact_expectation_random_orthant(f) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), k=st.integers(2, 3))
    def test_matches_reference(self, seed, n, k):
        table = random_ksubmodular(Dims(n, k), atoms=4, seed=seed)
        assert exact_expectation_random_orthant(table) == pytest.approx(
            oracles.expect_random_orthant(table, n, k), abs=1e-12
        )

    def test_cap(self):
        with pytest.raises(InputError):
            exact_expectation_random_orthant(make_coverage_tight(9), max_states=8)

    def test_overflowing_sum_refused(self):
        # each value is finite, but the two orthant values overflow fsum
        f = TabularFunction(Dims(1, 2), [0.0, 1.5e308, 1.7e308])
        with pytest.raises(OracleRangeError, match="overflows a float"):
            exact_expectation_random_orthant(f)

    @pytest.mark.parametrize("n", [63, 64, 10**6])
    def test_one_label_reads_its_one_orthant(self, n):
        # at k = 1 the one orthant is all 1s; its index 2^n - 1 overflows
        # int64 from n = 64 on, and was refused as out of range after O(n) work
        f, g = (ValueOracle(Dims(n, 1), lambda x: float(sum(x))) for _ in range(2))
        assert exact_expectation_random_orthant(f) == n
        best = brute_force_max(g, over_orthants_only=True)
        assert (best.solution, best.value, best.evals) == ((1,) * n, n, 1)
        assert f.calls == g.calls == 1

    def test_one_label_table_reads_its_last_entry(self):
        f = TabularFunction(Dims(3, 1), [float(v) for v in range(8)])
        assert exact_expectation_random_orthant(f) == 7.0
        best = brute_force_max(f, over_orthants_only=True)
        assert (best.solution, best.value, f.calls) == ((1, 1, 1), 7.0, 2)


class TestDeterministicGreedy:
    @pytest.mark.parametrize("k,r", [(2, 1), (2, 2), (4, 2), (5, 5)])
    def test_tight_instance_run(self, k, r):
        f = make_det_greedy_tight(k, r)
        result = deterministic_greedy(f)
        assert result.solution == (1, 1)
        assert result.value == 1 / (r + 1)
        assert result.evals == 1 + 2 * k
        # first element: every label ties at 1/(r+1), so label 1 wins
        first = result.trace[0]
        assert first.chosen == 1 and first.beta is None
        assert all(abs(y - 1 / (r + 1)) < 1e-12 for y in first.marginals)
        # second element: all marginals vanish once the first is labeled 1
        second = result.trace[1]
        assert second.chosen == 1
        assert all(abs(y) < 1e-12 for y in second.marginals)

    def test_reversed_order_finds_optimum_on_tight_instance(self):
        f = make_det_greedy_tight(3, 2)
        result = deterministic_greedy(f, order=(1, 0))
        assert result.solution == (2, 2)
        assert result.value == 1.0

    def test_constant_function_all_ones(self):
        f = ValueOracle(Dims(3, 2), lambda x: 1.0)
        assert deterministic_greedy(f).solution == (1, 1, 1)

    def test_gains_are_float64_for_an_int_valued_fn(self):
        # exact ints would make label 2 the better by 1; as float64 both
        # gains are 2**60, a tie that goes to label 1
        f = ValueOracle(Dims(1, 2), lambda x: (0, 2**60, 2**60 + 1)[x[0]])
        result = deterministic_greedy(f)
        assert result.solution == (1,)
        assert type(result.value) is float and result.value == 2.0**60
        (step,) = result.trace
        assert [type(y) for y in step.marginals] == [float, float]
        assert step.marginals == (2.0**60, 2.0**60) and step.chosen == 1
        assert f.calls == 1 + 2

    def test_indicator_picks_target(self):
        result = deterministic_greedy(make_indicator(3, 2))
        assert result.solution == (2,)
        assert result.value == 1.0

    @pytest.mark.parametrize("n,k,atoms,seed", [(3, 3, 6, 5), (2, 2, 6, 4), (2, 6, 6, 4)])
    def test_value_matches_fresh_evaluation(self, n, k, atoms, seed):
        # on the last two, f(0) plus the gains was one ulp above f(solution)
        table = random_ksubmodular(Dims(n, k), atoms=atoms, seed=seed)
        result = deterministic_greedy(table)
        assert is_orthant(result.solution)
        assert result.value == table(result.solution)

    def test_float32_fn_gives_python_floats(self):
        # the value used to be the fn's float32, which json.dumps refuses
        f = ValueOracle(Dims(2, 2), lambda x: np.float32(0.1 * x[0] + 0.3 * x[1]))
        result = deterministic_greedy(f)
        assert type(result.value) is float
        assert result.value == float(np.float32(0.8))
        assert all(type(y) is float for step in result.trace for y in step.marginals)
        assert json.loads(json.dumps(result.to_json()))["value"] == result.value

    def test_bad_order_rejected(self):
        f = make_indicator(2, 1)
        with pytest.raises(InputError):
            deterministic_greedy(f, order=(0, 1))
        with pytest.raises(InputError):
            deterministic_greedy(make_coverage_tight(2), order=(0, 0))

    @settings(max_examples=15)
    @given(seed=st.integers(0, 10**6), k=st.integers(2, 4))
    def test_guarantee_on_random_tables_all_orders(self, seed, k):
        table = random_ksubmodular(Dims(3, k), atoms=5, seed=seed)
        opt = brute_force_max(table).value
        for order in itertools.permutations(range(3)):
            value = deterministic_greedy(table, order=order).value
            assert 3 * value >= opt - 1e-9


class TestRandomizedGreedy:
    def test_seed_determinism(self):
        f = make_coverage_tight(5)
        a = randomized_greedy(f, seed=7)
        b = randomized_greedy(f, seed=7)
        assert a.solution == b.solution and a.value == b.value

    def test_constant_function_beta_zero_path(self):
        f = ValueOracle(Dims(3, 3), lambda x: 4.0)
        result = randomized_greedy(f, seed=11)
        assert result.solution == (1, 1, 1)
        for step in result.trace:
            assert step.beta == 0.0
            assert step.chosen == 1

    def test_trace_invariants(self):
        f = make_coverage_tight(4)
        result = randomized_greedy(f, seed=3)
        assert result.evals == 1 + 2 * 4
        for step in result.trace:
            assert all(y >= 0.0 for y in step.marginals)
            assert step.beta == pytest.approx(sum(step.marginals), abs=1e-12)
            assert 1 <= step.chosen <= 4
        assert is_orthant(result.solution)
        assert result.value == f(result.solution)

    def test_first_choice_distribution_on_coverage(self):
        k = 5
        f = make_coverage_tight(k)
        gamma = coverage_gamma(k)
        runs = 4000
        first_label_one = sum(
            randomized_greedy(f, seed=s).trace[0].chosen == 1 for s in range(runs)
        )
        expected = 1 / (1 + (k - 1) * gamma)
        assert first_label_one / runs == pytest.approx(expected, abs=0.03)


class TestExactExpectationRandomizedGreedy:
    @pytest.mark.parametrize("k", [2, 3, 5, 12])
    def test_coverage_formula(self, k):
        gamma = coverage_gamma(k)
        expected = (2 + gamma) / (1 + (k - 1) * gamma)
        value = exact_expectation_randomized_greedy(make_coverage_tight(k))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_constant_function(self):
        f = ValueOracle(Dims(2, 2), lambda x: 3.0)
        assert exact_expectation_randomized_greedy(f) == pytest.approx(3.0, abs=1e-12)

    def test_degenerate_distribution_matches_deterministic(self):
        # one strictly positive marginal per step makes the run deterministic
        parts = [make_indicator(3, 2), make_indicator(3, 3)]
        lifted = [
            ValueOracle(Dims(2, 3), lambda x, f=f, e=e: f((x[e],)))
            for e, f in enumerate(parts)
        ]
        f = sum_combine(lifted)
        exact = exact_expectation_randomized_greedy(f)
        det = deterministic_greedy(f)
        assert det.solution == (2, 3)
        assert exact == pytest.approx(det.value, abs=1e-12)

    @settings(max_examples=15)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), k=st.integers(2, 3))
    def test_matches_reference(self, seed, n, k):
        table = random_ksubmodular(Dims(n, k), atoms=5, seed=seed)
        mine = exact_expectation_randomized_greedy(table)
        ref = oracles.expect_randomized_greedy(table, n, k)
        assert mine == pytest.approx(ref, abs=1e-10)

    def test_order_parameter(self):
        f = make_det_greedy_tight(3, 2)
        forward = exact_expectation_randomized_greedy(f, order=(0, 1))
        backward = exact_expectation_randomized_greedy(f, order=(1, 0))
        assert forward != backward  # expectation depends on the visit order

    def test_cap(self):
        with pytest.raises(InputError):
            exact_expectation_randomized_greedy(make_coverage_tight(9), max_states=8)

    @pytest.mark.parametrize("n", [63, 64, 100])
    def test_one_label_walks_its_one_path(self, n):
        # at k = 1 every element takes label 1; the tree's indices 2^e
        # overflow int64 from n = 64 on, which raised an OverflowError
        f = ValueOracle(Dims(n, 1), lambda x: float(sum(x)))
        assert exact_expectation_randomized_greedy(f) == float(n)
        assert f.calls == 1 + n
        cut = make_max_k_cut(GraphInstance(n, ((0, 1),)), 1)
        assert exact_expectation_randomized_greedy(cut) == cut((1,) * n)

    def test_overflowing_beta_takes_label_k_like_every_run(self):
        # gains 1.5e308 and 1.7e308 overflow beta to inf, and u = r * inf is
        # below no partial sum, so every run takes label 2; the tree used to
        # give both branches probability gain / inf = 0 and return 0.0
        f = TabularFunction(Dims(1, 2), [0.0, 1.5e308, 1.7e308])
        runs = {randomized_greedy(f, seed).value for seed in range(20)}
        assert runs == {1.7e308}
        assert exact_expectation_randomized_greedy(f) == 1.7e308

    @pytest.mark.parametrize("build,order,calls,value", [
        (lambda: make_coverage_tight(5), None, 31, "0x1.aaaaaaaaaaaabp-1"),
        (lambda: make_layer_layout(directed_path(4), 3), (3, 1, 0, 2), 52,
         "0x1.e38e38e38e38ep+0"),
        (lambda: random_ksubmodular(Dims(3, 3), atoms=6, seed=2), None, 31,
         "0x1.f6b1113bb9827p+0"),
    ])
    def test_pinned_calls_and_value(self, build, order, calls, value):
        # k calls per internal node of the decision tree, plus one at the root
        f = build()
        assert exact_expectation_randomized_greedy(f, order).hex() == value
        assert f.calls == calls


def single_greedy_rand(f):
    # some of seeds 0-5 label element 0 with 2, and so evaluate (2, 1)
    for seed in range(6):
        randomized_greedy(f, seed)


def single_random(f):
    # seeds 2 and 3 draw (2, 1)
    for seed in range(6):
        naive_random_sample(f, seed)


def empirical_greedy_rand(f):
    return empirical_expectation(f, "greedy_rand", 50, seed=0)


def empirical_random(f):
    return empirical_expectation(f, "random", 50, seed=0)


class TestNonFiniteValues:
    """Every evaluation path refuses a non-finite oracle value and names the
    assignment, instead of skipping it or returning nan or inf: the exact
    enumerations, the sampler, the deterministic greedy and its helpers,
    tabulation and a direct call."""

    def oracle(self, bad):
        # one point per assigned element: every branch of the greedy tree is live
        return ValueOracle(Dims(2, 2), lambda x: bad if x == (2, 1) else
                           float(sum(v != 0 for v in x)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400],
                             ids=["nan", "inf", "int-beyond-float"])
    @pytest.mark.parametrize("run", [
        brute_force_max,
        lambda f: brute_force_max(f, over_orthants_only=True),
        exact_expectation_random_orthant,
        exact_expectation_randomized_greedy,
        single_greedy_rand,
        single_random,
        empirical_greedy_rand,
        empirical_random,
        # ties go to label 1, so element 1 takes it and (2, 1) is a child
        pytest.param(lambda f: deterministic_greedy(f, order=(1, 0)),
                     id="deterministic_greedy"),
        pytest.param(lambda f: extend_to_orthant(f, (0, 1)), id="extend_to_orthant"),
        pytest.param(lambda f: marginal(f, 2, 0, (0, 1)), id="marginal"),
        tabulate,
        pytest.param(lambda f: f((2, 1)), id="call"),
        pytest.param(lambda f: tabulate(induced_set_function(f, (2, 1))),
                     id="induced_set_function"),
    ])
    def test_refused_naming_the_assignment(self, run, bad):
        with pytest.raises(OracleRangeError, match=r"non-finite value at \(2, 1\)"):
            run(self.oracle(bad))

    @pytest.mark.parametrize("run", [lambda f: f((0,)), brute_force_max],
                             ids=["call", "brute_force_max"])
    def test_int_beyond_float_range_refused_as_inf(self, run):
        # float() raises OverflowError on such an int; the gate reads it as inf
        f = ValueOracle(Dims(1, 1), lambda x: 10**400)
        with pytest.raises(OracleRangeError, match=r"non-finite value at \(0,\): inf$"):
            run(f)

    @pytest.mark.parametrize("evaluate", [
        lambda f: tabulate(f),
        lambda f: f((1,)),
        lambda f: randomized_greedy(f, seed=0),
    ], ids=["tabulate", "call", "sampler"])
    def test_overflowing_sum_refused_naming_the_sum(self, evaluate):
        # each term is finite, and the sum's own check, not the terms',
        # refuses their overflowing sum: each term is charged one call per
        # evaluation, as for a finite sum
        terms = [TabularFunction(Dims(1, 1), [1e308, 1e308]) for _ in range(2)]
        f = sum_combine(terms)
        refusal = r"^oracle sum has a non-finite value at \((0|1),\): inf$"
        with pytest.raises(OracleRangeError, match=refusal):
            evaluate(f)
        assert [term.calls for term in terms] == [f.calls, f.calls]

    #: Finite values that differ by more than the largest float: every gain
    #: at element 0 is inf, or every child at element 0 is -1e308 as well,
    #: so the gains at element 1 overflow.
    SWINGS = {0: lambda x: -1e308 if x == (0, 0, 0) else 1e308,
              1: lambda x: 0.0 if not any(x) else -1e308 if x[1] == 0 else 1e308}

    @pytest.mark.parametrize("at", sorted(SWINGS))
    @pytest.mark.parametrize("run", [
        deterministic_greedy,
        pytest.param(lambda f: extend_to_orthant(f, (0, 0, 0)), id="extend_to_orthant"),
        single_greedy_rand,
        empirical_greedy_rand,
        exact_expectation_randomized_greedy,
    ])
    def test_overflowing_gains_refused_naming_the_oracle(self, run, at):
        # these returned NaN, deterministic_greedy with numpy's overflow warning
        f = ValueOracle(Dims(3, 2), self.SWINGS[at], name="swing")
        refusal = rf"^oracle swing: a marginal gain at element {at} overflows a float$"
        with pytest.raises(OracleRangeError, match=refusal):
            run(f)

    @pytest.mark.parametrize("run", [
        lambda f: deterministic_greedy(f).value,
        lambda f: randomized_greedy(f, 0).value,
        lambda f: empirical_expectation(f, "greedy_rand", 1, 0)[0],
        exact_expectation_randomized_greedy,
    ], ids=["greedy-det", "greedy-rand", "empirical-greedy-rand", "exact-greedy-rand"])
    def test_overflowing_beta_still_takes_label_k(self, run):
        # finite gains whose sum, beta, overflows: label k, not a refusal
        assert run(TabularFunction(Dims(1, 2), [0.0, 1.5e308, 1.7e308])) == 1.7e308

    @pytest.mark.parametrize("run", [
        lambda f: deterministic_greedy(f).value,
        lambda f: randomized_greedy(f, 0).value,
        exact_expectation_randomized_greedy,
        lambda f: empirical_expectation(f, "greedy_rand", 1, 0)[0],
    ], ids=["greedy-det", "greedy-rand", "exact-greedy-rand", "empirical-greedy-rand"])
    def test_near_max_value_is_returned(self, run):
        # gain max - 3 * 2^970 picks label 1; a running value adding it
        # back to f(0) rounded to inf and was refused, but the value is
        # f(1), the largest float
        top = sys.float_info.max
        f = ValueOracle(Dims(1, 2), lambda x: (3 * 2.0**970, top, 0.0)[x[0]])
        assert run(f) == top

    def test_overflowing_expectation_refused(self):
        # both branches end at the largest float, and their rounded
        # probabilities times it sum past it: fsum's OverflowError escaped
        top = sys.float_info.max
        a, b = 0.8602897789205496, 0.23217612806301458
        f = TabularFunction(Dims(2, 2), [0.0, a, b, 0.0, top, top, 0.0, 0.0, 0.0])
        with pytest.raises(OracleRangeError, match="expected value overflows a float$"):
            exact_expectation_randomized_greedy(f)

    def test_overflowing_embedding_refused_naming_it(self):
        # g(S) + g(U \ T) overflows at (0,): both sets are the ground set
        g = TabularFunction(Dims(1, 1), [1e308, 1e308])
        refusal = r"^oracle embed\(table\) has a non-finite value at \(0,\): inf$"
        with pytest.raises(OracleRangeError, match=refusal):
            tabulate(embed_submodular(g))


GREEDY_SOURCES = ["random_table", "random_ksubmodular", *EVAL_CASES]


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(GREEDY_SOURCES),
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    eps=st.sampled_from([0.0, 1e-9]),
    data=st.data(),
)
def test_greedy_value_is_f_of_its_solution(source, seed, n, k, eps, data):
    # bit for bit: each step's value is its chosen child's oracle value
    if source == "random_table":
        f = random_table(Dims(n, k), seed=seed)
    elif source == "random_ksubmodular":
        f = random_ksubmodular(Dims(n, k), atoms=3 * n, seed=seed)
    else:
        f = EVAL_CASES[source]()[0]
    order = data.draw(st.permutations(range(f.dims.n)))
    for result in (deterministic_greedy(f, order, eps),
                   randomized_greedy(f, seed, order, eps)):
        assert type(result.value) is float
        assert result.value.hex() == float(f(result.solution)).hex()


#: The sampler's cases: every zoo family, tables, a plain ValueOracle
#: without a batched form, a constant oracle (every beta is 0), and a cut
#: on 40 elements, whose 4^40 assignment indices would overflow an int64.
SAMPLER_CASES = {
    **{name: (lambda build=build: build()[0]) for name, build in EVAL_CASES.items()},
    "constant": lambda: ValueOracle(Dims(3, 3), lambda x: 4.0),
    "long_path": lambda: make_max_k_cut(
        GraphInstance(40, tuple((e, e + 1) for e in range(39))), 3
    ),
}


def check_trials_against_the_reference(name, algo, trials, seed, order=None, eps=1e-9):
    """The library's trials and single run against the plain-loop reference."""
    f, runs, single = (SAMPLER_CASES[name]() for _ in range(3))
    n, k = f.dims.n, f.dims.k
    if algo == "greedy_rand":
        got = empirical_expectation(f, algo, trials, seed, order, eps)
        refs = [oracles.sample_randomized_greedy(runs, n, k, seed ^ t, order, eps)
                for t in range(trials)]
        one = randomized_greedy(single, seed, order, eps)
        steps = [(t.element, list(t.marginals), t.beta, t.chosen) for t in one.trace]
        assert hexed(steps) == hexed(refs[0][2])
    else:
        got = empirical_expectation(f, algo, trials, seed)
        refs = [oracles.sample_random_orthant(runs, n, k, seed ^ t)
                for t in range(trials)]
        one = naive_random_sample(single, seed)
    assert (one.solution, one.value.hex()) == (refs[0][0], refs[0][1].hex())
    values = [ref[1] for ref in refs]
    mean = math.fsum(values) / trials
    stderr = 0.0 if trials == 1 else math.sqrt(
        math.fsum((v - mean) ** 2 for v in values) / (trials - 1) / trials
    )
    assert [v.hex() for v in got] == [mean.hex(), stderr.hex()]
    assert f.calls == runs.calls == single.calls * trials == one.evals * trials


# the edges of SeedSequence's 32-bit entropy words and its four-word pool
BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**160 + 7]


@settings(max_examples=200)
@given(seed=st.one_of(st.integers(0, 2**200), st.sampled_from(BOUNDARY_SEEDS)),
       count=st.integers(1, 9))
def test_raw_words_are_numpys_pcg64_words(seed, count):
    # the vectorized SeedSequence and PCG64 seeding port against numpy's own
    # seeding, among seeds of other word counts; a numpy integer seed is
    # taken by value.  16 seeds take the port; fewer, and a seed alone, get
    # default_rng each, with the same words
    seeds = [seed, 2**128 + 5, 0, np.uint64(seed % 2**64), seed ^ 1,
             *BOUNDARY_SEEDS, *range(2**96 - 2, 2**96 + 2)]
    want = np.array([np.random.PCG64(int(s)).random_raw(count) for s in seeds])
    words = ksubmax.maximize._raw_words(seeds, count)
    assert len(seeds) == 16 and words.dtype == np.uint64 and words.shape == want.shape
    assert (words == want).all()
    assert (ksubmax.maximize._raw_words(seeds[:15], count) == want[:15]).all()
    assert (ksubmax.maximize._raw_words([seed], count) == want[:1]).all()


#: Label counts at the edges of numpy's bounded draws: k = 1 draws nothing,
#: 2^31 + 1 rejects about half of its 32-bit draws, 2^32 none, and from
#: 2^32 + 1 on a draw is a whole word.
PORT_KS = [1, 2, 3, 21, 1023, 1024, 2**31 + 1, 2**32, 2**32 + 1, 2**62 + 1]

#: Seed batches of 1 (each boundary seed alone), 15 (below the vectorized
#: seeding), 16 and 1000.
_MANY_SEEDS = [b ^ t for t in range(143) for b in BOUNDARY_SEEDS][:1000]
SEED_BATCHES = {1: [[s] for s in BOUNDARY_SEEDS], 15: [_MANY_SEEDS[:15]],
                16: [_MANY_SEEDS[:16]], 1000: [_MANY_SEEDS]}


class TestPortedDraws:
    """The sampler's uniforms and labels are numpy's ``random`` and
    ``integers``, computed from raw words, bit for bit."""

    @pytest.mark.parametrize("batch", sorted(SEED_BATCHES))
    def test_uniforms_are_numpys_random(self, batch):
        for seeds, n in itertools.product(SEED_BATCHES[batch], [1, 2, 7]):
            want = np.array([np.random.default_rng(s).random(n) for s in seeds])
            got = ksubmax.maximize._uniforms(seeds, n)
            assert got.dtype == np.float64
            assert (got.view(np.uint64) == want.view(np.uint64)).all()
            words = [np.random.default_rng(s).bit_generator.random_raw(n) for s in seeds]
            assert [[oracles.next_double(w) for w in row.tolist()] for row in words] \
                == want.tolist()

    @pytest.mark.parametrize("batch", sorted(SEED_BATCHES))
    @pytest.mark.parametrize("k", PORT_KS, ids=str)
    def test_labels_are_numpys_integers(self, k, batch):
        for seeds, n in itertools.product(SEED_BATCHES[batch], [1, 2, 7]):
            want = np.array([np.random.default_rng(s).integers(1, k + 1, size=n)
                             for s in seeds])
            got = ksubmax.maximize._labels(seeds, k, n)
            assert got.dtype == np.int64 and (got == want).all()
        for s, n in itertools.product(SEED_BATCHES[1][0], [1, 2, 7]):
            words = np.random.default_rng(s).bit_generator.random_raw(8 * n).tolist()
            want = np.random.default_rng(s).integers(1, k + 1, size=n).tolist()
            assert oracles.bounded_labels(words, k, n) == want

    @pytest.mark.parametrize("k,words,draws", [
        # (2^32 - 3) mod 3 = 1: x = 0 is rejected, and the high half 5 is not
        (3, [5 << 32], [(1, False), (1, True)]),
        (3, [2**64 - 1], [(3, True), (3, True)]),
        # (2^32 - k) mod k = 2^31 - 1: x = 2 leaves 2, x = 1 leaves 2^31 + 1
        (2**31 + 1, [2 | 1 << 32], [(2, False), (1, True)]),
        (2**32, [7 | (2**32 - 1) << 32], [(8, True), (2**32, True)]),
        # (2^64 - k) mod k = 1 at k = 2^32 + 1: x = 0 is rejected
        (2**32 + 1, [0, 1, 2**64 - 1], [(1, False), (1, True), (2**32 + 1, True)]),
    ], ids=["k3-low-zero", "k3-top", "k2^31+1", "k2^32", "k2^32+1"])
    def test_crafted_words_force_rejections(self, k, words, draws):
        assert oracles.bounded_draws(words, k) == draws
        labels, accepted = ksubmax.maximize._lemire(np.array([words], dtype=np.uint64), k)
        assert list(zip(labels[0].tolist(), accepted[0].tolist())) == draws

    @pytest.mark.parametrize("k", PORT_KS[1:], ids=str)
    def test_draws_match_the_transcription_on_random_words(self, k):
        words = np.random.default_rng(k).integers(0, 2**64, size=(50, 4), dtype=np.uint64)
        words[:, 0] = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] * 10
        labels, accepted = ksubmax.maximize._lemire(words, k)
        for row, got_labels, got_accepted in zip(words.tolist(), labels, accepted):
            draws = oracles.bounded_draws(row, k)
            assert list(zip(got_labels.tolist(), got_accepted.tolist())) == draws

    def test_mul64_is_the_128_bit_product(self):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        rng = np.random.default_rng(64)
        a = np.array(edges * 6 + rng.integers(0, 2**64, 200, dtype=np.uint64).tolist(),
                     dtype=np.uint64)
        b = np.array([e for e in edges for _ in edges]
                     + rng.integers(0, 2**64, 200, dtype=np.uint64).tolist(), dtype=np.uint64)
        high, low = ksubmax.maximize._mul64(a, b)
        products = [x * y for x, y in zip(a.tolist(), b.tolist())]
        assert high.tolist() == [p >> 64 for p in products]
        assert low.tolist() == [p % 2**64 for p in products]


def test_running_sums_add_left_to_right():
    # the sampler's and the tree's running sums and beta against plain left
    # to right float additions, on finite gains up to 1.6e308 in magnitude,
    # whose sums overflow in some rows
    rng = np.random.default_rng(23)
    overflowed = 0
    for _ in range(200):
        m, k = (int(v) for v in rng.integers(1, 12, size=2))
        powers = np.where(rng.random((m, k)) < 0.3, 308.2, rng.uniform(-300, 300, (m, k)))
        raw = rng.uniform(-1, 1, (m, k)) * 10.0**powers
        with np.errstate(over="ignore"):
            clamped, sums, branching = ksubmax.maximize._clamped_sums(raw, 1e-9)
        for row, clamped_row, sums_row in zip(raw.tolist(), clamped, sums.tolist()):
            acc, want = 0.0, []
            for g in row:
                acc += g if g > 0.0 else 0.0
                want.append(acc)
            assert hexed(sums_row) == hexed(want)
            assert hexed(clamped_row.tolist()) == hexed([max(g, 0.0) for g in row])
        assert branching.tolist() == [s > 1e-9 for s in sums[:, -1].tolist()]
        overflowed += int(np.isinf(sums[:, -1]).sum())
    assert overflowed


class TestEmpiricalExpectation:
    def test_agrees_with_exact_on_coverage(self):
        f = make_coverage_tight(5)
        exact = exact_expectation_randomized_greedy(f)
        mean, stderr = empirical_expectation(f, "greedy_rand", trials=20000, seed=1)
        assert stderr > 0
        assert abs(mean - exact) <= 3 * stderr

    def test_random_algo_agrees_with_exact(self):
        f = make_indicator(4, 2)
        exact = exact_expectation_random_orthant(f)
        mean, stderr = empirical_expectation(f, "random", trials=20000, seed=2)
        assert abs(mean - exact) <= 3 * stderr

    def test_single_trial_sentinel(self):
        f = make_coverage_tight(3)
        mean, stderr = empirical_expectation(f, "greedy_rand", trials=1, seed=0)
        assert stderr == 0.0
        assert mean == randomized_greedy(f, seed=0).value

    def test_seed_determinism(self):
        f = make_coverage_tight(3)
        assert empirical_expectation(
            f, "greedy_rand", 50, seed=9
        ) == empirical_expectation(f, "greedy_rand", 50, seed=9)

    def test_errors(self):
        f = make_coverage_tight(3)
        with pytest.raises(InputError):
            empirical_expectation(f, "greedy_rand", trials=0, seed=0)
        with pytest.raises(InputError):
            empirical_expectation(f, "annealing", trials=5, seed=0)

    @pytest.mark.parametrize("bad", [0, -4, 2.5, True, "3", None])
    def test_trials_must_be_a_positive_int(self, bad):
        with pytest.raises(InputError, match=r"^trials: "):
            empirical_expectation(make_coverage_tight(3), "greedy_rand", bad, seed=0)

    @settings(max_examples=60)
    @given(
        name=st.sampled_from(sorted(SAMPLER_CASES)),
        algo=st.sampled_from(["greedy_rand", "random"]),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**200),
        eps=st.sampled_from([0.0, 1e-9, 0.5]),
        data=st.data(),
    )
    def test_trial_t_is_the_run_with_seed_xor_t(self, name, algo, trials, seed, eps,
                                                 data):
        order = None
        if algo == "greedy_rand":
            order = data.draw(st.permutations(range(SAMPLER_CASES[name]().dims.n)))
        check_trials_against_the_reference(name, algo, trials, seed, order, eps)

    @pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
    @pytest.mark.parametrize("algo", ["greedy_rand", "random"])
    def test_boundary_seeds_match_the_reference_runs(self, algo, seed):
        # trial t runs with seed ^ t, so the low word moves; 20 trials are
        # enough seeds for the vectorized pass
        check_trials_against_the_reference("long_path", algo, 20, seed)

    def test_threads_get_the_single_thread_values(self):
        # each thread, with its own oracle, samples with its own generators:
        # no generator state is shared between calls
        cases = [(algo, seed) for algo in ["greedy_rand", "random"] for seed in (7, 2**130)]

        def run(f):
            return [empirical_expectation(f, algo, 300, seed) for algo, seed in cases]

        expected = run(make_layer_layout(directed_path(4), 3))
        got = [[], []]
        threads = [threading.Thread(target=lambda out=out: out.extend(
                       run(make_layer_layout(directed_path(4), 3)) for _ in range(3)))
                   for out in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[expected] * 3] * 2

    @pytest.mark.parametrize("overflow", [False, True],
                             ids=["draw-on-a-partial-sum", "overflowing-beta"])
    def test_inverse_cdf_edges_match_the_single_run(self, overflow):
        # the first seed whose first draw r is above 1/2
        seed = next(s for s in range(100) if np.random.default_rng(s).random() > 0.5)
        r = np.random.default_rng(seed).random()
        # gains 2r and 2 - 2r sum to exactly 2, so u = 2r equals the first
        # partial sum and the strict u < acc passes on to label 2; gains
        # 1.5e308 and 1.7e308 make beta and u infinite, so no label is hit
        # and label k is taken
        gains = [1.5e308, 1.7e308] if overflow else [2 * r, 2 - 2 * r]
        f, g = (TabularFunction(Dims(1, 2), [0.0, *gains]) for _ in range(2))
        solution, value, _ = oracles.sample_randomized_greedy(g, 1, 2, seed)
        assert solution == randomized_greedy(g, seed).solution == (2,)
        assert empirical_expectation(f, "greedy_rand", 1, seed) == (value, 0.0)

    @pytest.mark.parametrize("algo", ["greedy_rand", "random"])
    def test_overflowing_mean_refused(self, algo):
        # each value is finite, but ten of them overflow fsum
        f = TabularFunction(Dims(1, 2), [0.0, 1.5e308, 1.7e308])
        with pytest.raises(OracleRangeError, match="overflows a float"):
            empirical_expectation(f, algo, 10, seed=0)

    @pytest.mark.parametrize("algo", ["greedy_rand", "random"])
    def test_chunks_match_one_pass(self, algo, monkeypatch):
        f, g = (make_layer_layout(directed_path(4), 3) for _ in range(2))
        whole = empirical_expectation(f, algo, 50, seed=5)
        name = "_greedy_runs" if algo == "greedy_rand" else "_random_runs"
        real, chunks = getattr(ksubmax.maximize, name), []

        def spy(oracle, seeds, *rest):
            chunks.append(len(seeds))
            return real(oracle, seeds, *rest)

        monkeypatch.setattr(ksubmax.maximize, name, spy)
        monkeypatch.setattr(ksubmax.maximize, "EVAL_BLOCK", 7)
        chunked = empirical_expectation(g, algo, 50, seed=5)
        assert chunks == [2] * 25  # EVAL_BLOCK // k trials: a step evaluates 6 rows
        assert [v.hex() for v in chunked] == [v.hex() for v in whole]
        assert g.calls == f.calls


@pytest.mark.parametrize("build,run,value,calls,digest", [
    (lambda: make_coverage_tight(5), lambda f: randomized_greedy(f, 3),
     "0x1.8000000000000p+0", 11,
     "cfd569be1bfd411eeeb7ac952e5bb25dd716f33223b93f8698d381f6a52c48ef"),
    (lambda: make_layer_layout(directed_path(4), 3),
     lambda f: randomized_greedy(f, 3, (3, 1, 0, 2), 0.5),
     "0x1.0000000000000p+0", 13,
     "5eee7585a8d23b2356c73b3df0df811fca1f9226e123d27255f0f9b800861288"),
    (SAMPLER_CASES["long_path"], lambda f: randomized_greedy(f, 2**40 + 3),
     "0x1.3800000000000p+5", 121,
     "418b698c405985d323de2903c36b68677931f73b9f64352b281b334bc688f350"),
    (lambda: make_coverage_tight(5), lambda f: naive_random_sample(f, 3),
     "0x1.0000000000000p-1", 1,
     "14ef8b8cc7450da4d553d12db7714d55186c3b32d71edc6d9e01850d9f2abb58"),
    (lambda: make_layer_layout(directed_path(4), 3),
     lambda f: naive_random_sample(f, 3),
     "0x0.0p+0", 1,
     "e9b5c25978312186658600720e62fb2d2308346d3d26b3b8bf3af0574ef407e2"),
    (SAMPLER_CASES["long_path"], lambda f: naive_random_sample(f, 2**40 + 3),
     "0x1.b000000000000p+4", 1,
     "0ed994a71890ad0116ae95c28a6d3cf9962ad26998a74e0c832f825d3e4e7870"),
], ids=["greedy-rand-coverage", "greedy-rand-layout-order", "greedy-rand-long-path",
        "random-coverage", "random-layout", "random-long-path"])
def test_single_runs_keep_their_recorded_outputs(build, run, value, calls, digest):
    # recorded from the scalar single runs that the sampler's one-seed case
    # replaced; the digest is the sha256 of the result's JSON with every
    # float written by float.hex, so solution, value and trace all count
    f = build()
    result = run(f)
    doc = json.dumps(hexed(result.to_json()), sort_keys=True)
    assert (result.value.hex(), f.calls) == (value, calls)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_reference_module_imports_no_library_code():
    # agreement with tests/oracles.py is evidence only while it shares no code
    tree = ast.parse(open(oracles.__file__).read())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "numpy" in modules
    assert not [m for m in modules if m == "ksubmax" or m.startswith(("ksubmax.", "."))]


@pytest.mark.parametrize("bad", [-1, 1.5, True, "3", None])
@pytest.mark.parametrize("run", [
    lambda f, seed: randomized_greedy(f, seed),
    lambda f, seed: naive_random_sample(f, seed),
    lambda f, seed: empirical_expectation(f, "greedy_rand", 3, seed),
    lambda f, seed: empirical_expectation(f, "random", 3, seed),
], ids=["greedy-rand", "random", "empirical-greedy-rand", "empirical-random"])
def test_seed_must_be_a_nonnegative_int(run, bad):
    # -1 was numpy's "expected non-negative integer", 1.5 a TypeError
    with pytest.raises(InputError, match=r"^seed: "):
        run(make_coverage_tight(3), bad)


@pytest.mark.parametrize("order,at", [((1.9, 0.2), 0), ((True, False), 0),
                                      ((1, 0.5), 1), ((1, "0"), 1)],
                         ids=["truncated", "bools", "half", "text"])
@pytest.mark.parametrize("run", [
    lambda f, order: deterministic_greedy(f, order),
    lambda f, order: randomized_greedy(f, 0, order),
    lambda f, order: empirical_expectation(f, "greedy_rand", 3, 0, order),
    lambda f, order: exact_expectation_randomized_greedy(f, order),
], ids=["greedy-det", "greedy-rand", "empirical-greedy-rand", "exact-greedy-rand"])
def test_order_entries_must_be_integers(run, order, at):
    # (1.9, 0.2) ran the order (1, 0), and (True, False) was taken as (1, 0)
    with pytest.raises(InputError, match=rf"^order\[{at}\]: must be an integer >= 0"):
        run(make_coverage_tight(3), order)


@pytest.mark.parametrize("run", [
    lambda f, order: deterministic_greedy(f, order).to_json(),
    lambda f, order: randomized_greedy(f, 0, order).to_json(),
    lambda f, order: empirical_expectation(f, "greedy_rand", 3, 0, order),
    lambda f, order: exact_expectation_randomized_greedy(f, order),
], ids=["greedy-det", "greedy-rand", "empirical-greedy-rand", "exact-greedy-rand"])
def test_order_takes_numpy_integers(run):
    f = make_coverage_tight(3)
    assert run(f, np.array([1, 0])) == run(f, (1, 0))


class TestZeroDraw:
    """The running-sum pick at u = 0: every raw word is 0, so the draw r is
    0 and u = r * beta is 0, or NaN when beta is infinite."""

    @pytest.fixture(autouse=True)
    def zero_draws(self, monkeypatch):
        monkeypatch.setattr(ksubmax.maximize, "_raw_words", lambda seeds, count:
                            np.zeros((len(seeds), count), dtype=np.uint64))

    @staticmethod
    def tree_labels(f):
        """The labels of element 0 that the exact tree keeps as nodes, read
        from the children it evaluates at element 1 (order (0, 1))."""
        asked, real = [], f.eval_indices

        def spy(idx):
            asked.append(np.asarray(idx))
            return real(idx)

        f.eval_indices = spy
        expectation = exact_expectation_randomized_greedy(f)
        base = f.dims.k + 1
        first_children = asked[2].reshape(-1, f.dims.k)[:, 0]  # label 1 at element 1
        return expectation, set(((first_children - base) % base).tolist())

    @pytest.mark.parametrize("gains,label,beta", [
        ((0.0, 0.5, 0.5), 2, 1.0),  # u = 0 is below the first positive running sum
        ((1.5e308, 1.7e308), 2, math.inf),  # u = 0 * inf = NaN is below none: label k
        ((0.0, 1.5e308, 1.7e308), 3, math.inf),
    ], ids=["first-positive-gain", "overflow-k2", "overflow-k3"])
    def test_pick_and_tree(self, gains, label, beta):
        # element 0 takes the gains; element 1's are all 0, so it takes label 1
        k = len(gains)
        g = [0.0, *gains]
        values = [g[i % (k + 1)] for i in range((k + 1) ** 2)]
        f = TabularFunction(Dims(2, k), values)
        run = randomized_greedy(f, seed=0)
        assert run.solution == (label, 1)
        assert (run.trace[0].beta, run.trace[0].chosen) == (beta, label)
        assert empirical_expectation(f, "greedy_rand", 1, 0) == (g[label], 0.0)
        expectation, kept = self.tree_labels(f)
        assert label in kept
        if beta == math.inf:
            assert (kept, expectation) == ({k}, g[k])
        else:
            assert kept == {2, 3}


class TestGuarantees:
    def test_values(self):
        assert random_orthant_guarantee(2) == 0.25
        assert random_orthant_guarantee(5) == 0.2
        assert det_greedy_guarantee(2) == pytest.approx(1 / 3)
        assert rand_greedy_guarantee(2) == 0.5
        assert rand_greedy_guarantee_ksub(2) == 0.5  # floor of 1 binds
        assert rand_greedy_guarantee_ksub(5) == 0.5  # sqrt(4/4) = 1
        assert rand_greedy_guarantee_ksub(17) == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(InputError):
            random_orthant_guarantee(1)
        with pytest.raises(InputError):
            det_greedy_guarantee(0)
        with pytest.raises(InputError):
            rand_greedy_guarantee(1)
        with pytest.raises(InputError):
            rand_greedy_guarantee_ksub(1)


def test_maximize_result_json():
    result = deterministic_greedy(make_det_greedy_tight(2, 1))
    doc = json.loads(json.dumps(result.to_json()))
    assert set(doc) == {"solution", "value", "evals", "trace"}
    assert doc["solution"] == [1, 1]
    assert doc["trace"][0]["beta"] is None
    assert doc["trace"][0]["chosen"] == 1
    plain = brute_force_max(make_det_greedy_tight(2, 1))
    assert json.loads(json.dumps(plain.to_json()))["trace"] is None


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize(
    "run",
    [lambda f, eps: deterministic_greedy(f, eps=eps),
     lambda f, eps: randomized_greedy(f, 0, eps=eps),
     lambda f, eps: exact_expectation_randomized_greedy(f, eps=eps),
     lambda f, eps: extend_to_orthant(f, (0, 0), eps)],
    ids=["greedy-det", "greedy-rand", "exact-greedy-rand", "extend-to-orthant"],
)
def test_unusable_eps_rejected(run, eps):
    # under eps=nan no gain is within eps of the best, so the deterministic
    # greedy fell through to label k and returned (5, 5) instead of (1, 1)
    with pytest.raises(InputError, match="eps"):
        run(make_coverage_tight(5), eps)



#: One oracle per family the audit reads, and a plain ValueOracle.
KEPT_CASES = ("max_k_cut", "layer_layout", "nested_sum", "embedding", "coverage_tight",
              "fallback")

#: The audit's passes after tabulation.
AUDIT_PASSES = (
    lambda f: brute_force_max(f).to_json(),
    exact_expectation_random_orthant,
    exact_expectation_randomized_greedy,
    lambda f: deterministic_greedy(f).to_json(),
)


#: KEPT_CASES and lone tables from each table constructor.
ONE_VECTOR_CASES = {
    **{name: EVAL_CASES[name] for name in KEPT_CASES},
    "tabular": lambda: (TabularFunction(Dims(2, 3), np.linspace(0.0, 2.0, 16)), []),
    "random_table": lambda: (random_table(Dims(3, 2), seed=5), []),
    "random_ksubmodular": EVAL_CASES["table"],
}


def audit_answers(f):
    """The audit's answers on f, every float written by float.hex."""
    return hexed([run(f) for run in AUDIT_PASSES])


class TestKeptEnumeration:
    """An oracle keeps the values of its first enumeration of every
    assignment, and every later call reads from them: the answers and the
    calls charged are those of evaluating again."""

    def test_each_state_is_evaluated_once(self):
        evaluated = []

        def fn(x):
            evaluated.append(x)
            return 0.1 * x[0] + x[1] * x[2] / 3 + (x[0] == x[2]) * 0.5

        f = ValueOracle(Dims(3, 2), fn)
        tabulate(f)
        brute_force_max(f)
        exact_expectation_random_orthant(f)
        exact_expectation_randomized_greedy(f)
        deterministic_greedy(f)
        # the 27 states once; the greedy's 1 + n*k scalar calls read the kept
        # vector too, and calls counts every index asked, as when each pass
        # evaluated anew
        assert len(evaluated) == 27
        assert sorted(evaluated[:27]) == sorted(itertools.product(range(3), repeat=3))
        assert f.calls == 76

    @pytest.mark.parametrize("name", KEPT_CASES)
    @pytest.mark.parametrize("tabulated", [True, False], ids=["tabulated", "not-tabulated"])
    def test_answers_and_calls_match_a_fresh_oracle_per_pass(self, name, tabulated):
        fresh = [EVAL_CASES[name]()[0] for _ in AUDIT_PASSES]
        want = hexed([run(g) for run, g in zip(AUDIT_PASSES, fresh)])
        f = EVAL_CASES[name]()[0]
        if tabulated:
            tabulate(f)
        calls = f.calls
        assert audit_answers(f) == want
        assert f.calls - calls == sum(g.calls for g in fresh)

    @pytest.mark.parametrize("name", ONE_VECTOR_CASES)
    def test_one_read_only_vector_answers_every_call(self, name):
        fresh = [ONE_VECTOR_CASES[name]()[0] for _ in AUDIT_PASSES]
        want = hexed([run(g) for run, g in zip(AUDIT_PASSES, fresh)])
        f, subs = ONE_VECTOR_CASES[name]()
        table = tabulate(f)
        assert table.values is f._kept
        for g in [table] + [g for g, _ in subs if isinstance(g, TabularFunction)]:
            assert not g.values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g.values[1] += 0.5
        calls, sub_calls = f.calls, [g.calls for g, _ in subs]
        assert audit_answers(f) == want
        assert f.calls - calls == sum(g.calls for g in fresh)
        # the deterministic greedy's scalar calls read the kept vector too,
        # so no sub-oracle is consulted
        assert [g.calls for g, _ in subs] == sub_calls

    def test_the_callers_array_is_copied(self):
        values = np.linspace(0.0, 1.0, 9)
        table = TabularFunction(Dims(2, 2), values)
        values[1] = 7.0  # the caller's array stays writable
        want = np.linspace(0.0, 1.0, 9)
        assert np.array_equal(table.values, want)
        assert np.array_equal(table.eval_all(), want)
        assert table((1, 0)) == table._eval_cols(np.array([[1, 0]]).T)[0] == want[1]

    @pytest.mark.parametrize("build", [
        lambda: ValueOracle(Dims(2, 2), lambda x: math.nan if x == (2, 1) else 1.0),
        lambda: sum_combine([TabularFunction(Dims(1, 1), [1.0, 1e308])] * 2),
        lambda: embed_submodular(TabularFunction(Dims(1, 1), [1e308, 1e308])),
    ], ids=["hand-built", "sum", "embedding"])
    @pytest.mark.parametrize("second", [tabulate, brute_force_max],
                             ids=["tabulate-again", "then-brute-force"])
    def test_a_refused_enumeration_keeps_nothing(self, build, second):
        f = build()
        with pytest.raises(OracleRangeError) as refused:
            tabulate(f)
        calls = f.calls
        with pytest.raises(OracleRangeError, match=f"^{re.escape(str(refused.value))}$"):
            second(f)
        assert f.calls > calls  # evaluated again, not read from a kept vector

    @pytest.mark.parametrize("name", ["nested_sum", "embedding"])
    def test_the_sampler_gathers_from_the_kept_vector(self, name):
        runs = (lambda g: randomized_greedy(g, 7).to_json(),
                lambda g: empirical_expectation(g, "greedy_rand", 200, 3),
                lambda g: empirical_expectation(g, "random", 200, 3))
        fresh = [EVAL_CASES[name]()[0] for _ in runs]
        want = hexed([run(g) for run, g in zip(runs, fresh)])
        f, subs = EVAL_CASES[name]()
        tabulate(f)
        calls, sub_calls = f.calls, [g.calls for g, _ in subs]
        assert hexed([run(f) for run in runs]) == want
        assert f.calls - calls == sum(g.calls for g in fresh)
        # the sampler's label rows gather too: no sub-oracle is consulted
        assert [g.calls for g, _ in subs] == sub_calls
