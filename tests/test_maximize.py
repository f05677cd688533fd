"""Algorithms: worked instances, determinism, traces, and agreement with the
independent enumeration references."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from ksubmax import (
    Dims,
    InputError,
    OracleRangeError,
    ValueOracle,
    brute_force_max,
    coverage_gamma,
    det_greedy_guarantee,
    deterministic_greedy,
    empirical_expectation,
    exact_expectation_random_orthant,
    exact_expectation_randomized_greedy,
    extend_to_orthant,
    is_orthant,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    make_max_k_cut,
    naive_random_sample,
    rand_greedy_guarantee,
    rand_greedy_guarantee_ksub,
    random_ksubmodular,
    random_orthant_guarantee,
    randomized_greedy,
    sum_combine,
)

import oracles
from factories import directed_path, single_edge


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

    def test_indicator_picks_target(self):
        result = deterministic_greedy(make_indicator(3, 2))
        assert result.solution == (2,)
        assert result.value == 1.0

    def test_value_matches_fresh_evaluation(self):
        table = random_ksubmodular(Dims(3, 3), atoms=6, seed=5)
        result = deterministic_greedy(table)
        assert is_orthant(result.solution)
        assert result.value == pytest.approx(table(result.solution), abs=1e-9)

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
        assert result.value == pytest.approx(f(result.solution), abs=1e-9)

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


class TestNonFiniteValues:
    """The exact enumerations refuse a non-finite oracle value and name the
    assignment, instead of skipping it or returning nan."""

    def oracle(self, bad):
        # one point per assigned element: every branch of the greedy tree is live
        return ValueOracle(Dims(2, 2), lambda x: bad if x == (2, 1) else
                           float(sum(v != 0 for v in x)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("run", [
        brute_force_max,
        lambda f: brute_force_max(f, over_orthants_only=True),
        exact_expectation_random_orthant,
        exact_expectation_randomized_greedy,
    ])
    def test_refused_naming_the_assignment(self, run, bad):
        with pytest.raises(OracleRangeError, match=r"non-finite value at \(2, 1\)"):
            run(self.oracle(bad))


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
