"""Property checkers: worked instances, counterexample soundness, and
agreement with the independent loop-based references."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ksubmax import (
    Dims,
    InputError,
    OracleRangeError,
    PreconditionError,
    TabularFunction,
    all_orthants,
    brute_force_max,
    check_characterization,
    check_k_submodular,
    check_orthant_pair_inequality,
    check_orthant_submodular,
    check_r_wise_monotone,
    empirical_expectation,
    exact_expectation_random_orthant,
    exact_expectation_randomized_greedy,
    induced_set_function,
    make_coverage_tight,
    make_det_greedy_tight,
    make_layer_layout,
    make_max_k_cut,
    random_ksubmodular,
    random_table,
    randomized_greedy,
    tabulate,
)

import ksubmax.checks as checks
from ksubmax.core import all_assignments
import oracles
from factories import hexed, single_edge


def layout_table(k):
    return tabulate(make_layer_layout(single_edge(directed=True), k))


def raised_last_table():
    """A k-submodular table whose last entry is raised far past any slack,
    so its first k-submodularity violation comes late in the pair order."""
    base = random_ksubmodular(Dims(3, 3), atoms=9, seed=4)
    values = base.values.copy()
    values[-1] += 2.0 * values.max() + 1.0
    return TabularFunction(base.dims, values, name="raised")


WITNESS_TABLES = {
    "layout": lambda: layout_table(3),
    "random": lambda: random_table(Dims(3, 3), seed=5),
    "raised-last": raised_last_table,
}


def slack_table():
    """f = 1 + sum_e w_e(x_e) + d |supp(x)|^2 / 2 with w >= 0 on n=3, k=2.
    Every local orthant inequality f(s+a) + f(s+b) >= f(s) + f(s+a+b) falls
    short by d = 0.7e-9, inside the default eps; the subset pair ({0}, {1, 2})
    of any orthant falls short by 2d, outside it."""
    dims = Dims(3, 2)
    w = [[0.0, 0.25, 0.5], [0.0, 0.5, 0.125], [0.0, 0.75, 0.25]]
    values = [
        1.0 + sum(w[e][x[e]] for e in range(3))
        + 0.7e-9 * sum(v != 0 for v in x) ** 2 / 2
        for x in all_assignments(dims)
    ]
    return TabularFunction(dims, values, name="slack")


def first_pair_in_index_order(states, violates):
    """The first (s, t) over states x states, in index order, for which
    ``violates`` holds, or None."""
    for s in states:
        for t in states:
            if violates(s, t):
                return s, t
    return None


def reported_pair(report):
    if report.holds:
        return None
    return tuple(report.counterexample["s"]), tuple(report.counterexample["t"])


def any_table(seed, n, k):
    """Half the seeds give structured tables, half unstructured ones."""
    dims = Dims(n, k)
    if seed % 2 == 0:
        return random_ksubmodular(dims, atoms=5, seed=seed)
    return random_table(dims, seed=seed)


class TestKSubmodular:
    def test_constant_holds(self):
        table = TabularFunction(Dims(2, 2), [3.0] * 9)
        report = check_k_submodular(table)
        assert report.holds
        assert report.counterexample is None
        assert report.evals_used == 4 * 81

    def test_layer_layout_k3_fails_with_concrete_pair(self):
        report = check_k_submodular(layout_table(3))
        assert not report.holds
        margin = oracles.violation_margin(layout_table(3), report.counterexample)
        assert margin > 1e-9

    def test_single_edge_cut_fails(self):
        # counting half-open edges breaks the defining inequality
        table = tabulate(make_max_k_cut(single_edge(), 3))
        assert not check_k_submodular(table).holds

    def test_random_ksubmodular_holds(self):
        table = random_ksubmodular(Dims(2, 3), atoms=5, seed=11)
        assert check_k_submodular(table).holds

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), k=st.integers(1, 3))
    def test_agrees_with_loop_reference(self, seed, n, k):
        table = any_table(seed, n, k)
        assert check_k_submodular(table).holds == oracles.is_k_submodular(
            table, n, k, 1e-9
        )

    @pytest.mark.parametrize(
        "make", WITNESS_TABLES.values(), ids=WITNESS_TABLES.keys()
    )
    def test_first_counterexample_is_smallest_pair(self, make):
        table = make()
        report = check_k_submodular(table)
        assert not report.holds
        # scan in index order and stop at the first violation
        def violates(s, t):
            lhs = table(s) + table(t)
            rhs = table(oracles.vec_min0(s, t)) + table(oracles.vec_max0(s, t))
            return lhs < rhs - 1e-9

        states = list(all_assignments(table.dims))
        assert reported_pair(report) == first_pair_in_index_order(states, violates)

    def test_negative_entry_rejected(self):
        # the constructor refuses a negative entry, so one is forced in past
        # it: the checkers' own guard is their boundary
        table = TabularFunction(Dims(1, 1), [0.0, 1.0])
        table.values.flags.writeable = True
        table.values[1] = -2.0
        with pytest.raises(OracleRangeError):
            check_k_submodular(table)

    def test_pair_cap(self):
        # the local rows do not certify a random table: its 9^2 pairs are
        # capped after its 10 local rows
        table = random_table(Dims(2, 2), seed=1)
        with pytest.raises(InputError, match="9\\^2 pairs"):
            check_k_submodular(table, max_pairs=10)

    def test_certified_table_needs_only_its_local_rows_under_the_cap(self):
        table = random_ksubmodular(Dims(2, 2), atoms=2, seed=1)
        assert check_k_submodular(table, max_pairs=10).holds
        with pytest.raises(InputError, match="10 local rows"):
            check_k_submodular(table, max_pairs=9)


class TestOrthantSubmodular:
    def test_layer_layout_holds(self):
        assert check_orthant_submodular(layout_table(3)).holds

    @pytest.mark.parametrize("k,r", [(2, 1), (3, 2), (4, 4)])
    def test_det_greedy_tight_holds(self, k, r):
        assert check_orthant_submodular(tabulate(make_det_greedy_tight(k, r))).holds

    def test_modular_holds(self):
        # additive tables are submodular with equality in every orthant
        import numpy as np

        rng = np.random.default_rng(3)
        dims = Dims(3, 2)
        per_element = rng.random((3, 3))
        per_element[:, 0] = 0.0
        values = [
            sum(per_element[e][x[e]] for e in range(3))
            for x in all_assignments(dims)
        ]
        assert check_orthant_submodular(TabularFunction(dims, values)).holds

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 4), k=st.integers(1, 3))
    def test_agrees_with_loop_reference(self, seed, n, k):
        table = any_table(seed, n, k)
        assert check_orthant_submodular(table).holds == oracles.is_orthant_submodular(
            table, n, k, 1e-9
        )

    @settings(max_examples=15)
    @given(seed=st.integers(0, 10**6))
    def test_agrees_with_induced_set_function_route(self, seed):
        # checking each orthant's induced set function for classical
        # submodularity is an equivalent formulation
        table = any_table(seed, 2, 3)
        via_induced = all(
            oracles.is_submodular_set_function(
                induced_set_function(table, x), table.dims.n, 1e-9
            )
            for x in all_orthants(table.dims)
        )
        assert check_orthant_submodular(table).holds == via_induced

    def test_counterexample_lives_in_one_orthant(self):
        bad = random_table(Dims(2, 2), seed=13)
        report = check_orthant_submodular(bad)
        if report.holds:
            pytest.skip("seed happened to be orthant-submodular")
        cx = report.counterexample
        s, t = tuple(cx["s"]), tuple(cx["t"])
        orthant = tuple(cx["orthant"])
        assert all(a in (0, o) for a, o in zip(s, orthant))
        assert all(b in (0, o) for b, o in zip(t, orthant))
        lhs = bad(s) + bad(t)
        rhs = bad(oracles.vec_min0(s, t)) + bad(oracles.vec_max0(s, t))
        assert lhs < rhs - 1e-9


    def test_slack_applies_to_each_orthant_inequality(self):
        # eps bounds the shortfall of each f(o|A) + f(o|B) >= f(o|A&B) +
        # f(o|A|B), not of each local step: two steps short by d each add
        # up to 2d > eps
        table = slack_table()
        report = check_orthant_submodular(table)
        assert not oracles.is_orthant_submodular(table, 3, 2, 1e-9)
        assert not report.holds
        assert oracles.violation_margin(table, report.counterexample) > 1e-9

    @pytest.mark.parametrize(
        "make", [*WITNESS_TABLES.values(), slack_table],
        ids=[*WITNESS_TABLES.keys(), "slack"],
    )
    def test_first_counterexample_in_orthant_then_subset_order(self, make):
        table = make()
        report = check_orthant_submodular(table)
        n = table.dims.n

        def first():
            for orthant in all_orthants(table.dims):
                for a in range(2**n):
                    for b in range(2**n):
                        s = tuple(v if a >> e & 1 else 0 for e, v in enumerate(orthant))
                        t = tuple(v if b >> e & 1 else 0 for e, v in enumerate(orthant))
                        lhs = table(s) + table(t)
                        rhs = table(oracles.vec_min0(s, t)) + table(
                            oracles.vec_max0(s, t)
                        )
                        if lhs < rhs - 1e-9:
                            return list(orthant), list(s), list(t)
            return None

        cx = report.counterexample
        found = None if report.holds else (cx["orthant"], cx["s"], cx["t"])
        assert found == first()

    def test_pair_cap(self):
        # the local rows do not certify a random table: its 8^2 orthant and
        # subset-pair combinations are capped after its 4 local rows
        table = random_table(Dims(2, 2), seed=1)
        with pytest.raises(InputError, match="8\\^2 pairs"):
            check_orthant_submodular(table, max_pairs=10)

    def test_certified_table_needs_only_its_local_rows_under_the_cap(self):
        table = random_ksubmodular(Dims(2, 2), atoms=2, seed=1)
        assert check_orthant_submodular(table, max_pairs=10).holds
        with pytest.raises(InputError, match="4 local rows"):
            check_orthant_submodular(table, max_pairs=3)


class TestInducedSetFunction:
    def test_max_2_cut_values(self):
        f = make_max_k_cut(single_edge(), 2)
        h = induced_set_function(f, (1, 2))
        assert h((0, 0)) == 0.0
        assert h((1, 0)) == 1.0  # f(1, 0) under the literal cut convention
        assert h((1, 1)) == 1.0

    def test_boundary_values(self):
        f = make_coverage_tight(3)
        h = induced_set_function(f, (2, 3))
        assert h((0, 0)) == f((0, 0))
        assert h((1, 1)) == f((2, 3))

    def test_requires_orthant(self):
        f = make_coverage_tight(3)
        with pytest.raises(PreconditionError):
            induced_set_function(f, (0, 2))


class TestRWiseMonotone:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_layer_layout_k_wise_holds(self, k):
        assert check_r_wise_monotone(layout_table(k), k).holds

    @pytest.mark.parametrize("k,r", [(2, 2), (3, 2), (4, 3), (5, 5)])
    def test_det_greedy_tight_threshold(self, k, r):
        table = tabulate(make_det_greedy_tight(k, r))
        assert check_r_wise_monotone(table, r).holds
        report = check_r_wise_monotone(table, r - 1) if r >= 2 else None
        if report is not None:
            assert not report.holds
            margin = oracles.monotone_violation_margin(table, report.counterexample)
            assert margin > 1e-9
            # the violating sum is exactly -1/(r+1)
            assert abs(report.counterexample["lhs"] + 1 / (r + 1)) < 1e-12

    @pytest.mark.parametrize(
        "k,rs", [(4, range(1, 5)), (26, [13])], ids=["k4-every-r", "k26-r13"]
    )
    def test_nonneg_marginals_hold_for_every_r(self, k, rs):
        # C(26, 13) = 10^7 label sets: the check must not enumerate them
        table = tabulate(make_coverage_tight(k))
        for r in rs:
            assert check_r_wise_monotone(table, r).holds

    def test_linear_scan_has_no_pair_cap(self):
        # 5^14 assignment pairs, far past the pair checkers' cap; the
        # marginal scan itself reads each of the 5^7 entries k+1 times.
        table = random_ksubmodular(Dims(7, 4), atoms=12, seed=1)
        assert check_r_wise_monotone(table, 2).holds

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_first_counterexample_is_first_label_set(self, seed, r):
        # element, then base assignment index, then label sets in
        # lexicographic order: the first failing set is the reported one
        import itertools

        table = random_table(Dims(2, 5), seed=seed)
        report = check_r_wise_monotone(table, r)

        def first():
            for e in range(2):
                for s in all_assignments(table.dims):
                    if s[e] != 0:
                        continue
                    gains = {i: table(s[:e] + (i,) + s[e + 1 :]) - table(s)
                             for i in range(1, 6)}
                    for labels in itertools.combinations(range(1, 6), r):
                        if sum(gains[i] for i in labels) < -1e-9:
                            return list(s), e, list(labels)
            return None

        cx = report.counterexample
        found = None if report.holds else (cx["s"], cx["element"], cx["labels"])
        assert found == first()

    def test_verdict_and_reported_sum_agree_at_a_tie(self):
        # eps is set so that the one 3-label sum, added in label order,
        # equals -eps exactly: not a violation, although adding the same
        # gains in ascending order lands just below -eps
        values = [2.572213, 0.100757, 2.188966, 0.526967]
        table = TabularFunction(Dims(1, 3), values)
        gains = table.values[1:] - table.values[0]
        eps = -float(gains.sum())
        report = check_r_wise_monotone(table, 3, eps)
        assert report.holds
        tighter = check_r_wise_monotone(table, 3, eps * (1 - 1e-12))
        assert not tighter.holds
        assert tighter.counterexample["lhs"] < -eps * (1 - 1e-12)

    def test_r_out_of_range(self):
        table = random_ksubmodular(Dims(2, 2), atoms=2, seed=0)
        with pytest.raises(InputError):
            check_r_wise_monotone(table, 3)
        with pytest.raises(InputError):
            check_r_wise_monotone(table, 0)

    @pytest.mark.parametrize("r", [True, 2.0, 1.5])
    def test_r_must_be_an_integer(self, r):
        # True reported "True_wise_monotone"; 2.0 raised numpy's TypeError
        table = random_ksubmodular(Dims(2, 2), atoms=2, seed=0)
        with pytest.raises(InputError, match=r"^r: must be an integer >= 1"):
            check_r_wise_monotone(table, r)

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 3),
        k=st.integers(1, 3),
        r=st.integers(1, 3),
    )
    def test_agrees_with_loop_reference(self, seed, n, k, r):
        if r > k:
            r = k
        table = any_table(seed, n, k)
        assert check_r_wise_monotone(table, r).holds == oracles.is_r_wise_monotone(
            table, n, k, r, 1e-9
        )


class TestCharacterization:
    def test_random_ksubmodular_agrees_with_both_true(self):
        table = random_ksubmodular(Dims(2, 3), atoms=5, seed=8)
        assert check_k_submodular(table).holds
        assert check_orthant_submodular(table).holds
        assert check_r_wise_monotone(table, 2).holds
        assert check_characterization(table).holds

    def test_layer_layout_k3_agrees_with_both_false(self):
        table = layout_table(3)
        assert not check_k_submodular(table).holds
        assert check_orthant_submodular(table).holds
        assert not check_r_wise_monotone(table, 2).holds
        assert check_characterization(table).holds

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10**6), k=st.integers(2, 4))
    def test_agreement_on_arbitrary_tables(self, seed, k):
        assert check_characterization(any_table(seed, 2, k)).holds

    def test_mutation_keeps_sides_in_step(self):
        table = random_ksubmodular(Dims(2, 3), atoms=5, seed=21)
        values = table.values.copy()
        values[7] += 0.5
        perturbed = TabularFunction(table.dims, values, name="perturbed")
        assert check_characterization(perturbed).holds

    def test_agreement_when_local_slack_accumulates(self):
        # both sides miss the same subset pair by 2d > eps
        table = slack_table()
        assert not check_k_submodular(table).holds
        assert check_r_wise_monotone(table, 2).holds
        assert check_characterization(table).holds

    def test_requires_k_at_least_2(self):
        with pytest.raises(InputError):
            check_characterization(random_ksubmodular(Dims(2, 1), atoms=2, seed=0))

    def test_agreement_stable_under_loose_eps(self):
        # with one tolerance shared by all sides, loosening it never breaks
        # the equivalence (everything collapses toward both-true)
        table = layout_table(3)
        assert check_characterization(table, eps=10.0).holds

    def test_disagreement_reported_with_witness(self, monkeypatch):
        # the disagreement branch only fires on an implementation bug, so
        # simulate one side misreporting
        import ksubmax.checks as checks_mod

        table = layout_table(3)
        real = check_k_submodular(table)
        assert not real.holds
        fake = checks_mod.CheckReport("k_submodular", True, None, real.evals_used)
        monkeypatch.setattr(checks_mod, "_k_submodular_scan", lambda *a, **kw: fake)
        report = checks_mod.check_characterization(table)
        assert not report.holds
        cx = report.counterexample
        assert cx["k_submodular_holds"] is True
        assert cx["pairwise_monotone_holds"] is False
        assert cx["witness"] is not None


class TestOrthantPairInequality:
    def test_holds_on_k_submodular(self):
        table = random_ksubmodular(Dims(2, 3), atoms=5, seed=2)
        assert check_orthant_pair_inequality(table).holds

    def test_equality_on_identical_orthants(self):
        table = random_ksubmodular(Dims(2, 2), atoms=4, seed=6)
        for x in all_orthants(table.dims):
            assert abs(2 * table(x) - 2 * table(oracles.vec_id0(x, x))) < 1e-12

    def test_layer_layout_k3_fails(self):
        report = check_orthant_pair_inequality(layout_table(3))
        assert not report.holds
        margin = oracles.violation_margin(layout_table(3), report.counterexample)
        assert margin > 1e-9

    @pytest.mark.parametrize(
        "make", WITNESS_TABLES.values(), ids=WITNESS_TABLES.keys()
    )
    def test_first_counterexample_is_smallest_pair(self, make):
        table = make()
        report = check_orthant_pair_inequality(table)

        def violates(s, t):
            return table(s) + table(t) < 2.0 * table(oracles.vec_id0(s, t)) - 1e-9

        states = list(all_orthants(table.dims))
        assert reported_pair(report) == first_pair_in_index_order(states, violates)


def scaled(make, factor):
    def build():
        table = make()
        return TabularFunction(table.dims, table.values * factor, name=table.name)
    return build


def holding_table(n, k):
    return random_ksubmodular(Dims(n, k), atoms=3 * n, seed=10 * n + k)


HOLDING_DIMS = [(1, 3), (2, 2), (2, 4), (3, 3), (4, 2), (3, 4), (4, 3), (5, 3)]

#: Tables on which a certified report must equal the exhaustive one: the
#: first three fall back to the scan and fail, the holding ones are
#: certified unless scaled so far up that rounding exceeds eps.
REPORT_TABLES = {
    **WITNESS_TABLES,
    "slack": slack_table,
    **{f"holds-{n}-{k}": (lambda n=n, k=k: holding_table(n, k)) for n, k in HOLDING_DIMS},
    **{
        f"holds-5-3-x{factor:g}": scaled(lambda: holding_table(5, 3), factor)
        for factor in (2.0**-40, 1e-300, 1e8, 2.0**600)
    },
}

PAIR_CHECKS = {
    "ksub": (check_k_submodular, checks._k_submodular_scan, True),
    "orthant": (check_orthant_submodular, checks._orthant_submodular_scan, False),
}


def exact_perturbed_table(seed, n, k, noise):
    """A random_ksubmodular table times 1000, rounded to ints and perturbed
    by ints in [-noise, noise], as a dict: its shortfalls are exact."""
    base = random_ksubmodular(Dims(n, k), atoms=3 * n, seed=seed)
    rng = np.random.default_rng(seed)
    return {
        x: round(1000 * base(x)) + int(rng.integers(-noise, noise + 1))
        for x in oracles.every_assignment(n, k)
    }


class TestLocalCertificate:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 4),
        k=st.integers(1, 4),
        noise=st.integers(0, 30),
    )
    def test_pair_shortfall_within_its_local_bound(self, seed, n, k, noise):
        # D(s, t) <= |s\M|·|t\M|·d+ over all rows, and, for pairs inside
        # one orthant, over the element-pair rows alone.  (4, 4), whose
        # 195,000 pairs take about 3 s in plain loops, is left out.
        assume((k + 1) ** n <= 256)
        f = exact_perturbed_table(seed, n, k, noise)
        singles, pairs = oracles.local_shortfalls(f.__getitem__, n, k)
        within = max(0, pairs or 0)
        every = max(within, singles or 0)
        states = list(oracles.every_assignment(n, k))
        for first, s in enumerate(states):
            for t in states[first:]:
                meet = oracles.vec_min0(s, t)
                shortfall = f[meet] + f[oracles.vec_max0(s, t)] - f[s] - f[t]
                only_s = sum(1 for x, y in zip(s, meet) if x != y)
                only_t = sum(1 for x, y in zip(t, meet) if x != y)
                assert shortfall <= only_s * only_t * every
                if all(x == y or 0 in (x, y) for x, y in zip(s, t)):
                    assert shortfall <= only_s * only_t * within

    @pytest.mark.parametrize("make", REPORT_TABLES.values(), ids=REPORT_TABLES.keys())
    @pytest.mark.parametrize("name", PAIR_CHECKS)
    def test_report_equals_the_exhaustive_one(self, make, name):
        check, scan, _ = PAIR_CHECKS[name]
        table = make()
        assert check(table).to_json() == scan(table, 1e-9, 10**8).to_json()

    @pytest.mark.parametrize("n,k", HOLDING_DIMS)
    @pytest.mark.parametrize("factor", [1.0, 2.0**-40, 1e-300])
    @pytest.mark.parametrize("name", PAIR_CHECKS)
    def test_holding_tables_are_certified(self, n, k, factor, name):
        singles = PAIR_CHECKS[name][2]
        table = scaled(lambda: holding_table(n, k), factor)()
        assert checks._certified(table, 1e-9, 10**8, name, singles)

    def test_slack_table_fails_both_checks_and_agrees(self):
        # each local orthant row falls short by 0.7e-9 < eps; C·δ does not
        # fit eps, and the subset pair ({0}, {1, 2}) falls short by 1.4e-9
        table = slack_table()
        for name, (check, _, singles) in PAIR_CHECKS.items():
            assert not checks._certified(table, 1e-9, 10**8, name, singles)
            assert not check(table).holds
        assert check_characterization(table).holds

    def test_scaled_reproducer_falls_back_to_the_scan(self):
        # k-submodular by construction, but rounding near 1e8 exceeds the
        # absolute eps: the scan's false counterexample stands
        base = random_ksubmodular(Dims(3, 3), atoms=8, seed=3)
        table = TabularFunction(base.dims, base.values * 1e8)
        for name, (check, scan, singles) in PAIR_CHECKS.items():
            assert not checks._certified(table, 1e-9, 10**8, name, singles)
            report = check(table)
            assert not report.holds
            assert report.to_json() == scan(table, 1e-9, 10**8).to_json()

    @pytest.mark.parametrize("eps,scanned", [(0.0, True), (1e-9, False)])
    def test_nothing_certified_at_eps_0(self, monkeypatch, eps, scanned):
        # an integer-valued modular table holds exactly, even at eps = 0
        calls = []
        for name, (check, scan, _) in PAIR_CHECKS.items():
            spy = lambda *args, scan=scan, name=name: calls.append(name) or scan(*args)
            monkeypatch.setattr(checks, scan.__name__, spy)
        dims = Dims(3, 2)
        table = TabularFunction(dims, [float(sum(x)) for x in all_assignments(dims)])
        assert check_k_submodular(table, eps).holds
        assert check_orthant_submodular(table, eps).holds
        assert calls == (list(PAIR_CHECKS) if scanned else [])


#: The three exhaustive scans, each called as scan(table).
SCANS = {
    "ksub": lambda table: checks._k_submodular_scan(table, 1e-9, 10**12),
    "orthant": lambda table: checks._orthant_submodular_scan(table, 1e-9, 10**12),
    "orthant-pairs": lambda table: check_orthant_pair_inequality(table, max_pairs=10**12),
}

ONE_WORKER = {"_THREADS": 1}
TWO_WORKERS = {"_THREADS": 2, "_THREAD_ENTRIES": 0}  # threaded whatever the size


def seeded_table(kind, n, k, seed):
    """A holding, random or raised-last-orthant table on (n, k)."""
    dims = Dims(n, k)
    if kind == "random":
        return random_table(dims, seed=seed)
    table = random_ksubmodular(dims, atoms=3 * n, seed=seed)
    if kind == "holds":
        return table
    values = table.values.copy()
    values[-1] += 2.0 * values.max() + 1.0
    return TabularFunction(dims, values, name="raised")


def scan_json(name, table, **constants):
    """The report of scan ``name`` as JSON text, under patched constants of
    the checks module."""
    with patch.multiple(checks, **constants):
        return json.dumps(SCANS[name](table).to_json())


class TestScanWorkers:
    @pytest.mark.parametrize("name", SCANS)
    @pytest.mark.parametrize("kind", ["holds", "random", "raised-last"])
    @pytest.mark.parametrize("n,k", [(4, 4), (5, 3), (5, 4), (6, 3)])
    def test_reports_do_not_depend_on_the_thread_count(self, n, k, kind, name):
        table = seeded_table(kind, n, k, seed=10 * n + k)
        one = scan_json(name, table, **ONE_WORKER)
        assert scan_json(name, table, **TWO_WORKERS) == one
        assert scan_json(name, table, _THREADS=2) == one

    @pytest.mark.parametrize("block", [40, 300])
    @pytest.mark.parametrize("name", SCANS)
    @pytest.mark.parametrize("kind", ["holds", "random", "raised-last"])
    @pytest.mark.parametrize("n,k", [(3, 4), (4, 3)])
    def test_reports_do_not_depend_on_the_block(self, n, k, kind, name, block):
        # a block of (4, 3) at 40 entries holds 2 of its 16 low parts of s;
        # one of (3, 4) holds 1 high part of t at 40 entries and 12 at 300
        table = seeded_table(kind, n, k, seed=n + k)
        one = scan_json(name, table, **ONE_WORKER)
        for workers in (ONE_WORKER, TWO_WORKERS):
            assert scan_json(name, table, _BLOCK=block, **workers) == one

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 4),
        k=st.integers(1, 4),
        kind=st.sampled_from(["holds", "random", "raised-last"]),
        block=st.integers(1, 400),
    )
    def test_drawn_tables_match_across_workers_and_blocks(self, seed, n, k, kind, block):
        assume((k + 1) ** n <= 256)
        table = seeded_table(kind, n, k, seed)
        for name in SCANS:
            one = scan_json(name, table, **ONE_WORKER)
            assert scan_json(name, table, _BLOCK=block, **TWO_WORKERS) == one

    def test_constructed_table_reports_its_earliest_row_and_least_pair(self):
        # n = 3, k = 2: row p holds the pairs whose s has high part (x1, x2)
        # of index p, against 3 low parts x0; blocks of 18 entries hold 2
        # high parts of t, so row 0 spans 5 blocks and row 1 spans 4.  The
        # indicator of these four entries fails in row 0 only in its last
        # block, where the join (2, 2, 2) is raised, and in row 1 in its
        # first block and, at a smaller low part of s, in a later one.
        def indicator(raised):
            values = np.zeros(27)
            values[raised] = 1.0
            return TabularFunction(Dims(3, 2), values)

        def placed(s, t):  # row, block, low part of s, t's high part - row, low of t
            i, j = (sum(v * 3**e for e, v in enumerate(x)) for x in (s, t))
            q = j // 3 - i // 3
            return i // 3, q // 2, i % 3, q, j % 3

        def failing(table):
            def violates(s, t):
                lhs = table(s) + table(t)
                rhs = table(oracles.vec_min0(s, t)) + table(oracles.vec_max0(s, t))
                return lhs < rhs - 1e-9

            states = list(all_assignments(table.dims))
            pairs = [(s, t) for i, s in enumerate(states) for t in states[i:]
                     if violates(s, t)]
            return pairs, first_pair_in_index_order(states, violates)

        table, held = indicator([1, 7, 22, 26]), indicator([1, 7, 22])
        pairs, first = failing(table)
        rows = [placed(s, t) for s, t in pairs]
        assert [place[:2] for place in rows if place[0] == 0] == [(0, 4)]
        row_one = [place for place in rows if place[0] == 1]
        assert any(place[1] == 0 for place in row_one)
        least = min(row_one, key=lambda place: place[2:])
        assert least[1] > 0
        assert placed(*first) == rows[0] and first == ((2, 0, 0), (0, 2, 2))
        # without the raised join row 0 holds, and row 1's least pair stays
        held_pairs, later = failing(held)
        assert placed(*later) == least
        for workers in (ONE_WORKER, TWO_WORKERS):
            with patch.multiple(checks, _BLOCK=18, **workers):
                assert reported_pair(check_k_submodular(table)) == first
                assert reported_pair(check_k_submodular(held)) == later

    @pytest.mark.parametrize("slow_hits", [True, False])
    def test_a_worker_stops_past_the_earliest_hit(self, slow_hits):
        # step 0 runs alone and misses; then worker 0 hits step 2 at once
        # while worker 1 is still on step 1.  The report is step 1's when it
        # hits too, and step 3 never runs.
        ran = []

        def make_step():
            def step(i):
                ran.append(i)
                if i == 1:
                    time.sleep(0.05)
                    return "step 1" if slow_hits else None
                return f"step {i}" if i else None
            return step

        expected = (1, "step 1") if slow_hits else (2, "step 2")
        assert checks._first_hit(6, 2, make_step) == expected
        assert sorted(ran) == [0, 1, 2]

    def test_earliest_hit_under_contention(self):
        # four workers on two CPUs with a short switch interval: a lost
        # update of the earliest hit would report a later step
        def make_step():
            return lambda i: i if i >= 50 and i % 7 == 3 else None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                assert checks._first_hit(400, 4, make_step) == (52, 52)
            table = seeded_table("random", 4, 4, seed=3)
            one = scan_json("ksub", table, **ONE_WORKER)
            assert scan_json("ksub", table, _THREADS=4, _THREAD_ENTRIES=0) == one
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name", ["ksub", "orthant-pairs"])
    def test_second_worker_exception_surfaces(self, monkeypatch, name):
        caller, real = threading.current_thread(), checks._meet_join

        def failing(*args):
            if threading.current_thread() is not caller:
                raise RuntimeError("second worker failed")
            return real(*args)

        monkeypatch.setattr(checks, "_meet_join", failing)
        table = seeded_table("holds", 5, 3, seed=1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second worker failed"):
            scan_json(name, table, **TWO_WORKERS)
        assert threading.active_count() == before

    def test_threads_end_with_the_check(self):
        table = seeded_table("holds", 5, 3, seed=1)
        before = threading.active_count()
        with patch.multiple(checks, **TWO_WORKERS):
            assert check_characterization(table).holds
        assert threading.active_count() == before

    def test_failing_scan_memory_stays_flat(self):
        # row 0 of a failing (8, 3) table fails; its one block of
        # 256 x 256^2 entries peaked at 402 MB before blocks were bounded
        table = random_table(Dims(8, 3), seed=1)
        tracemalloc.start()
        try:
            assert not check_k_submodular(table, max_pairs=10**12).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestCheckReport:
    def test_json_shape(self):
        report = check_k_submodular(layout_table(3))
        doc = json.loads(json.dumps(report.to_json()))
        assert set(doc) == {"property", "holds", "counterexample", "evals"}
        assert doc["holds"] is False
        assert doc["evals"] > 0
        assert set(doc["counterexample"]) == {"inequality", "s", "t", "lhs", "rhs"}

    def test_holding_report_has_no_counterexample(self):
        report = check_orthant_submodular(layout_table(3))
        assert report.holds and report.counterexample is None


def test_characterization_memory_stays_bounded():
    # the pair scan works in row blocks: a fresh process checking a (6, 3)
    # table peaked at 692 MB when it built size x size index tables
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB on Linux only")
    import ksubmax

    code = (
        "import resource\n"
        "from ksubmax import Dims, check_characterization, random_ksubmodular\n"
        "table = random_ksubmodular(Dims(6, 3), atoms=18, seed=1)\n"
        "assert check_characterization(table).holds\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(ksubmax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert int(out.stdout) / 1024 < 150


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize(
    "check",
    [check_k_submodular, check_orthant_submodular, check_orthant_pair_inequality,
     check_characterization, lambda table, eps: check_r_wise_monotone(table, 2, eps)],
    ids=["ksub", "orthant", "orthant-pairs", "characterization", "monotone:2"],
)
def test_unusable_eps_rejected(check, eps):
    # NaN or infinite slack would pass every inequality: under eps=nan the
    # ksub check reported `holds` on this violating table
    table = random_table(Dims(3, 3), seed=5)
    with pytest.raises(InputError, match="eps"):
        check(table, eps)


def audit_digest(n, k, seeds):
    """sha256 of every checker report, brute force over orthants, both exact
    expectations, a 50-trial empirical expectation of each algorithm, one
    randomized greedy run and the calls each table was charged, on the
    holding, random and raised-last tables of every seed, floats by
    float.hex."""
    parts = []
    for seed in seeds:
        for kind in ("holds", "random", "raised-last"):
            table = seeded_table(kind, n, k, seed)
            reports = [check_k_submodular(table), check_orthant_submodular(table),
                       check_orthant_pair_inequality(table)]
            reports += [check_r_wise_monotone(table, r) for r in range(1, k + 1)]
            if k >= 2:
                reports.append(check_characterization(table))
            parts.append([report.to_json() for report in reports])
            parts.append(brute_force_max(table, over_orthants_only=True).to_json())
            parts.append(exact_expectation_random_orthant(table))
            parts.append(exact_expectation_randomized_greedy(table))
            parts.append(empirical_expectation(table, "greedy_rand", 50, seed))
            parts.append(empirical_expectation(table, "random", 50, seed))
            parts.append(randomized_greedy(table, seed).to_json())
            parts.append(table.calls)
    return hashlib.sha256(json.dumps(hexed(parts)).encode()).hexdigest()


@pytest.mark.parametrize("n,k,digest", [
    (1, 1, "cc4024d3f7bd13ea62344a61e706689ee3064b089e5b30853519ce9f15ace43c"),
    (2, 2, "697da2edf248850602304c48f14bec34f50a6ad5ccf6b2b594c728abfa93132f"),
    (3, 2, "c5b4591c2dbcab9473070fdce481aca05631065a8d8826a2e218e808a81c12b2"),
    (3, 3, "6aa8f511f30bebf15ba3fbc427debc8a695a8bd4afafbb1482db9b3692d316f4"),
    (4, 3, "e0a8b8958855679069d4b6b6f5824001d52278db7e9833ecd4e0fd211fcb74a7"),
    (5, 3, "6e38efd0d805a343694d04d412e78394e2c1fe0eab45634f1791d65eabc9bd4b"),
    (4, 4, "509eb60574b8941f07174871b289e5a4e84c7b104ea8b37d00ad2ea38f97f4b5"),
    (2, 6, "796de7631ecfd9645ce5c15285605a7f5604e361f8d44df7cce294bda78d40cf"),
    (6, 2, "1459e9b6ea1d8f7c1bbfd5ff3c495dc7323ac7a3688456919b46f703c993c5cc"),
])
def test_audit_outputs_keep_their_recorded_digests(n, k, digest):
    # recorded before the index layout moved behind core: a changed report,
    # float, label or call count on any of the 36 tables changes the digest
    assert audit_digest(n, k, range(12)) == digest
