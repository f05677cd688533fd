"""Property checkers: worked instances, counterexample soundness, and
agreement with the independent loop-based references."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, product
from math import prod
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
import oracles
from ksubmax.core import DEFAULT_MAX_PAIRS
from factories import all_assignments, directed_path, hexed, single_edge


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


def grid_table(n, k, seed, dips, scale):
    """A modular table with gains 0..3 per element and label, ``dips`` of
    its entries redrawn from 0..3, about half its zeros -0.0, times
    ``scale``: small integers times a power of two, so that sums of a few
    gains are exact and gains tie."""
    rng = np.random.default_rng(seed)
    gains = rng.integers(0, 4, (n, k + 1))
    gains[:, 0] = 0
    digits = np.indices((k + 1,) * n).reshape(n, -1)[::-1]  # element e's label, index order
    values = gains[np.arange(n)[:, None], digits].sum(0).astype(float)
    values[rng.integers(0, values.size, dips)] = rng.integers(0, 4, dips)
    values[(values == 0) & (rng.random(values.size) < 0.5)] = -0.0
    return TabularFunction(Dims(n, k), values * scale)


def signed_zero_table():
    """A modular (4, 3) table on quarters whose zeros alternate between
    0.0 and -0.0 in runs of four indices, with f(0, 1, 0, 2) dropped to
    -0.0: its first r-wise violation is at element 1 of s = (0, 0, 0, 2)."""
    gains = [[0, 0.25, 0.0, 0.5], [0, 0.5, 0.0, 0.0], [0, 0.25, 0.25, 0.0],
             [0, 0.5, 0.25, 0.25]]
    values = [sum(gains[e][x[e]] for e in range(4)) for x in all_assignments(Dims(4, 3))]
    values[1 * 4 + 2 * 64] = 0.0
    values = [(-0.0 if i // 4 % 2 else 0.0) if v == 0 else v for i, v in enumerate(values)]
    return TabularFunction(Dims(4, 3), values)


def path_layout(n, k):
    """The layer layout of a directed path on n elements: submodular in
    every orthant, but not k-submodular for k >= 3."""
    return tabulate(make_layer_layout(directed_path(n), k))


#: Tables for the orthant scan's witness order: the witness tables, the
#: slack table, seeded failing tables, and layouts that hold in every
#: orthant while clashing pairs fail.
NONCLASH_TABLES = {
    **WITNESS_TABLES,
    "slack": slack_table,
    **{f"{kind}-{n}-{k}": (lambda kind=kind, n=n, k=k: seeded_table(kind, n, k, seed=n + k))
       for kind in ("random", "raised-last") for n, k in ((4, 2), (3, 4))},
    "layout-4-3": lambda: path_layout(4, 3),
    "layout-3-4": lambda: path_layout(3, 4),
}


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

    @pytest.mark.parametrize("block", [1 << 16, 81, 40])
    @pytest.mark.parametrize("make", NONCLASH_TABLES.values(), ids=NONCLASH_TABLES.keys())
    def test_first_counterexample_is_the_first_pair_without_a_clash(self, make, block):
        # blocks of 81 and 40 entries leave fewer low digits than elements,
        # so rows skip the high parts of t that clash with them; the
        # layouts hold in every orthant but fail on clashing pairs
        table = make()
        n, k = table.dims.n, table.dims.k
        assert block == 1 << 16 or scan_plan(n, k, "orthant", block)[0] < n
        with patch.object(checks, "_BLOCK", block):
            report = SCANS["orthant"](table)
        # the reference's pair, its least orthant above both, sides and evals
        assert report.to_json() == json.loads(first_violation_json(table, "orthant", 1e-9))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 4),
        k=st.integers(1, 4),
        kind=st.sampled_from(["holds", "random", "raised-last", "layout"]),
        block=st.sampled_from([1 << 16, 81, 40, 7]),
    )
    def test_scan_verdict_agrees_with_the_loop_reference(self, seed, n, k, kind, block):
        # the exhaustive scan itself, without the local certificate
        assume((k + 1) ** n <= 256 and (kind != "layout" or min(n, k) >= 2))
        table = path_layout(n, k) if kind == "layout" else seeded_table(kind, n, k, seed)
        with patch.object(checks, "_BLOCK", block):
            report = SCANS["orthant"](table)
        assert report.holds == oracles.is_orthant_submodular(table, n, k, 1e-9)
        assert reported_pair(report) == oracles.first_nonclash_violation(table, n, k, 1e-9)

    def test_pair_cap(self):
        # the local rows do not certify a random table: its 7^2 pairs without
        # a clash are capped after its 4 local rows
        table = random_table(Dims(2, 2), seed=1)
        with pytest.raises(InputError, match="7\\^2 pairs"):
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
        with pytest.raises(InputError, match=r"^r: must be in \[1, k=2\], got 3$"):
            check_r_wise_monotone(table, 3)
        with pytest.raises(InputError):
            check_r_wise_monotone(table, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        k=st.integers(1, 7),
        r=st.integers(0, 6),
        dips=st.integers(0, 6),
        scale=st.sampled_from([2.0**-30, 1.0, 2.0**30]),
        eps=st.sampled_from([0.0, 1e-9]),
    )
    def test_report_is_the_loop_references(self, seed, n, k, r, dips, scale, eps):
        # every r up to 7, where numpy's sum still adds left to right; the
        # entries are small multiples of a power of two, so every sum is
        # exact and gains tie, with -0.0 among the zeros
        r = 1 + r % k
        table = grid_table(n, k, seed, dips, scale)
        f = dict(zip(all_assignments(table.dims), table.values.tolist())).__getitem__
        report = check_r_wise_monotone(table, r, eps)
        found = oracles.first_r_wise_violation(f, n, k, r, eps)
        assert report.holds is (found is None)
        # every entry read k + 1 times per element swept
        assert report.evals_used == (n if found is None else found[1] + 1) * (k + 1) ** n
        if found is not None:
            s, element, labels, lhs = found
            cx = report.counterexample
            assert (cx["s"], cx["element"], cx["labels"], cx["lhs"].hex()) == (
                list(s), element, labels, lhs.hex())

    @pytest.mark.parametrize("make,r,pinned", [
        *((lambda: random_table(Dims(2, 9), seed=0), r, pinned) for r, pinned in (
            (1, ([0, 0], 0, [1], "-0x1.77fcb75d5ba2cp-2")),
            (2, ([0, 0], 0, [1, 2], "-0x1.ed23b7fbc3ba9p-1")),
            (8, ([0, 0], 0, [*range(1, 9)], "-0x1.29a1a07bfabe2p+0")),
            (9, ([0, 0], 0, [*range(1, 10)], "-0x1.baa148888a53dp-1")))),
        *((lambda: tabulate(make_coverage_tight(26)), r, None) for r in (2, 13, 26)),
        *((lambda: signed_zero_table(), r, ([0, 0, 0, 2], 1, [*range(1, r + 1)],
                                            "-0x1.0000000000000p-2")) for r in (1, 2, 3)),
    ], ids=["9-r1", "9-r2", "9-r8", "9-r9", "26-r2", "26-r13", "26-r26",
            "zeros-r1", "zeros-r2", "zeros-r3"])
    def test_pinned_reports(self, make, r, pinned):
        # recorded before the sweep read label slices of the value cube;
        # from r = 8 on numpy adds the set's marginals pairwise
        table = make()
        counterexample = None
        if pinned is not None:
            s, element, labels, lhs = pinned
            counterexample = {"inequality": "sum of marginals over the label set >= 0",
                              "s": s, "element": element, "labels": labels, "lhs": lhs,
                              "rhs": "0x0.0p+0"}
        assert hexed(check_r_wise_monotone(table, r).to_json()) == {
            "property": f"{r}_wise_monotone", "holds": pinned is None,
            "counterexample": counterexample,
            "evals": (table.dims.n if pinned is None else pinned[1] + 1)
            * (table.dims.k + 1) ** table.dims.n}

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

    @pytest.mark.parametrize("kind", ["random", "raised-last"])
    def test_both_sides_are_the_loop_references_first_pairs(self, monkeypatch, kind):
        # the two sides share one scan engine, so each is held to the plain
        # loops of tests/oracles.py; at (5, 3) the scans keep 3 and 4 low
        # digits of 5, so rows split the index and "orthant" skips the high
        # parts of t that clash with a row
        table = seeded_table(kind, 5, 3, seed=5)
        reports, real = {}, checks._pair_check
        for name in ("ksub", "orthant"):
            assert scan_plan(5, 3, name)[0] < 5
        monkeypatch.setattr(checks, "_pair_check", lambda table, mode, *args, **kw:
                            reports.setdefault(mode, real(table, mode, *args, **kw)))
        assert check_characterization(table).holds
        assert not reports["ksub"].holds and not reports["orthant"].holds
        for name, report in reports.items():
            assert json.dumps(report.to_json()) == first_violation_json(table, name, 1e-9)

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
        pair_check = checks_mod._pair_check
        monkeypatch.setattr(checks_mod, "_pair_check", lambda table, mode, *a, **kw:
                            fake if mode == "ksub" else pair_check(table, mode, *a, **kw))
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


def scan_only(mode):
    """Pair check ``mode`` without the local certificate, called as
    scan(table, eps, max_pairs)."""
    return lambda table, eps, max_pairs: checks._pair_check(table, mode, eps, max_pairs,
                                                            certify=False)


PAIR_CHECKS = {
    "ksub": (check_k_submodular, scan_only("ksub"), True),
    "orthant": (check_orthant_submodular, scan_only("orthant"), False),
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


def blockwise_certified(table, eps, singles):
    """The certificate's verdict by its per-block rule: after each block of
    local rows, c·(δ⁺ + 8uV) + 8uV <= (1 - u)·eps in rationals, for the
    running largest shortfall δ⁺."""
    n = table.dims.n
    top = float(table.values.max())
    if not (eps > 0 and top <= 2.0**1022):
        return False
    u = Fraction(1, 2**53)
    c = n * n if singles else n * n // 4
    slack = 8 * u * Fraction(top)
    bound = (1 - u) * Fraction(eps)
    running = accumulate(chain([0.0], checks._local_shortfalls(table, singles)), max)
    return all(c * (Fraction(delta) + slack) + slack <= bound for delta in running)


def bump_table(top, bump):
    """f = top·x_0 on n = 3, k = 1, with f(0, 1, 1) raised to ``bump``:
    for 0 <= bump <= top its largest local shortfall is exactly ``bump``,
    the row of elements 1 and 2 at s = 0."""
    values = np.array([top * (i & 1) for i in range(8)])
    values[6] = bump
    return TabularFunction(Dims(3, 1), values)


def last_float(holds, low, high):
    """The largest float x in [low, high], 0 <= low < high, with holds(x),
    for a predicate that holds at low, fails at high and changes once:
    bisection on the bits, which order nonnegative floats."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (low, high))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(float(np.int64(mid).view(np.float64))) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


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

    @pytest.mark.parametrize("factor", [1.0, 2.0**40])
    @pytest.mark.parametrize("kind", ["holds", "random"])
    @pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (2, 4), (3, 3), (4, 2), (3, 4), (5, 3)])
    def test_shortfalls_are_the_loop_references_blocks(self, n, k, kind, factor):
        # block by block and bit for bit, with rows (i) and without
        table = scaled(lambda: seeded_table(kind, n, k, seed=n + k), factor)()
        f = dict(zip(all_assignments(table.dims), table.values.tolist())).__getitem__
        for singles in (True, False):
            expected = oracles.local_shortfall_blocks(f, n, k, singles)
            got = list(checks._local_shortfalls(table, singles))
            assert [delta.hex() for delta in got] == [delta.hex() for delta in expected]

    @pytest.mark.parametrize("factor", [1.0, 2.0**-40, 1e300])
    @pytest.mark.parametrize("kind", ["holds", "random", "ties"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_single_rows_are_the_loop_references_blocks(self, k, kind, factor):
        # rows (i) from the two least f(s+e:i), bit for bit the largest
        # over every label pair; "ties" repeats gains on a grid, zeros +0.0
        if kind == "ties":
            grid = grid_table(3, k, seed=k, dips=4, scale=factor)
            table = TabularFunction(grid.dims, np.abs(grid.values))
        else:
            table = scaled(lambda: seeded_table(kind, 3, k, seed=k), factor)()
        f = dict(zip(all_assignments(table.dims), table.values.tolist())).__getitem__
        expected = oracles.local_shortfall_blocks(f, 3, k, True)
        got = list(checks._local_shortfalls(table, True))
        assert [delta.hex() for delta in got] == [delta.hex() for delta in expected]

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

    @pytest.mark.parametrize("eps", [1e-9, 2.0**-20])
    @pytest.mark.parametrize("top", [1.0, 1e5])
    @pytest.mark.parametrize("name", PAIR_CHECKS)
    def test_float_threshold_matches_the_blockwise_rule(self, name, top, eps):
        # a largest local shortfall exactly at the last float the rule
        # admits is certified, and one ulp above it is not; at eps = 0
        # neither is
        singles = PAIR_CHECKS[name][2]
        at = last_float(lambda bump: blockwise_certified(bump_table(top, bump), eps, singles),
                        0.0, eps)
        for bump, certified in ((at, True), (np.nextafter(at, np.inf), False)):
            table = bump_table(top, bump)
            assert max(checks._local_shortfalls(table, singles)) == bump
            assert blockwise_certified(table, eps, singles) is certified
            assert checks._certified(table, eps, 10**8, name, singles) is certified
            assert not checks._certified(table, 0.0, 10**8, name, singles)
            assert not blockwise_certified(table, 0.0, singles)

    @pytest.mark.parametrize("eps", [1e-9, 2.0**-20, 0.0])
    def test_no_rows_at_n_1_certify_up_to_the_rounding_allowance(self, eps):
        # the orthant check at n = 1 has c = 0 and no local rows: only the
        # rounding allowance 8uV against eps decides, at the last float V
        # the rule admits and one ulp above it
        def table(top):
            return TabularFunction(Dims(1, 1), [0.0, top])

        if eps == 0:
            tops = [(1.0, False), (0.0, False)]
        else:
            at = last_float(lambda top: blockwise_certified(table(top), eps, False),
                            0.0, 2.0**1000)
            tops = [(at, True), (np.nextafter(at, np.inf), False)]
        for top, certified in tops:
            assert blockwise_certified(table(top), eps, False) is certified
            assert checks._certified(table(top), eps, 10**8, "orthant", False) is certified
            assert check_orthant_submodular(table(top), eps).holds

    @pytest.mark.parametrize("eps,scanned", [(0.0, True), (1e-9, False)])
    def test_nothing_certified_at_eps_0(self, monkeypatch, eps, scanned):
        # an integer-valued modular table holds exactly, even at eps = 0
        calls, real = [], checks._pair_scan
        monkeypatch.setattr(checks, "_pair_scan", lambda table, mode, eps:
                            calls.append(mode) or real(table, mode, eps))
        dims = Dims(3, 2)
        table = TabularFunction(dims, [float(sum(x)) for x in all_assignments(dims)])
        assert check_k_submodular(table, eps).holds
        assert check_orthant_submodular(table, eps).holds
        assert calls == (list(PAIR_CHECKS) if scanned else [])


#: The three exhaustive scans, each called as scan(table) or scan(table, eps).
SCANS = {
    name: lambda table, eps=1e-9, name=name: scan_only(name)(table, eps, 10**12)
    for name in ("ksub", "orthant", "orthant-pairs")
}

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


def scan_json(name, table, block=checks._BLOCK):
    """The report of scan ``name`` as JSON text, in blocks of at most
    ``block`` entries."""
    with patch.object(checks, "_BLOCK", block):
        return json.dumps(SCANS[name](table).to_json())


def boundary_table(n, k, scan, shortfall, unit):
    """A dyadic table whose violating pairs for ``scan`` fall short by
    exactly ``shortfall``, every sum computed exactly.  The modular base
    f(x) = sum_e (e + 2 x_e) * unit over the assigned elements holds every
    inequality, with equality on every pair without a clash.  For "ksub"
    and "orthant" the all-k entry is raised by ``shortfall``: a pair whose
    join it is, and which holds neither it nor a clash, falls short by
    exactly that.  For
    "orthant-pairs" element 0 weighs nothing and the id0 (0, k, ..., k) of
    the orthants that differ at element 0 alone is raised by half of it."""
    dims = Dims(n, k)
    values = np.array([
        sum((e + 2 * v) * unit for e, v in enumerate(x)
            if v and (scan != "orthant-pairs" or e))
        for x in all_assignments(dims)
    ])
    if scan != "orthant-pairs":
        values[-1] += shortfall
    else:
        values[-1 - k] += shortfall / 2
    return TabularFunction(dims, values)


def first_violation_json(table, scan, eps, rowwise=False):
    """The report of ``scan`` on ``table`` from the independent reference:
    the first violating pair in index order, by plain loops over
    tests/oracles.py, with the scan's float operations; with ``rowwise``,
    by :func:`oracles.first_pair_violation`, one s at a time."""
    dims = table.dims
    states = list(all_assignments(dims))
    meet_join = (oracles.vec_min0, oracles.vec_max0)
    if scan == "ksub":
        prop, inequality = "k_submodular", "f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t))"
        evals = 4 * len(states) ** 2
    elif scan == "orthant":
        prop = "orthant_submodular"
        inequality = "f(a) + f(b) >= f(min0(a,b)) + f(max0(a,b)) within one orthant"
        evals = 4 * (3 * dims.k + 1) ** dims.n
    else:
        states = [x for x in states if all(x)]
        prop, inequality = "orthant_pair_inequality", "f(s) + f(t) >= 2 f(id0(s,t))"
        meet_join = (oracles.vec_id0, oracles.vec_id0)
        evals = 3 * len(states) ** 2

    def sides(s, t):
        return table(s) + table(t), table(meet_join[0](s, t)) + table(meet_join[1](s, t))

    def violates(s, t):
        lhs, rhs = sides(s, t)
        return lhs < rhs - eps

    if rowwise:
        pair = oracles.first_pair_violation(table.values, dims.n, dims.k, scan, eps)
    elif scan == "orthant":
        pair = oracles.first_nonclash_violation(table, dims.n, dims.k, eps)
    else:
        pair = first_pair_in_index_order(states, violates)
    counterexample = None
    if pair is not None:
        s, t = pair
        lhs, rhs = sides(s, t)
        counterexample = {"inequality": inequality, "s": list(s), "t": list(t),
                          "lhs": lhs, "rhs": rhs}
        if scan == "orthant":
            orthant = [x if x else y if y else 1 for x, y in zip(s, t)]
            counterexample = {"inequality": inequality, "orthant": orthant, **counterexample}
    return json.dumps({"property": prop, "holds": pair is None,
                       "counterexample": counterexample, "evals": evals})


class TestScanBoundary:
    @pytest.mark.parametrize("block", [40, 300, 1 << 16])
    @pytest.mark.parametrize("scan", ["ksub", "orthant", "orthant-pairs"])
    @pytest.mark.parametrize("n,k", [(3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("eps", [2.0**-20, 0.0])
    def test_a_pair_short_by_eps_holds_and_by_the_next_float_fails(
        self, eps, n, k, scan, block
    ):
        # an orthant pair falls short by twice a raise, at least 2^-1073; a
        # shortfall of 2^-1074 or 2^-1073 is exact only on a zero base
        above = np.nextafter(eps, 1.0) * (2 if eps == 0 and scan == "orthant-pairs" else 1)
        cases = [(eps, 2.0**-40, True), (above, 2.0**-40 if eps else 0.0, False)]
        for shortfall, unit, holds in cases:
            table = boundary_table(n, k, scan, shortfall, unit)
            expected = first_violation_json(table, scan, eps)
            assert json.loads(expected)["holds"] is holds
            with patch.object(checks, "_BLOCK", block):
                report = SCANS[scan](table, eps)
            assert json.dumps(report.to_json()) == expected


def clash_group_table(k, members, top=8.0):
    """A table on n = 3 whose first violating pair is (s, t_y) with s = e1:1
    and t_y = e2:1 + e1:y, y >= 2: t_y clashes with s at element 1, so the
    t_y form one group of the pair scan, and f(t_y) = members.get(y, 2 top).
    A pair (s, t_y) falls short by 2 top - f(t_y), so t_y violates when
    f(t_y) < 2 top - eps and not when f(t_y) >= 2 top.  Every other entry
    keeps every earlier pair within its inequality: f(0) = 0, f = top on
    every other assignment but f(e2:1) = f(e2:1 + e0:w) = 3 top and
    f(e2:1 + e0:w + e1:y) = 2 top."""
    dims = Dims(3, k)
    values = np.full((k + 1) ** 3, top)
    values[0] = 0.0
    base = (k + 1) ** 2  # e2:1
    for w in range(k + 1):
        values[base + w] = 3 * top
        for y in range(2, k + 1):
            values[base + y * (k + 1) + w] = 2 * top if w else members.get(y, 2 * top)
    return TabularFunction(dims, values)


#: members' values per case, with top = 8: 15 violates, 16 holds
CLASH_CASES = {
    "least-violating-member-is-not-the-minimizer": lambda k: {2: 15.0, k: 8.0},
    "minimizer-violates-a-smaller-member-does-not": lambda k: {2: 16.0, k: 8.0},
    "tied-members": lambda k: {2: 9.0, k: 9.0},
}


class TestClashGroups:
    @pytest.mark.parametrize("case", CLASH_CASES)
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.0, 1e-9])
    def test_group_reports_its_least_violating_member(self, eps, k, case):
        members = CLASH_CASES[case](k)
        table = clash_group_table(k, members)
        expected = first_violation_json(table, "ksub", eps)
        # the reference's first violation is the least violating member
        y = min(y for y, value in members.items() if value < 16.0)
        assert json.loads(expected)["counterexample"]["t"] == [0, y, 1]
        assert json.loads(expected)["counterexample"]["s"] == [0, 1, 0]
        expected_pairs = first_violation_json(table, "orthant-pairs", eps)
        for block in (checks._BLOCK, 300, 40, 7):
            with patch.object(checks, "_BLOCK", block):
                report = SCANS["ksub"](table, eps)
                pairs = check_orthant_pair_inequality(table, eps, 10**12)
            assert json.dumps(report.to_json()) == expected
            assert json.dumps(pairs.to_json()) == expected_pairs

    @pytest.mark.parametrize("mode", ["ksub", "orthant-pairs"])
    @pytest.mark.parametrize("m,h", [(3, 0), (1, 2)])
    def test_k_2_plans_have_no_groups(self, m, h, mode):
        # a group would stand for one label: every label pair is a plain
        # valid pair, and t's rows are the cube itself
        labels = 3 - (mode == "orthant-pairs")
        plan = scan_plan(4, 2, mode)  # (m, h, ..., others, tables, ...)
        others, valid = plan[7], plan[8][1][0]
        assert others.size == 0
        assert valid.size == labels ** (2 * plan[0])
        cube = np.random.default_rng(m + h).random((labels,) * 4)
        assert np.array_equal(checks._min_extended(cube, m, h, others),
                              cube.reshape(labels**m, -1))

    @pytest.mark.parametrize("n,k,orthants,m,h", [
        (3, 3, False, 2, 0), (2, 4, False, 1, 0), (3, 4, True, 2, 0),
        (3, 3, False, 2, 1), (3, 4, True, 1, 2), (4, 3, False, 0, 3)])
    def test_min_extended_rows_are_the_least_f_over_each_group(self, n, k, orthants, m, h):
        # the cube's axes: the m low elements, then the high ones, most
        # significant first; the m low axes and the last h are grouped
        labels = k + 1 - orthants
        cube = np.random.default_rng(n + k).random((labels,) * n)
        mode = "orthant-pairs" if orthants else "ksub"
        others = scan_plan(n, k, mode)[7]
        got = checks._min_extended(cube, m, h, others)
        if not orthants:  # "orthant" pairs no clashing t: no groups, t's own rows
            none = scan_plan(n, k, "orthant")[7]
            assert none.size == 0
            assert np.array_equal(checks._min_extended(cube, m, h, none),
                                  cube.reshape(labels**m, -1))
        # digit r of a grouped part: label r, or from labels on, every
        # nonzero label but the (r - labels)-th
        nonzero = list(range(labels - k, labels))
        choices = [[r] for r in range(labels)] + [
            [x for x in nonzero if x != nonzero[g]] for g in range(k)]
        sizes = [len(choices) if d < m or d >= n - h else labels for d in range(n)]
        assert got.shape == (prod(sizes[:m]), prod(sizes[m:]))
        for index, part in enumerate(np.ndindex(*sizes)):
            members = [cube[t] for t in product(*(choices[r] for r in part))]
            assert got.flat[index] == min(members)

    @pytest.mark.parametrize("scan", ["ksub", "orthant-pairs"])
    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (4, 4)])
    def test_a_violation_in_the_first_step_builds_no_grouped_rows(
        self, monkeypatch, n, k, scan
    ):
        # f = 10 at 0 and at (0, 1, ..., 1), in [1, 2) elsewhere: the first
        # violating pair is (e0:1, e0:2), meeting and joining at 0, or on
        # orthants ((1, ..., 1), (2, 1, ..., 1)), whose id0 is (0, 1, ..., 1);
        # both lie in row 0's first step, which pairs without groups
        dims = Dims(n, k)
        values = 1.0 + np.random.default_rng(n + k).random((k + 1) ** n)
        values[0] = values[sum((k + 1) ** e for e in range(1, n))] = 10.0
        table = TabularFunction(dims, values)
        expected = first_violation_json(table, scan, 1e-9)
        pair = json.loads(expected)["counterexample"]
        assert [pair["s"][0], pair["t"][0]] == [1, 2] and pair["s"][1:] == pair["t"][1:]

        def refused(*args):
            raise AssertionError("grouped rows built")

        monkeypatch.setattr(checks, "_min_extended", refused)
        if scan == "ksub":
            report = SCANS["ksub"](table)
        else:
            report = check_orthant_pair_inequality(table, 1e-9, 10**12)
        assert json.dumps(report.to_json()) == expected

    @pytest.mark.parametrize("name", SCANS)
    @pytest.mark.parametrize("n,k", [(5, 4), (6, 3), (7, 3)])
    def test_rows_of_t_are_built_once_per_scan(self, monkeypatch, n, k, name):
        # at (7, 3) the grouped rows of "ksub" and "orthant-pairs" exceed a
        # block, and were rebuilt per block before
        m, h, *_, steps = scan_plan(n, k, name)
        labels = k + 1 - (name == "orthant-pairs")
        grouped = labels ** (n - m - h) * (labels + k * (name != "orthant")) ** (m + h)
        assert h == n - m and len(steps) > 2
        assert grouped > checks._BLOCK or n < 7 or name == "orthant"
        calls, real = [], checks._min_extended

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(checks, "_min_extended", counted)
        report = SCANS[name](seeded_table("holds", n, k, seed=n + k))
        assert report.holds and len(calls) == 1


def clash_witness_table(n, k):
    """A holding table with f(1, k, ..., k) halved: its first violating
    pair, on all assignments and on orthants, clashes (see
    :class:`TestTwoLabels`)."""
    table = holding_table(n, k)
    values = table.values.copy()
    values[-2] *= 0.5
    return TabularFunction(table.dims, values, name="clash-witness")


#: k = 2 tables: holding, raised-last and clash-witness, up to (8, 2)
TWO_LABEL_TABLES = {
    **{f"{kind}-{n}-2": (lambda kind=kind, n=n: seeded_table(kind, n, 2, seed=n))
       for kind in ("holds", "raised-last") for n in (3, 5, 8)},
    **{f"clash-witness-{n}-2": (lambda n=n: clash_witness_table(n, 2)) for n in (3, 5, 8)},
    **{f"clash-group-{case}": (lambda case=case: clash_group_table(2, CLASH_CASES[case](2)))
       for case in ("least-violating-member-is-not-the-minimizer", "tied-members")},
}


@lru_cache(maxsize=None)
def two_label_report(name, scan, eps=1e-9):
    """The report of ``scan`` on TWO_LABEL_TABLES[name] from the references,
    as JSON text: the first pairs one s at a time, and for the
    characterization the r = 2 loops too, whose sides must agree."""
    table = TWO_LABEL_TABLES[name]()
    if scan != "characterization":
        return first_violation_json(table, scan, eps, rowwise=True)
    ksub, orthant = (json.loads(two_label_report(name, side, eps)) for side in ("ksub", "orthant"))
    n, k = table.dims.n, table.dims.k
    pairwise = oracles.first_r_wise_violation(table, n, k, 2, eps)
    assert ksub["holds"] == (orthant["holds"] and pairwise is None)
    evals = (ksub["evals"] + orthant["evals"]
             + (pairwise[1] + 1 if pairwise else n) * (k + 1) ** n)
    return json.dumps({"property": "characterization", "holds": True,
                       "counterexample": None, "evals": evals})


class TestTwoLabels:
    """At k = 2 a clash group stands for one label, so a clashing t is a
    plain pair of the scan; these pins hold the k = 2 scans to the
    references whatever the scan groups."""

    @pytest.mark.parametrize("scan", ["ksub", "orthant", "orthant-pairs"])
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("kind", ["holds", "random", "raised-last"])
    def test_rowwise_reference_is_the_plain_loops(self, kind, n, k, scan):
        for table in (seeded_table(kind, n, k, seed=n + k), clash_witness_table(n, k)):
            assert (first_violation_json(table, scan, 1e-9, rowwise=True)
                    == first_violation_json(table, scan, 1e-9))

    @pytest.mark.parametrize("scan", ["ksub", "orthant-pairs"])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_clash_witness_tables_fail_on_a_clashing_pair(self, n, scan):
        witness = json.loads(two_label_report(f"clash-witness-{n}-2", scan))["counterexample"]
        assert oracles.clashes(witness["s"], witness["t"])

    # blocks of 300 entries or fewer take seconds at (8, 2)
    @pytest.mark.parametrize("name,block", [
        (name, block) for name in TWO_LABEL_TABLES
        for block in ((checks._BLOCK, 4096) if "-8-" in name else (checks._BLOCK, 300, 40))])
    @pytest.mark.parametrize("scan", ["ksub", "orthant-pairs", "characterization"])
    def test_reports_are_the_references(self, scan, name, block):
        table = TWO_LABEL_TABLES[name]()
        with patch.object(checks, "_BLOCK", block):
            if scan == "characterization":
                report = check_characterization(table, 1e-9, 10**12)
            else:
                report = SCANS[scan](table)
        assert json.dumps(report.to_json()) == two_label_report(name, scan)


def modular_table(n, k, seed, lowered):
    """f(x) = sum_e c[e, x_e], c[e, 0] = 0 and the other c drawn from 1..8,
    with ``lowered`` entries lowered by 1..29 (and kept nonnegative).  A
    modular table holds every inequality, with equality on the pairs
    without a clash, so the lowered entries make the only violations."""
    rng = np.random.default_rng(seed)
    c = rng.integers(1, 9, size=(n, k + 1)).astype(float)
    c[:, 0] = 0
    dims = Dims(n, k)
    values = np.array([sum(c[e, x[e]] for e in range(n)) for x in all_assignments(dims)])
    for _ in range(lowered):
        values[rng.integers(values.size)] -= rng.integers(1, 30)
    return TabularFunction(dims, np.maximum(values, 0))


def tight_table(n, k, seed):
    """f = 8, which holds every inequality with equality, with a few
    entries raised by 1..3 and a few but f(0) lowered by 1..2."""
    rng = np.random.default_rng(seed)
    values = np.full((k + 1) ** n, 8.0)
    for _ in range(rng.integers(2, 12)):
        values[rng.integers(values.size)] += rng.integers(1, 4)
    for _ in range(rng.integers(1, 4)):
        values[rng.integers(1, values.size)] -= rng.integers(1, 3)
    return TabularFunction(Dims(n, k), values)


def high_part(x, m, k):
    """The high part of assignment x over its elements from m on."""
    return sum(v * (k + 1) ** (e - m) for e, v in enumerate(x) if e >= m)


def grouped_part(s, t, m, h, k):
    """On all assignments, the part of t that the row of s visits, as
    (index among the parts of t, the high parts of its members): on
    element e in m..m+h-1 where s has x != 0 and t another nonzero label,
    the group of every nonzero label but x, else t's own label."""
    part, members = 0, [0]
    for e in range(len(s) - 1, m - 1, -1):
        x, y = s[e], t[e]
        grouped = e < m + h and k > 2
        labels = [v for v in range(1, k + 1) if v != x] if grouped and x and y and y != x else [y]
        part = part * (2 * k + 1 if grouped else k + 1) + (k + x if labels != [y] else y)
        members = [q * (k + 1) + v for q in members for v in labels]
    return part, sorted(members)


def least_violations(table, eps=1e-9):
    """The first s with a violating pair on all assignments, and every t
    that violates with it, in index order, by plain loops."""
    states = list(all_assignments(table.dims))
    for s in states:
        ts = [t for t in states if table(s) + table(t)
              < table(oracles.vec_min0(s, t)) + table(oracles.vec_max0(s, t)) - eps]
        if ts:
            return s, ts
    return None


class TestGroupedHighDigits:
    @pytest.mark.parametrize("n,k,block,seed,lowered", [(3, 3, 40, 232, 2), (3, 4, 300, 3, 1)])
    def test_first_t_in_a_group_with_members_on_both_sides_of_s(
        self, n, k, block, seed, lowered
    ):
        # s's least t lies in a grouped part of t past row 0's first step,
        # and that part holds members below and above s's own high part
        table = modular_table(n, k, seed, lowered)
        expected = first_violation_json(table, "ksub", 1e-9)
        s, ts = least_violations(table)
        assert json.loads(expected)["counterexample"]["t"] == list(ts[0])
        m, h, *_, steps = scan_plan(n, k, "ksub", block)
        p, a = high_part(s, m, k), sum(v * (k + 1) ** e for e, v in enumerate(s[:m]))
        assert any(step[0] == p and step[1] <= a < step[2] for step in steps[1:])
        members = grouped_part(s, ts[0], m, h, k)[1]
        assert h and members[0] < p < members[-1]
        assert scan_json("ksub", table, block) == expected

    @pytest.mark.parametrize("block", [13, 40])
    def test_flagged_groups_in_two_chunks_yield_the_least_t(self, block):
        # with no low digit, a block takes `block` parts of t of a row: the
        # violating groups of s's row fall in two chunks or more, and the
        # report is still s's least t
        seen = 0
        m, h, *_, steps = scan_plan(3, 3, "ksub", block)
        assert (m, h) == (0, 1)
        for seed in range(10):
            table = tight_table(3, 3, seed)
            expected = first_violation_json(table, "ksub", 1e-9)
            assert scan_json("ksub", table, block) == expected
            s, ts = least_violations(table)
            p = high_part(s, 0, 3)
            parts = sorted({grouped_part(s, t, 0, h, 3)[0] for t in all_assignments(table.dims)
                            if high_part(t, 0, 3) >= p})
            q_step = next(step[3] for step in steps[1:] if step[0] == p)
            groups = [parts.index(part) // q_step for part, members in
                      (grouped_part(s, t, 0, h, 3) for t in ts) if len(members) > 1]
            seen += len(set(groups)) > 1 and len(grouped_part(s, ts[0], 0, h, 3)[1]) > 1
        assert seen >= 3

    @pytest.mark.parametrize("n,k", [(1, 1), (4, 1), (6, 1), (2, 2), (3, 2), (4, 2)])
    def test_one_and_two_labels_match_the_loops(self, n, k):
        # no groups at k = 1; at k = 2 each group is one label, and the high
        # digits keep t's labels; blocks of 7 to 2^16 entries and grouped
        # rows capped at 40 entries give every split of the digits
        for kind in KINDS:
            table = seeded_table(kind, n, k, seed=n + k)
            for name in SCANS:
                expected = first_violation_json(table, name, 1e-9)
                for block, grouped in product([7, 40, 300, 1 << 16], [checks._GROUPED, 40]):
                    with patch.object(checks, "_GROUPED", grouped):
                        assert scan_json(name, table, block) == expected

    def test_holding_6_3_ksub_scan_visits_at_most_2_75m_entries(self):
        # (valid low pair, part of t) entries past row 0's first step:
        # 2,197 x 2,080 = 4.57M with every high part of t from p on
        m, h, *_, tables, lists, steps = scan_plan(6, 3, "ksub")
        start, reach = tables[1][3], lists[0][0]
        assert (m, h) == (3, 3)
        entries = sum(int(start[a1] - start[a0]) * int(reach[p + 1] - reach[p])
                      for p, a0, a1, *_ in steps[1:])
        assert entries <= 2_750_000

    def test_every_high_digit_groups_under_the_default_pair_cap(self):
        # every (n, k) whose pairs the default cap allows, k <= 12, groups
        # all its high digits but "orthant-pairs" at (8, 3), whose 6^8
        # grouped rows exceed the bound: it groups 2 of its 3
        most, partial = {}, []
        for k, mode in product(range(1, 13), ["ksub", "orthant-pairs"]):
            labels = k + 1 - (mode == "orthant-pairs")
            for n in range(1, 28):
                if labels ** (2 * n) > DEFAULT_MAX_PAIRS:
                    break
                m, h = scan_plan(n, k, mode)[:2]
                if h < n - m:
                    partial.append((mode, n, k, h, n - m))
                elif k > 2:  # where a group holds two labels or more
                    most[mode] = max(most.get(mode, 0), (labels + k) ** n)
        assert partial == [("orthant-pairs", 8, 3, 2, 3)] and 6**8 > checks._GROUPED
        assert most == {"ksub": 11**5, "orthant-pairs": 6**7}

    def test_holding_8_3_ksub_scan_memory_stays_bounded(self):
        # the grouped rows of t group one high digit at (8, 3), 7^4 x 4^4
        # entries; a scan peaked at 7.2 MB with the low digits grouped alone
        table = random_ksubmodular(Dims(8, 3), atoms=24, seed=11)
        cold_plans()
        tracemalloc.start()
        try:
            assert SCANS["ksub"](table).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan_plan(8, 3, "ksub")[:2] == (3, 1) and peak <= 16 * 2**20


def permuted_table(table, elements, labels):
    """g(y) = f(x) with x[elements[e]] = labels[y[e]]: a relabelling of the
    elements and of the labels 1..k, which commutes with min0, max0 and id0,
    so each inequality of g is one of f on the same floats."""
    n, k = table.dims.n, table.dims.k
    y = np.array(list(all_assignments(table.dims)))
    x = np.empty_like(y)
    x[:, elements] = np.array(labels)[y]
    return TabularFunction(table.dims, table.values[x @ (k + 1) ** np.arange(n)])


class TestPermutedTables:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_verdicts_and_witnesses_survive_relabelling(self, data):
        n, k = data.draw(st.sampled_from(
            [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (3, 4), (5, 3), (5, 4), (6, 3)]))
        kind = data.draw(st.sampled_from(["holds", "random"]))
        block = data.draw(st.sampled_from([40, 300, 1 << 16]))
        assume(block == 1 << 16 or (k + 1) ** n <= 256)
        table = seeded_table(kind, n, k, data.draw(st.integers(0, 10**6)))
        elements = data.draw(st.permutations(range(n)))
        labels = [0, *data.draw(st.permutations(range(1, k + 1)))]
        permuted = permuted_table(table, elements, labels)
        checkers = [*SCANS.values(), check_k_submodular, check_orthant_submodular,
                    check_characterization, lambda table: check_r_wise_monotone(table, 2)]
        with patch.object(checks, "_BLOCK", block):
            for check in checkers:
                assert check(permuted).holds == check(table).holds
            for name, scan in SCANS.items():
                found = scan(permuted).counterexample
                if found is None:
                    continue
                s, t = ([0] * n, [0] * n)
                for e in range(n):
                    s[elements[e]], t[elements[e]] = labels[found["s"][e]], labels[found["t"][e]]
                meet, join = ((oracles.vec_id0,) * 2 if name == "orthant-pairs"
                              else (oracles.vec_min0, oracles.vec_max0))
                lhs, rhs = table(s) + table(t), table(meet(s, t)) + table(join(s, t))
                assert (lhs, rhs) == (found["lhs"], found["rhs"]) and lhs < rhs - 1e-9


class TestScanBlocks:
    @pytest.mark.parametrize("block", [40, 300])
    @pytest.mark.parametrize("name", SCANS)
    @pytest.mark.parametrize("kind", ["holds", "random", "raised-last"])
    @pytest.mark.parametrize("n,k", [(3, 4), (4, 3)])
    def test_reports_do_not_depend_on_the_block(self, n, k, kind, name, block):
        # a block of (4, 3) at 40 entries holds 2 of its 16 low parts of s;
        # one of (3, 4) holds 1 high part of t at 40 entries and 12 at 300
        table = seeded_table(kind, n, k, seed=n + k)
        assert scan_json(name, table, block) == scan_json(name, table)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 4),
        k=st.integers(1, 4),
        kind=st.sampled_from(["holds", "random", "raised-last"]),
        block=st.integers(1, 400),
    )
    def test_drawn_tables_match_across_blocks(self, seed, n, k, kind, block):
        assume((k + 1) ** n <= 256)
        table = seeded_table(kind, n, k, seed)
        for name in SCANS:
            assert scan_json(name, table, block) == scan_json(name, table)

    @pytest.mark.parametrize("name", SCANS)
    @pytest.mark.parametrize("n,k", [(5, 4), (7, 2), (1, 3), (7, 1)])
    def test_wider_low_half_matches_across_blocks(self, n, k, name):
        # odd n takes ceil(n/2) low digits when their W x W pairs fit in a
        # block, and n = 1 takes its one digit; blocks of W^2 and of W^2 - 1
        # entries give one high part of t per block with that low half, or a
        # low half one digit narrower
        low = (n + 1) // 2
        fit = (k + 1) ** (2 * low)
        for kind in ("holds", "random", "raised-last"):
            table = seeded_table(kind, n, k, seed=n + k)
            one = scan_json(name, table)
            for block in (fit, fit - 1, 3 * fit):
                assert scan_json(name, table, block) == one

    def test_constructed_table_reports_its_earliest_row_and_least_pair(self):
        # n = 3, k = 2 in two layouts.  Wide: blocks of 81 entries give the
        # low part two digits (x0, x1), so row p holds the pairs whose s has
        # x2 = p, each block holds one high part of t, and row 0 runs as two
        # steps, low parts of s below 3 and from 3.  Narrow: blocks of 18
        # entries leave the low part x0 alone, and each block holds two high
        # parts (x1, x2) of t.  In both, the table fails in row 0 only in
        # its last block, and in row 1 in its first block and, at a smaller
        # low part of s, in a later one.
        wide = [0, 4, 9, 5, 4, 14, 5, 9, 13, 4, 5, 12, 4, 0, 13, 8, 10, 12, 7, 11, 13,
                12, 10, 18, 7, 11, 8]
        raised_wide = list(wide)
        raised_wide[6] += 1  # row 0 fails at (1, 2, 0), in its second step

        def indicator(raised):
            values = np.zeros(27)
            values[raised] = 1.0
            return values

        layouts = [  # block, low part width, high parts of t per block, tables, first
            (81, 9, 1, raised_wide, wide, ((1, 2, 0), (0, 2, 2))),
            (18, 3, 2, indicator([1, 7, 22, 26]), indicator([1, 7, 22]),
             ((2, 0, 0), (0, 2, 2))),
        ]
        for block, width, per_block, failing_values, held_values, expected in layouts:
            def placed(s, t):  # row, block, low part of s, t's high part - row, low of t
                i, j = (sum(v * 3**e for e, v in enumerate(x)) for x in (s, t))
                q = j // width - i // width
                return i // width, q // per_block, i % width, q, j % width

            def failing(table):
                def violates(s, t):
                    lhs = table(s) + table(t)
                    rhs = table(oracles.vec_min0(s, t)) + table(oracles.vec_max0(s, t))
                    return lhs < rhs - 1e-9

                states = list(all_assignments(table.dims))
                pairs = [(s, t) for i, s in enumerate(states) for t in states[i:]
                         if violates(s, t)]
                return pairs, first_pair_in_index_order(states, violates)

            table = TabularFunction(Dims(3, 2), failing_values)
            held = TabularFunction(Dims(3, 2), held_values)
            pairs, first = failing(table)
            rows = [placed(s, t) for s, t in pairs]
            last = (27 // width - 1) // per_block
            assert {place[1] for place in rows if place[0] == 0} == {last}
            row_one = [place for place in rows if place[0] == 1]
            assert any(place[1] == 0 for place in row_one)
            least = min(row_one, key=lambda place: place[2:])
            assert least[1] > 0
            assert placed(*first) == min(rows) and first == expected
            # without the raised entry row 0 holds, and row 1's least pair stays
            _, later = failing(held)
            assert placed(*later) == least
            with patch.object(checks, "_BLOCK", block):
                assert reported_pair(check_k_submodular(table)) == first
                assert reported_pair(check_k_submodular(held)) == later

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


def cold_plans():
    checks._scan_plan.cache_clear()


def scan_plan(n, k, mode, block=None):
    """The scan's plan for (n, k, mode), at ``block`` or the module's block."""
    return checks._scan_plan(n, k, mode, block or checks._BLOCK, checks._GROUPED)


KINDS = ("holds", "random", "raised-last")


class TestScanPlans:
    def test_patched_block_matches_a_cold_run(self):
        tables = [seeded_table(kind, 4, 3, seed=7) for kind in KINDS]

        def reports(block):
            return [scan_json(name, table, block) for table in tables
                    for name in SCANS]

        blocks = [40, 300, checks._BLOCK, 81]
        cold = {}
        for block in blocks:
            cold_plans()
            cold[block] = reports(block)
        cold_plans()
        for block in blocks + blocks[::-1]:  # each plan built once, then kept
            assert reports(block) == cold[block]

    @pytest.mark.parametrize("n,k,mode,block", [
        (5, 3, "ksub", 1 << 16), (5, 4, "orthant-pairs", 1 << 16), (6, 3, "ksub", 300),
        (4, 4, "ksub", 40), (7, 2, "orthant-pairs", 81), (5, 3, "orthant", 1 << 16),
        (6, 3, "orthant", 300), (4, 4, "orthant", 40), (7, 2, "orthant", 81),
    ])
    def test_plan_arrays_are_read_only_and_within_a_block(self, n, k, mode, block):
        plan = scan_plan(n, k, mode, block)
        arrays = [part for part in plan if isinstance(part, np.ndarray)]
        assert len(arrays) == 6 and isinstance(plan[-1], tuple)
        # the first step's pairs and the valid pairs, each (s, t, pattern,
        # start, meet, join), in order of s and then of t
        first, valid = plan[8]
        m, h, width = plan[0], plan[1], plan[2].shape[0]
        per_digit = {"ksub": 4 * k + 1, "orthant": 3 * k + 1, "orthant-pairs": 2 * k}
        assert valid[0].size == per_digit[mode] ** m
        # the first step pairs s of low parts below L (every digit but
        # element 0's the first label) with every t, or in "orthant" with
        # each t that does not clash with it
        labels = k + 1 - (mode == "orthant-pairs")
        firsts = {"ksub": min(width, k + 1) * width, "orthant-pairs": min(width, k) * width,
                  "orthant": (3 * k + 1) * (k + 1) ** (m - 1) if m else 1}
        assert first[0].size == firsts[mode] and np.all(first[0] < min(width, labels))
        for pairs in (first, valid):
            assert len(pairs) == 6 and pairs[3].size == width + 1
            assert np.array_equal(np.lexsort((pairs[1], pairs[0])), np.arange(pairs[0].size))
        # per part of s on the h grouped high digits, the grouped parts of t
        # with a member at or above it, then all of them, each (start, part
        # of t, meet, join) in order of t: as many as the valid pairs of h
        # digits, and a high digit groups only where its lists fit a block
        reach, every = plan[9]
        assert every[1].size == per_digit[mode] ** h and reach[1].size <= every[1].size
        wide = labels + k * (mode != "orthant")
        assert h == max(d for d in range(n - m + 1) if per_digit[mode] ** d <= block
                        and wide ** (m + d) * labels ** (n - m - d) <= checks._GROUPED)
        for start, *parts in (reach, every):
            assert start.size == labels**h + 1 and start[-1] == parts[0].size
            for s in range(labels**h):
                assert np.all(np.diff(parts[0][start[s] : start[s + 1]]) > 0)
        # only row 0's first step may broadcast, and in "orthant" none does
        gathers = [step[-1] for step in plan[-1]]
        assert all(gathers[1:]) and (all(gathers) or mode != "orthant")
        for array in arrays + [*first, *valid, *reach, *every]:
            assert array.size <= block
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_threads_scanning_different_shapes_get_the_sequential_reports(self):
        # each user thread scans its own shape from cold plans, under a short
        # switch interval, sharing the plan caches and each with its own
        # block buffers
        tables = {shape: [seeded_table(kind, *shape, seed=3) for kind in KINDS]
                  for shape in [(5, 3), (4, 4)]}

        def reports(shape):
            return [json.dumps(SCANS[name](table).to_json()) for table in tables[shape]
                    for name in SCANS]

        expected = {shape: reports(shape) for shape in tables}
        got = {shape: [] for shape in tables}
        threads = [threading.Thread(target=lambda shape=shape: got[shape].extend(
                       reports(shape) for _ in range(3)))
                   for shape in tables]
        cold_plans()
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
        assert got == {shape: [expected[shape]] * 3 for shape in tables}

    @pytest.mark.parametrize("name", SCANS)
    @pytest.mark.parametrize("kind", ["holds", "random", "raised-last"])
    @pytest.mark.parametrize("n,k", [(4, 4), (5, 3), (5, 4), (6, 3)])
    def test_reports_do_not_depend_on_the_thread_count(self, n, k, kind, name):
        # the same scan from one calling thread and from two user threads at
        # once, each of those with fresh block buffers
        table = seeded_table(kind, n, k, seed=10 * n + k)
        one = json.dumps(SCANS[name](table).to_json())
        got = [[], []]
        threads = [threading.Thread(target=lambda out=out: out.append(
                       json.dumps(SCANS[name](table).to_json())))
                   for out in got]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[one], [one]]

    def test_threads_end_with_the_check(self, monkeypatch):
        # every scan runs on the caller's thread: none is started, and the
        # thread count after the check is the one before it
        def refused(self):
            raise AssertionError("a check started a thread")

        monkeypatch.setattr(threading.Thread, "start", refused)
        before = threading.active_count()
        for kind in KINDS:
            check_characterization(seeded_table(kind, 5, 3, seed=1))
        assert threading.active_count() == before

    def test_small_scan_after_a_large_one_reports_identically(self):
        small = [seeded_table(kind, 3, 3, seed=2) for kind in KINDS]

        def reports():
            return [json.dumps(SCANS[name](table).to_json()) for table in small
                    for name in SCANS]

        fresh = []  # from a new thread, whose buffers start empty
        thread = threading.Thread(target=lambda: fresh.extend(reports()))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and fresh
        # a full block of a holding (6, 3) scan grows this thread's buffers;
        # then poison them, so a read of anything not written shows
        scan_json("ksub", seeded_table("holds", 6, 3, seed=1))
        held = checks._buffers(0)
        plan = scan_plan(6, 3, "ksub")
        *_, q_step, _ = plan[-1][-1]  # high parts of t per block past row 0, every valid pair
        assert held[0].size >= q_step * plan[8][1][0].size > checks._BLOCK // 2
        for buffer in held[:3]:
            buffer.fill(np.nan)
        held[3].fill(True)
        assert reports() == fresh


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


#: The five checkers, each called as check(table, eps).
CHECKERS = {
    "ksub": check_k_submodular,
    "orthant": check_orthant_submodular,
    "orthant-pairs": check_orthant_pair_inequality,
    "characterization": check_characterization,
    "monotone:2": lambda table, eps: check_r_wise_monotone(table, 2, eps),
}


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("check", CHECKERS.values(), ids=CHECKERS.keys())
def test_unusable_eps_rejected(check, eps):
    # NaN or infinite slack would pass every inequality: under eps=nan the
    # ksub check reported `holds` on this violating table
    table = random_table(Dims(3, 3), seed=5)
    with pytest.raises(InputError, match="eps"):
        check(table, eps)


@pytest.mark.parametrize("value", [None, np.zeros(8), [0.0] * 8], ids=["None", "array", "list"])
@pytest.mark.parametrize("check", CHECKERS.values(), ids=CHECKERS.keys())
def test_non_table_input_rejected(check, value):
    # monotone and characterization read the dims before the guard, and
    # raised AttributeError
    with pytest.raises(InputError, match="checkers operate on tabulated functions"):
        check(value, 1e-9)


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


#: Recorded before the index layout moved behind core, again when the
#: orthant check became a scan of the pairs without a clash, and for (2, 2),
#: (3, 2) and (2, 6) when greedy values became the oracle's values of their
#: solutions (one-ulp moves of tree and trial values): a changed report,
#: float, label or call count on any of the 36 tables changes the digest.
AUDIT_DIGESTS = [
    (1, 1, "cc4024d3f7bd13ea62344a61e706689ee3064b089e5b30853519ce9f15ace43c"),
    (2, 2, "e5ac3962b17c13ace4a9c300c8303b48185db901b5c96ea748a6836b0cdc08ed"),
    (3, 2, "dfd47e37f973c118d6a78dba7c5612519324c0c8ac42f00d81640f0f40a6f6a4"),
    (3, 3, "d8c2564d30f4efc5cfa9cf79cc097f23fd659001d57299e0683aec85d4d84a26"),
    (4, 3, "2adc95bdb9884268a6479ef7de9929f6000fd251a0cd8663077d0798a53c53d3"),
    (5, 3, "838dbcf94abfa4b8bca4a8a1c4dfd93402c96b182f19e8c932ddaa419a415746"),
    (4, 4, "85a2d3aec45526dc0f390c8639690f55462d7c30ffab579159b2aebab438dfd1"),
    (2, 6, "32fce79ff15f066581dfa3f2524548df17516fde8fe2c82df9c3e162b88825fc"),
    (6, 2, "764760545ccaa467ff976b56573b822505af73d82fcef37acb559e66a5a2abfb"),
]


@pytest.mark.parametrize("n,k,digest", AUDIT_DIGESTS)
def test_audit_outputs_keep_their_recorded_digests(n, k, digest):
    assert audit_digest(n, k, range(12)) == digest


@pytest.mark.parametrize("n,k,digest", [
    entry for entry in AUDIT_DIGESTS if entry[:2] in {(3, 3), (4, 4), (6, 2)}
])
def test_digests_with_cold_then_warm_plans(n, k, digest):
    # the second pass builds no plan: every scan takes the kept ones
    cold_plans()
    assert audit_digest(n, k, range(12)) == digest
    misses = checks._scan_plan.cache_info().misses
    assert audit_digest(n, k, range(12)) == digest
    assert checks._scan_plan.cache_info().misses == misses
