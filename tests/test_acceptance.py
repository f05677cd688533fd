"""Acceptance suite: every published guarantee and tight example, verified
end to end at desk scale with exhaustive optima and exact expectations.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
even when everything passes).
"""

import functools
import itertools

import numpy as np

from ksubmax import (
    Dims,
    TabularFunction,
    OracleRangeError,
    brute_force_max,
    check_characterization,
    check_k_submodular,
    coverage_gamma,
    det_greedy_guarantee,
    deterministic_greedy,
    embed_submodular,
    empirical_expectation,
    exact_expectation_random_orthant,
    exact_expectation_randomized_greedy,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    rand_greedy_guarantee,
    rand_greedy_guarantee_ksub,
    random_ksubmodular,
    random_orthant_guarantee,
    random_table,
    randomized_greedy,
    tabulate,
)

from factories import directed_path, random_submodular_table, single_edge

EPS = 1e-9
EXACT = 1e-12


def criterion(num):
    """Print one PASS/FAIL line per criterion, whatever the outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException as exc:
                print(f"[criterion {num:2d}] FAIL {exc}")
                raise
            print(f"[criterion {num:2d}] PASS {detail}")

        return run

    return wrap


@criterion(1)
def test_criterion_01_characterization_agreement():
    ks = (2, 3, 4)
    checked = 0
    passing = []
    for i in range(500):
        table = random_ksubmodular(Dims(2, ks[i % 3]), atoms=5, seed=i)
        assert check_characterization(table, eps=EPS).holds, table.name
        passing.append(table)
        checked += 1
    for i in range(500):
        table = random_table(Dims(2, ks[i % 3]), seed=1000 + i)
        assert check_characterization(table, eps=EPS).holds, table.name
        checked += 1
    flipped = 0
    for i in range(200):
        base = passing[i]
        rng = np.random.default_rng(10_000 + i)
        idx = int(rng.integers(1, base.values.size - 1))
        values = base.values.copy()
        values[idx] += 0.5
        mutated = TabularFunction(base.dims, values)
        assert check_characterization(mutated, eps=EPS).holds, f"mutation {i}"
        if not check_k_submodular(mutated, eps=EPS).holds:
            flipped += 1
        checked += 1
    assert checked == 1200
    return (
        f"characterization agreed on {checked} instances "
        f"({flipped}/200 mutations broke k-submodularity, sides stayed in step)"
    )


@criterion(2)
def test_criterion_02_naive_random_k2_tight():
    f = make_layer_layout(single_edge(directed=True), 2)
    expectation = exact_expectation_random_orthant(f)
    opt = brute_force_max(f).value
    assert abs(opt - 1.0) <= EXACT
    assert abs(expectation - opt / 4) <= EXACT
    return f"uniform orthant expectation {expectation} = OPT/4 with OPT={opt}"


@criterion(3)
def test_criterion_03_naive_random_k3_and_up_tight():
    worst = 0.0
    for k in range(3, 9):
        f = make_indicator(k, 1)
        expectation = exact_expectation_random_orthant(f)
        opt = brute_force_max(f).value
        worst = max(worst, abs(expectation - opt / k))
    assert worst <= EXACT
    return f"indicator expectation = OPT/k for k=3..8 (max deviation {worst:.2e})"


@criterion(4)
def test_criterion_04_naive_random_bounds():
    ks = (2, 3, 4)
    ns = (2, 3)
    margins = []
    for i in range(100):
        k = ks[i % 3]
        table = random_ksubmodular(Dims(ns[i % 2], k), atoms=5, seed=40_000 + i)
        opt = brute_force_max(table).value
        expectation = exact_expectation_random_orthant(table)
        bound = random_orthant_guarantee(k)
        assert expectation >= bound * opt - EPS, table.name
        margins.append(expectation - bound * opt)
    assert len(margins) == 100
    return (
        f"uniform-orthant expectation >= guarantee * OPT on 100 tables "
        f"(worst slack {min(margins):.3g})"
    )


@criterion(5)
def test_criterion_05_det_greedy_tightness():
    rows = 0
    for k in range(2, 7):
        for r in range(1, k + 1):
            f = make_det_greedy_tight(k, r)
            greedy = deterministic_greedy(f, order=(0, 1))
            opt = brute_force_max(f).value
            assert abs(greedy.value - 1 / (r + 1)) <= EXACT, (k, r)
            assert abs(opt - 1.0) <= EXACT, (k, r)
            assert abs(greedy.value / opt - det_greedy_guarantee(r)) <= EXACT, (k, r)
            rows += 1
    assert rows == 20
    return (
        "deterministic greedy achieves exactly 1/(r+1) of OPT on every "
        "tight instance, k=2..6, r=1..k"
    )


@criterion(6)
def test_criterion_06_det_greedy_bounds():
    ks = (2, 3, 4)
    ns = (2, 3, 4)
    runs = 0
    for i in range(100):
        k = ks[i % 3]
        n = ns[(i // 3) % 3]
        table = random_ksubmodular(Dims(n, k), atoms=5, seed=60_000 + i)
        opt = brute_force_max(table).value
        orders = (
            list(itertools.permutations(range(n))) if n <= 3 else [tuple(range(n))]
        )
        for order in orders:
            value = deterministic_greedy(table, order=order).value
            assert 3 * value >= opt - EPS, (table.name, order)
            runs += 1
    layout_runs = 0
    for k in (2, 3, 4):
        for graph in (single_edge(directed=True), directed_path(3)):
            f = make_layer_layout(graph, k)
            opt = brute_force_max(f).value
            for order in itertools.permutations(range(f.dims.n)):
                value = deterministic_greedy(f, order=order).value
                assert (1 + k) * value >= opt - EPS, (f.name, order)
                layout_runs += 1
    assert runs >= 100 and layout_runs == 24
    return (
        f"3*greedy >= OPT on {runs} random-table runs over all orders; "
        f"(1+k)*greedy >= OPT on {layout_runs} layer-layout runs with r=k"
    )


@criterion(7)
def test_criterion_07_randomized_greedy_coverage():
    worst = 0.0
    ratios = {}
    for k in range(2, 26):
        f = make_coverage_tight(k)
        gamma = coverage_gamma(k)
        expectation = exact_expectation_randomized_greedy(f)
        formula = (2 + gamma) / (1 + (k - 1) * gamma)
        worst = max(worst, abs(expectation - formula))
        ratios[k] = expectation / brute_force_max(f).value
    assert worst <= EXACT
    f5 = make_coverage_tight(5)
    exact5 = exact_expectation_randomized_greedy(f5)
    mean, stderr = empirical_expectation(f5, "greedy_rand", trials=100_000, seed=77)
    assert stderr > 0
    assert abs(mean - exact5) <= 3 * stderr
    assert all(ratios[k] < 1 / 3 for k in range(21, 26))
    assert ratios[20] > 1 / 3
    return (
        f"coverage expectation matches the closed form for k=2..25 "
        f"(max dev {worst:.2e}); 1e5-trial mean within "
        f"{abs(mean - exact5) / stderr:.2f} stderr; ratio drops below 1/3 "
        f"exactly at k=21"
    )


@criterion(8)
def test_criterion_08_randomized_greedy_bounds():
    ks = (2, 3, 4)
    ns = (2, 3)
    slack_general = []
    slack_ksub = []
    for i in range(100):
        k = ks[i % 3]
        table = random_ksubmodular(Dims(ns[i % 2], k), atoms=5, seed=80_000 + i)
        opt = brute_force_max(table).value
        expectation = exact_expectation_randomized_greedy(table)
        assert expectation >= rand_greedy_guarantee(k) * opt - EPS, table.name
        assert expectation >= rand_greedy_guarantee_ksub(k) * opt - EPS, table.name
        slack_general.append(expectation - rand_greedy_guarantee(k) * opt)
        slack_ksub.append(expectation - rand_greedy_guarantee_ksub(k) * opt)
    assert len(slack_ksub) == 100
    return (
        f"randomized-greedy expectation clears both guarantees on 100 tables "
        f"(worst slacks {min(slack_general):.3g} general, "
        f"{min(slack_ksub):.3g} k-submodular)"
    )


@criterion(9)
def test_criterion_09_embedding_correspondence():
    checked_ksub = 0
    for i in range(50):
        n = (2, 3, 4)[i % 3]
        g = random_submodular_table(n, seed=90_000 + i, cut_only=(i < 25))
        f = embed_submodular(g)
        best = brute_force_max(f)
        max_g = brute_force_max(g).value
        first_half = tuple(1 if v == 1 else 0 for v in best.solution)
        co_second_half = tuple(0 if v == 2 else 1 for v in best.solution)
        assert abs(g(first_half) - max_g) <= EPS, g.name
        assert abs(g(co_second_half) - max_g) <= EPS, g.name
        try:
            table = tabulate(f)
        except OracleRangeError:
            continue
        assert check_k_submodular(table, eps=EPS).holds, g.name
        checked_ksub += 1
    assert checked_ksub >= 25
    return (
        f"both halves of every embedded maximizer maximize the base function "
        f"(50 instances); {checked_ksub} nonnegative embeddings verified "
        f"bisubmodular"
    )


@criterion(10)
def test_criterion_10_oracle_complexity():
    instances = []
    for k in range(2, 7):
        for r in range(1, k + 1):
            instances.append(make_det_greedy_tight(k, r))
        instances.append(make_coverage_tight(k))
        instances.append(make_layer_layout(single_edge(directed=True), k))
    for i in range(10):
        instances.append(random_ksubmodular(Dims(3, 2 + i % 3), atoms=5, seed=i))
    worst_ratio = 0.0
    for f in instances:
        n, k = f.dims.n, f.dims.k
        budget = 2 * k * n
        before = f.calls
        det = deterministic_greedy(f)
        det_calls = f.calls - before
        before = f.calls
        rand = randomized_greedy(f, seed=5)
        rand_calls = f.calls - before
        assert det.evals == det_calls <= budget, f.name
        assert rand.evals == rand_calls <= budget, f.name
        worst_ratio = max(worst_ratio, det_calls / budget, rand_calls / budget)
    assert worst_ratio <= 1.0
    return (
        f"both greedy algorithms stay within 2kn evaluations on "
        f"{len(instances)} instances (worst usage {worst_ratio:.2f} of budget)"
    )
