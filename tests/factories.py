"""Instance generators shared across the test modules."""

import numpy as np

from ksubmax import (
    Dims,
    GraphInstance,
    TabularFunction,
    ValueOracle,
    embed_submodular,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    make_max_k_cut,
    random_ksubmodular,
    random_table,
    sum_combine,
)


def single_edge(directed=False):
    return GraphInstance(2, ((0, 1),), directed=directed)


def triangle():
    return GraphInstance(3, ((0, 1), (1, 2), (0, 2)))


def directed_path(n):
    return GraphInstance(n, tuple((e, e + 1) for e in range(n - 1)), directed=True)


def random_submodular_table(n, seed, cut_only=False, atoms=6):
    """Random nonnegative submodular set function (k=1 table) built as a
    weighted sum of single-edge cut terms and coverage terms.

    Cut-only sums vanish on the full ground set, which keeps the pair
    embedding nonnegative.
    """
    rng = np.random.default_rng(seed)
    masks = np.arange(2**n)
    member = (masks[:, None] >> np.arange(n)[None, :]) & 1
    values = np.zeros(2**n)
    for _ in range(atoms):
        weight = rng.random()
        if n >= 2 and (cut_only or rng.random() < 0.5):
            u, v = rng.choice(n, size=2, replace=False)
            values = values + weight * (member[:, u] != member[:, v])
        else:
            covered = int(rng.integers(1, 2**n))
            values = values + weight * ((masks & covered) != 0)
    return TabularFunction(Dims(n, 1), values, name=f"random_submodular_s{seed}")


def _eval_cases():
    """name -> builder of (oracle, [(sub-oracle, calls it takes per row)]):
    one oracle per zoo family, a table, and a plain ValueOracle with no
    batched form."""
    cut_graph = GraphInstance(4, ((0, 1), (1, 2), (2, 3), (0, 3)),
                              weights=(0.3, 1.7, 0.1, 2.9))
    dag = GraphInstance(4, ((0, 1), (1, 2), (3, 2), (0, 3)), directed=True,
                        weights=(0.3, 1.7, 0.1, 2.9))

    def nested_sum():
        layout, cut = make_layer_layout(dag, 3), make_max_k_cut(cut_graph, 3)
        table = random_table(Dims(4, 3), seed=3)
        inner = sum_combine([cut, table], weights=(0.25, 3.5))
        f = sum_combine([layout, inner], weights=(1.0, 0.7))
        return f, [(layout, 1), (inner, 1), (cut, 1), (table, 1)]

    def embedding():
        g = random_submodular_table(4, seed=1, cut_only=True)
        return embed_submodular(g), [(g, 2)]

    return {
        "max_k_cut": lambda: (make_max_k_cut(cut_graph, 3), []),
        "layer_layout": lambda: (make_layer_layout(dag, 4), []),
        "det_greedy_tight": lambda: (make_det_greedy_tight(4, 2), []),
        "coverage_tight": lambda: (make_coverage_tight(5), []),
        "indicator": lambda: (make_indicator(4, 2), []),
        "nested_sum": nested_sum,
        "embedding": embedding,
        "table": lambda: (random_ksubmodular(Dims(3, 3), atoms=6, seed=4), []),
        "fallback": lambda: (
            ValueOracle(Dims(3, 2), lambda x: 0.1 * x[0] + x[1] * x[2] / 3), []
        ),
    }


EVAL_CASES = _eval_cases()
