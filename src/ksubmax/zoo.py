"""Concrete k-set function families.

Graph objectives (max-k-cut, layered layout), the two-element instances on
which the greedy guarantees are met with equality, nonnegative combinations,
the embedding of set functions into the k=2 world, and seeded random
generators.  Every constructor returns a :class:`~ksubmax.core.ValueOracle`
with one form, batched over label columns that broadcast together, so a
full enumeration is evaluated on open grids and each term works on the
axes of the elements it reads: an untabulated ``f(x)`` evaluates it on
x's labels as scalars.  :func:`tabulate` materializes any oracle
into a :class:`TabularFunction` for exhaustive checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_STATES,
    Dims,
    InputError,
    OracleRangeError,
    ValueOracle,
    _power_exceeds,
    assignment_of,
    check_int,
)


class TabularFunction(ValueOracle):
    """Fully materialized k-set function: one value per assignment, stored
    in mixed-radix index order (element 0 least significant).

    This is the ground truth the checkers and brute-force oracles operate
    on.  Construction copies ``values``, validates shape, finiteness and
    nonnegativity, and makes the copy read-only; that one array is the
    table's kept vector, so every call, ``f(x)`` or batched, reads from it.
    """

    def __init__(self, dims: Dims, values, name: str = "table") -> None:
        values = np.array(values, dtype=float)
        fits = values.ndim == 1 and not _power_exceeds(dims.k + 1, dims.n, values.size)
        if not (fits and values.size == dims.num_assignments):
            raise InputError(
                f"values: need (k+1)^n = {dims.k + 1}^{dims.n} entries for "
                f"n={dims.n}, k={dims.k}, got shape {values.shape}"
            )
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
        if bad.size:
            raise OracleRangeError(
                f"values[{bad[0]}]: must be finite and >= 0, got {values[bad[0]]}"
            )
        values.flags.writeable = False
        self.values = values
        super().__init__(dims, None, name)  # no fn: the kept vector answers
        self._kept = values


def _weights(weights: Sequence[float], count: int, of: str) -> tuple:
    """Check a weight vector: one finite, nonnegative weight per item."""
    ws = tuple(float(w) for w in weights)
    if len(ws) != count:
        raise InputError(f"weights: {len(ws)} weights for {count} {of}")
    for i, w in enumerate(ws):
        if not 0.0 <= w < math.inf:
            raise InputError(f"weights[{i}]: must be finite and >= 0, got {w}")
    return ws


@dataclass(frozen=True)
class GraphInstance:
    """Edge list over vertices 0..n_vertices-1 with nonnegative weights."""

    n_vertices: int
    edges: tuple
    directed: bool = False
    weights: tuple | None = None

    def __post_init__(self) -> None:
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise InputError(
                    f"edges[{i}]: ({u},{v}) out of range "
                    f"for n_vertices={self.n_vertices}"
                )
            if u == v:
                raise InputError(f"edges[{i}]: self-loop ({u},{v}) not allowed")
        weights = (1.0,) * len(edges)
        if self.weights is not None:
            weights = _weights(self.weights, len(edges), "edges")
        object.__setattr__(self, "weights", weights)


def make_max_k_cut(graph: GraphInstance, k: int) -> ValueOracle:
    """Weighted max-k-cut objective: an edge counts when its endpoints carry
    different labels, including when exactly one endpoint is unassigned.

    On orthants this is exactly the k-cut value.  As a function of partial
    assignments it is submodular in every orthant but not pairwise monotone
    (assigning an endpoint can close an edge that was counted while open),
    so it is not k-submodular for k >= 2; the checkers report the
    counterexample.
    """
    if graph.directed:
        raise InputError("directed: max-k-cut expects an undirected graph")
    a, b = np.ogrid[: k + 1, : k + 1]  # an edge's labels, x_u down, x_v across
    return _edge_sum(graph, k, 1.0 * (a != b), f"max_{k}_cut")


def make_layer_layout(graph: GraphInstance, k: int) -> ValueOracle:
    """Layered layout objective on a directed graph.

    Per edge (u, v): 1 when both endpoints are assigned and u sits on a
    strictly lower layer than v; with one endpoint unassigned, the
    probability that a uniform random layer for it would make the edge
    forward, i.e. (k - x_u)/k or (x_v - 1)/k; 0 when both are unassigned.
    Submodular in every orthant and k-wise monotone, but not k-submodular
    for k >= 3.
    """
    if not graph.directed:
        raise InputError("directed: layer layout expects a directed graph")
    if k < 2:
        raise InputError(f"k: layer layout needs k >= 2, got {k}")

    a, b = np.ogrid[: k + 1, : k + 1]  # an edge's labels, x_u down, x_v across
    table = 1.0 * (a < b)  # both assigned
    table[1:, 0] = (k - a[1:, 0]) / k  # x_v unassigned
    table[0, 1:] = (b[0, 1:] - 1) / k  # x_u unassigned
    table[0, 0] = 0.0
    return _edge_sum(graph, k, table, f"layer_layout_{k}")


def _edge_sum(graph: GraphInstance, k: int, table: np.ndarray, name: str) -> ValueOracle:
    """The oracle x -> sum over edges (u, v) of w * table[x_u, x_v], the
    terms added in edge order from 0.0.  The one table serves every edge:
    each edge gathers its entries at its endpoints' columns, at most a
    (k+1) x (k+1) grid on an open grid, multiplies them by its weight and
    adds them onto the values by broadcasting."""
    dims = Dims(graph.n_vertices, k)
    table.flags.writeable = False
    terms = [(u, v, w) for (u, v), w in zip(graph.edges, graph.weights)]

    def batch(cols) -> np.ndarray:
        values = 0.0
        with np.errstate(over="ignore"):  # the oracle's own check refuses an inf
            for u, v, w in terms:
                values = values + w * table[cols[u], cols[v]]
        return values

    return ValueOracle(dims, None, name=name, batch=batch)


def make_det_greedy_tight(k: int, r: int) -> ValueOracle:
    """Two-element instance on which the deterministic greedy achieves
    exactly 1/(r+1) of the optimum.

    f(x_u, x_v) = 1/(r+1) when x_u is assigned, plus r/(r+1) when x_u is
    anything but label 1 and x_v is label 2.  Submodular in every orthant
    and r-wise monotone but not (r-1)-wise monotone.
    """
    if k < 2:
        raise InputError(f"k: need k >= 2, got {k}")
    check_int("r", r, 1)
    if r > k:
        raise InputError(f"r: must be in [1, k={k}], got {r}")
    dims = Dims(2, k)
    lo = 1.0 / (r + 1)
    hi = r / (r + 1)

    def batch(cols) -> np.ndarray:
        xu, xv = cols[0], cols[1]
        return np.where(xu != 0, lo, 0.0) + np.where((xu != 1) & (xv == 2), hi, 0.0)

    return ValueOracle(dims, None, name=f"det_greedy_tight_k{k}_r{r}", batch=batch)


def coverage_gamma(k: int) -> float:
    """Weight of the shared element in the two-element coverage instance."""
    if k < 2:
        raise InputError(f"k: need k >= 2, got {k}")
    return 1.0 / math.sqrt(k - 1)


def make_coverage_tight(k: int) -> ValueOracle:
    """Weighted set-coverage instance on two elements.

    Element u picks a set (label 1 covers item a of weight 1, every other
    label covers item b of weight gamma = 1/sqrt(k-1)); element v always
    covers item b.  All marginals are nonnegative, so the function is r-wise
    monotone for every r, yet the randomized greedy's expected ratio on it
    drops below 1/3 once k >= 21.
    """
    gamma = coverage_gamma(k)
    dims = Dims(2, k)

    def batch(cols) -> np.ndarray:
        xu, xv = cols[0], cols[1]
        return np.where(xu == 1, 1.0, 0.0) + np.where((xu >= 2) | (xv >= 1), gamma, 0.0)

    return ValueOracle(dims, None, name=f"coverage_tight_k{k}", batch=batch)


def make_indicator(k: int, target_label: int) -> ValueOracle:
    """Single-element function worth 1 exactly when the element carries the
    target label.  A uniform random orthant hits it with probability 1/k."""
    if not 1 <= target_label <= k:
        raise InputError(f"target: label {target_label} out of range [1, k={k}]")
    dims = Dims(1, k)

    def batch(cols) -> np.ndarray:
        return np.where(cols[0] == target_label, 1.0, 0.0)

    return ValueOracle(dims, None, name=f"indicator_k{k}_t{target_label}", batch=batch)


def sum_combine(
    fs: Sequence[ValueOracle], weights: Sequence[float] | None = None
) -> ValueOracle:
    """Pointwise nonnegative combination of oracles over the same (n, k),
    each term evaluated on the sum's own label columns; a non-finite term
    or an overflowing sum is refused by its own check."""
    if not fs:
        raise InputError("terms: need at least one oracle")
    ws = (1.0,) * len(fs) if weights is None else _weights(weights, len(fs), "terms")
    dims = fs[0].dims
    for i, f in enumerate(fs):
        if f.dims != dims:
            raise InputError(
                f"terms[{i}]: dims {f.dims} differ from {dims} (need equal n and k)"
            )
    terms = list(zip(fs, ws))

    def batch(cols) -> np.ndarray:
        values = 0.0
        with np.errstate(over="ignore"):  # the sum's own check refuses an inf
            for f, w in terms:
                values = values + w * f._unchecked_cols(cols)
        return values

    return ValueOracle(dims, None, name="sum", batch=batch)


def embed_submodular(g: ValueOracle) -> ValueOracle:
    """Lift a set-function oracle g (k=1) to the pair world (k=2): the
    assignment encodes a disjoint pair (S, T) via labels 1 and 2, and the
    value is g(S) + g(U \\ T) - g(U).

    The formula is implemented verbatim; for some nonnegative submodular g
    it goes negative, which surfaces as an :class:`OracleRangeError` at
    tabulation or check time rather than being clamped here.  g(U) is
    evaluated once, here; each evaluation then makes exactly two further
    g-calls, unchecked: the embedding's own check covers them.  g reads
    columns of the same shapes as the embedding's, 0/1 by element.
    """
    if g.dims.k != 1:
        raise InputError(
            f"base.k: embedding needs a set-function oracle (k=1), got k={g.dims.k}"
        )
    n = g.dims.n
    ground_value = g._unchecked((1,) * n)

    def batch(cols) -> np.ndarray:
        first = [np.equal(col, 1).astype(np.int64) for col in cols]
        co_second = [np.not_equal(col, 2).astype(np.int64) for col in cols]
        with np.errstate(over="ignore"):  # the embedding's own check refuses an inf
            total = g._unchecked_cols(first) + g._unchecked_cols(co_second)
            return total - ground_value

    return ValueOracle(Dims(n, 2), None, name=f"embed({g.name})", batch=batch)


def random_ksubmodular(
    dims: Dims,
    atoms: int,
    seed: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> TabularFunction:
    """Seeded random k-submodular table: a nonnegative combination of
    half-weight cut terms and single-element indicator terms.

    A half-weight cut term scores an edge 1 when both endpoints are assigned
    different labels and 1/2 when exactly one endpoint is assigned; unlike
    the plain cut indicator, that extension is k-submodular for every k
    (checkable exhaustively), and k-submodularity is closed under lifting
    to more elements and under nonnegative combination, so the output is
    k-submodular by construction rather than by rejection sampling.  Each
    atom, its (k+1) x (k+1) cut table or (k+1) indicator row times its
    weight, is added in place onto the value cube by broadcasting, so
    memory stays one value vector.
    """
    check_int("atoms", atoms, 0)
    check_int("seed", seed, 0)
    dims.check_cap("random table", max_states)
    n, k = dims.n, dims.k
    rng = np.random.default_rng(seed)
    values = np.zeros(dims.num_assignments)
    cube = values.reshape((k + 1,) * n)  # element e on axis n-1-e
    a, b = np.arange(k + 1)[:, None], np.arange(k + 1)
    # an edge's score by its endpoints' labels, symmetric, so either
    # endpoint may take either axis
    edge = 1.0 * ((a != b) & (a != 0) & (b != 0)) + 0.5 * ((a == 0) ^ (b == 0))
    for _ in range(atoms):
        weight = rng.random()
        shape = [1] * n
        if n >= 2 and rng.random() < 0.5:
            u, v = rng.choice(n, size=2, replace=False).tolist()
            term = weight * edge
            shape[n - 1 - u] = shape[n - 1 - v] = k + 1
        else:
            e = int(rng.integers(n))
            p = int(rng.integers(1, k + 1))
            term = weight * (b == p)
            shape[n - 1 - e] = k + 1
        cube += term.reshape(shape)
    return TabularFunction(dims, values, name=f"random_ksub_s{seed}")


def random_table(
    dims: Dims,
    seed: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> TabularFunction:
    """Uniform random nonnegative table, with no structure imposed.  Almost
    surely not k-submodular; useful as checker fodder."""
    check_int("seed", seed, 0)
    dims.check_cap("random table", max_states)
    size = dims.num_assignments
    rng = np.random.default_rng(seed)
    return TabularFunction(dims, rng.random(size), name=f"random_table_s{seed}")


def tabulate(f: ValueOracle, max_states: int = DEFAULT_MAX_STATES) -> TabularFunction:
    """Materialize an oracle into a table by evaluating every assignment in
    index order, in blocks given as open grids of label columns
    (:meth:`~ksubmax.core.ValueOracle.eval_all`), with no division and no
    label row.  Idempotent: tables pass through unchanged with no calls.
    The oracle keeps the table's read-only values, from which every later
    call on it reads, ``f(x)`` and the sampler's label columns included.
    Raises :class:`OracleRangeError` naming the first non-finite value (the
    oracle's own check), else the first negative one; a refused
    enumeration keeps nothing."""
    if isinstance(f, TabularFunction):
        return f
    f.dims.check_cap("tabulation", max_states)
    values = f.eval_all()
    negative = np.flatnonzero(values < 0)
    if negative.size:
        i = int(negative[0])
        x, v = assignment_of(i, f.dims), float(values[i])
        raise OracleRangeError(f"oracle {f.name} is negative at {x}: {v}")
    table = TabularFunction(f.dims, values, name=f.name)
    f._kept = table.values
    return table
