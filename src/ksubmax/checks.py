"""Exhaustive, counterexample-producing verifiers for k-set function
structure.

Each checker enumerates every relevant assignment pair (or marginal
context) of a tabulated function in a fixed order and returns a
:class:`CheckReport`.  ``holds=False`` always comes with the first
counterexample in enumeration order together with both sides of the
violated inequality, so the violation can be reproduced independently.
Inequalities are tested with one-sided slack: ``A >= B`` holds when
``A >= B - eps``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_MAX_PAIRS,
    EPS,
    Dims,
    InputError,
    OracleRangeError,
    PreconditionError,
    ValueOracle,
    assignment_of,
    is_orthant,
    restrict,
)
from .zoo import TabularFunction, digit_matrix


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive property check."""

    property: str
    holds: bool
    counterexample: dict | None
    evals_used: int

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "counterexample": self.counterexample,
            "evals": self.evals_used,
        }


def _guard(table: TabularFunction, max_pairs: int | None) -> None:
    """Refuse anything but a nonnegative table, and (for the checkers that
    scan assignment pairs) a table with more than ``max_pairs`` pairs."""
    if not isinstance(table, TabularFunction):
        raise InputError("checkers operate on tabulated functions")
    size = table.values.size
    if max_pairs is not None and size * size > max_pairs:
        raise InputError(
            f"{size * size} assignment pairs exceed the cap of {max_pairs}"
        )
    if size and float(table.values.min()) < 0.0:
        bad = int(np.argmin(table.values))
        raise OracleRangeError(f"negative table entry at index {bad}")


@lru_cache(maxsize=32)
def _meet_join_index_tables(n: int, k: int) -> tuple:
    """Index tables M, J with M[i, j] = index(min0(x_i, x_j)) and likewise
    J for max0, over all assignment pairs of the given dimensions."""
    digits = digit_matrix(n, k)
    pows = (k + 1) ** np.arange(n, dtype=np.int64)
    size = digits.shape[0]
    meet = np.zeros((size, size), dtype=np.int64)
    join = np.zeros((size, size), dtype=np.int64)
    for e in range(n):
        a = digits[:, e][:, None]
        b = digits[:, e][None, :]
        clash = (a != b) & (a != 0) & (b != 0)
        meet += np.where(clash, 0, np.minimum(a, b)) * pows[e]
        join += np.where(clash, 0, np.maximum(a, b)) * pows[e]
    meet.setflags(write=False)
    join.setflags(write=False)
    return meet, join


@lru_cache(maxsize=16)
def _subset_tables(n: int) -> tuple:
    """Membership matrix (mask -> element bits) plus intersection and union
    tables over all 2^n subset-mask pairs."""
    masks = np.arange(2**n, dtype=np.int64)
    inter = masks[:, None] & masks[None, :]
    union = masks[:, None] | masks[None, :]
    member = (masks[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    for arr in (inter, union, member):
        arr.setflags(write=False)
    return member, inter, union


@lru_cache(maxsize=32)
def _orthant_rows(n: int, k: int) -> np.ndarray:
    digits = digit_matrix(n, k)
    rows = np.flatnonzero((digits != 0).all(axis=1))
    rows.setflags(write=False)
    return rows


def check_k_submodular(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Verify f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t)) over all pairs.

    Pairs are enumerated lexicographically by (index(s), index(t)); the
    smallest violating pair is reported.
    """
    _guard(table, max_pairs)
    dims = table.dims
    values = table.values
    meet, join = _meet_join_index_tables(dims.n, dims.k)
    lhs = values[:, None] + values[None, :]
    rhs = values[meet] + values[join]
    bad = lhs < rhs - eps
    evals = 4 * values.size * values.size
    if not bad.any():
        return CheckReport("k_submodular", True, None, evals)
    flat = int(np.argmax(bad))
    i, j = divmod(flat, values.size)
    counterexample = {
        "inequality": "f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t))",
        "s": list(assignment_of(i, dims)),
        "t": list(assignment_of(j, dims)),
        "lhs": float(lhs[i, j]),
        "rhs": float(rhs[i, j]),
    }
    return CheckReport("k_submodular", False, counterexample, evals)


def check_orthant_submodular(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Verify classical submodularity of the set function induced by every
    orthant: over each orthant o and subset pair (A, B),
    f(o|A) + f(o|B) >= f(o|A&B) + f(o|A|B).

    Orthants are visited in increasing index order, subset-mask pairs
    lexicographically within each orthant.
    """
    _guard(table, max_pairs)
    dims = table.dims
    values = table.values
    digits = digit_matrix(dims.n, dims.k)
    pows = (dims.k + 1) ** np.arange(dims.n, dtype=np.int64)
    member, inter, union = _subset_tables(dims.n)
    evals = 0
    for row in _orthant_rows(dims.n, dims.k):
        sub_index = member @ (digits[row] * pows)
        vals = values[sub_index]
        lhs = vals[:, None] + vals[None, :]
        rhs = vals[inter] + vals[union]
        bad = lhs < rhs - eps
        evals += 4 * lhs.size
        if bad.any():
            flat = int(np.argmax(bad))
            a, b = divmod(flat, vals.size)
            orthant = assignment_of(int(row), dims)
            counterexample = {
                "inequality": "f(a) + f(b) >= f(min0(a,b)) + f(max0(a,b))"
                " within one orthant",
                "orthant": list(orthant),
                "s": list(restrict(orthant, _mask_elements(a, dims.n))),
                "t": list(restrict(orthant, _mask_elements(b, dims.n))),
                "lhs": float(lhs[a, b]),
                "rhs": float(rhs[a, b]),
            }
            return CheckReport("orthant_submodular", False, counterexample, evals)
    return CheckReport("orthant_submodular", True, None, evals)


def _mask_elements(mask: int, n: int) -> tuple:
    return tuple(e for e in range(n) if mask >> e & 1)


def induced_set_function(f: ValueOracle, x) -> ValueOracle:
    """Set function h(S) = f(x restricted to S) for an orthant x, exposed as
    a k=1 oracle whose assignments are membership vectors."""
    if not is_orthant(x):
        raise PreconditionError(f"{tuple(x)} is not an orthant")
    if len(x) != f.dims.n:
        raise InputError(f"orthant has length {len(x)}, expected n={f.dims.n}")
    frozen = tuple(x)

    def fn(y: tuple) -> float:
        return f(tuple(v if keep else 0 for v, keep in zip(frozen, y)))

    return ValueOracle(Dims(f.dims.n, 1), fn, name=f"induced({f.name})")


def check_r_wise_monotone(
    table: TabularFunction,
    r: int,
    eps: float = EPS,
) -> CheckReport:
    """Verify that every sum of r distinct-label marginals at an unassigned
    element is nonnegative.

    Enumeration order: element index, then base assignment index, then
    label sets in lexicographic order.
    """
    if not 1 <= r <= table.dims.k:
        raise InputError(f"r must be in [1, k={table.dims.k}], got {r}")
    _guard(table, None)
    dims = table.dims
    values = table.values
    digits = digit_matrix(dims.n, dims.k)
    combos = list(itertools.combinations(range(1, dims.k + 1), r))
    evals = 0
    for e in range(dims.n):
        rows = np.flatnonzero(digits[:, e] == 0)
        step = (dims.k + 1) ** e
        base = values[rows]
        margs = np.stack(
            [values[rows + i * step] - base for i in range(1, dims.k + 1)]
        )
        evals += (dims.k + 1) * rows.size
        best = None  # (row position, combo position)
        for ci, combo in enumerate(combos):
            sums = margs[[i - 1 for i in combo]].sum(axis=0)
            bad = sums < -eps
            if bad.any():
                pos = int(np.argmax(bad))
                if best is None or (pos, ci) < best:
                    best = (pos, ci)
        if best is not None:
            pos, ci = best
            combo = combos[ci]
            lhs = float(margs[[i - 1 for i in combo], pos].sum())
            counterexample = {
                "inequality": "sum of marginals over the label set >= 0",
                "s": list(assignment_of(int(rows[pos]), dims)),
                "element": e,
                "labels": list(combo),
                "lhs": lhs,
                "rhs": 0.0,
            }
            return CheckReport(f"{r}_wise_monotone", False, counterexample, evals)
    return CheckReport(f"{r}_wise_monotone", True, None, evals)


def check_characterization(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Cross-validate the three checkers against the characterization of
    k-submodularity: a nonnegative k-set function (k >= 2) is k-submodular
    exactly when it is submodular in every orthant and pairwise monotone.

    ``holds`` means the two sides of that equivalence agree on this table
    (it says nothing about whether the function itself is k-submodular).
    Disagreement indicates an implementation bug in one of the checkers,
    never a mathematical finding, and is reported with both verdicts and
    the witness from whichever side found a violation.
    """
    if table.dims.k < 2:
        raise InputError("characterization check needs k >= 2")
    ksub = check_k_submodular(table, eps, max_pairs)
    orthant = check_orthant_submodular(table, eps, max_pairs)
    pairwise = check_r_wise_monotone(table, 2, eps)
    right = orthant.holds and pairwise.holds
    evals = ksub.evals_used + orthant.evals_used + pairwise.evals_used
    if ksub.holds == right:
        return CheckReport("characterization", True, None, evals)
    counterexample = {
        "k_submodular_holds": ksub.holds,
        "orthant_submodular_holds": orthant.holds,
        "pairwise_monotone_holds": pairwise.holds,
        "witness": ksub.counterexample
        or orthant.counterexample
        or pairwise.counterexample,
    }
    return CheckReport("characterization", False, counterexample, evals)


def check_orthant_pair_inequality(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Verify f(s) + f(t) >= 2 f(id0(s,t)) over all orthant pairs.

    A consequence of k-submodularity (for orthants min0, max0 and id0
    coincide); vacuous for functions that are not k-submodular, which may
    fail it.
    """
    _guard(table, max_pairs)
    dims = table.dims
    values = table.values
    rows = _orthant_rows(dims.n, dims.k)
    digits = digit_matrix(dims.n, dims.k)[rows]
    pows = (dims.k + 1) ** np.arange(dims.n, dtype=np.int64)
    agree = np.zeros((rows.size, rows.size), dtype=np.int64)
    for e in range(dims.n):
        a = digits[:, e][:, None]
        b = digits[:, e][None, :]
        agree += np.where(a == b, a, 0) * pows[e]
    orth_vals = values[rows]
    lhs = orth_vals[:, None] + orth_vals[None, :]
    rhs = 2.0 * values[agree]
    bad = lhs < rhs - eps
    evals = 3 * rows.size * rows.size
    if not bad.any():
        return CheckReport("orthant_pair_inequality", True, None, evals)
    flat = int(np.argmax(bad))
    i, j = divmod(flat, rows.size)
    counterexample = {
        "inequality": "f(s) + f(t) >= 2 f(id0(s,t))",
        "s": list(assignment_of(int(rows[i]), dims)),
        "t": list(assignment_of(int(rows[j]), dims)),
        "lhs": float(lhs[i, j]),
        "rhs": float(rhs[i, j]),
    }
    return CheckReport("orthant_pair_inequality", False, counterexample, evals)
