"""Exhaustive, counterexample-producing verifiers for k-set function
structure.

Each checker examines every relevant inequality of a tabulated function in
a fixed order and returns a :class:`CheckReport`.  ``holds=False`` always
comes with the first counterexample in that order together with both sides
of the violated inequality, so the violation can be reproduced
independently.  Inequalities are tested with one-sided slack: ``A >= B``
holds when ``A >= B - eps``.

The pair checkers scan assignment pairs in lexicographic order of
(index(s), index(t)) in row blocks, far below size^2 memory; the orthant
checker scans subset pairs orthant by orthant in blocks, and the r-wise
checker sweeps marginals, one sort per base assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    check_eps,
    is_orthant,
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


def _guard(table: TabularFunction, eps: float) -> Dims:
    """Refuse anything but a nonnegative table and a finite eps >= 0;
    return the table's dims, so a pair checker can cap the pairs it scans."""
    if not isinstance(table, TabularFunction):
        raise InputError("checkers operate on tabulated functions")
    check_eps(eps)
    if table.values.size and float(table.values.min()) < 0.0:
        bad = int(np.argmin(table.values))
        raise OracleRangeError(f"negative table entry at index {bad}")
    return table.dims


def _index(labels: np.ndarray, k: int) -> np.ndarray:
    """Mixed-radix indices of label arrays, elements along the last axis."""
    return labels @ ((k + 1) ** np.arange(labels.shape[-1], dtype=np.int64))


def _meet_join(a: np.ndarray, b: np.ndarray, k: int) -> tuple:
    """Indices of min0(a, b) and max0(a, b) for label arrays broadcast
    against each other, elements along the last axis."""
    clash = (a != b) & (a != 0) & (b != 0)
    meet = np.where(clash, 0, np.minimum(a, b))
    join = np.where(clash, 0, np.maximum(a, b))
    return _index(meet, k), _index(join, k)


def _pair_scan(
    table: TabularFunction, prop: str, inequality: str, orthants: bool,
    eps: float, evals: int,
) -> CheckReport:
    """Report the first pair (s, t), in lexicographic order of (index(s),
    index(t)), with f(s) + f(t) < f(min0(s,t)) + f(max0(s,t)) - eps, over
    all assignments or the orthants only (where min0 = max0 = id0).

    Both sides are symmetric in (s, t), so the first violating pair has
    index(s) <= index(t) and only that triangle is scanned.  An index is
    hi * L + lo with L = (k+1)^(n//2); each block of rows sharing hi takes
    meets and joins from its high parts and a low-half table of L^2 entries.
    """
    n, k = table.dims.n, table.dims.k
    values = table.values
    span = (k + 1) ** (n // 2)
    lo, hi = digit_matrix(n // 2, k), digit_matrix(n - n // 2, k)
    if orthants:
        lo, hi = lo[(lo != 0).all(axis=1)], hi[(hi != 0).all(axis=1)]
    lo_meet, lo_join = _meet_join(lo[:, None], lo[None, :], k)
    rows = _index(hi, k)[:, None] * span + _index(lo, k)[None, :]
    row_values, grid = values[rows], values.reshape(-1, span)
    upper = np.triu(np.ones(lo_meet.shape, dtype=bool))
    for p in range(hi.shape[0]):
        hi_meet, hi_join = _meet_join(hi[p], hi[p:], k)
        # axes: high part of t, low part of s, low part of t
        lhs = row_values[p][None, :, None] + row_values[p:][:, None, :]
        rhs = grid[hi_meet].take(lo_meet, 1) + grid[hi_join].take(lo_join, 1)
        bad = lhs < rhs - eps
        bad[0] &= upper
        if bad.any():
            bad = bad.transpose(1, 0, 2)
            a, q, b = np.unravel_index(int(np.argmax(bad)), bad.shape)
            s, t = rows[p, a], rows[p + q, b]
            counterexample = {
                "inequality": inequality,
                "s": list(assignment_of(int(s), table.dims)),
                "t": list(assignment_of(int(t), table.dims)),
                "lhs": float(lhs[q, a, b]),
                "rhs": float(rhs[q, a, b]),
            }
            return CheckReport(prop, False, counterexample, evals)
    return CheckReport(prop, True, None, evals)


def check_k_submodular(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Verify f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t)) over all pairs.

    Pairs are enumerated lexicographically by (index(s), index(t)); the
    smallest violating pair is reported.
    """
    dims = _guard(table, eps)
    dims.check_cap("k-submodularity check", max_pairs, (dims.k + 1) ** 2, "pairs")
    inequality = "f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t))"
    evals = 4 * table.values.size * table.values.size
    return _pair_scan(table, "k_submodular", inequality, False, eps, evals)


_BLOCK = 1 << 16  # subset pairs per step of the orthant scan


def check_orthant_submodular(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Verify classical submodularity of the set function induced by every
    orthant: over each orthant o and subset pair (A, B),
    f(o|A) + f(o|B) >= f(o|A&B) + f(o|A|B).

    Orthants are visited in increasing index order, subset-mask pairs
    lexicographically within each orthant.  Both sides are symmetric in
    (A, B) and equal when A and B are nested, so the first violating pair
    has A < B incomparable, and only such pairs are scanned: in steps of
    about _BLOCK, several whole orthants or rows A of one orthant.
    """
    dims = _guard(table, eps)
    # k^n orthants times 4^n subset-mask pairs (A, B)
    dims.check_cap("orthant check", max_pairs, 4 * dims.k, "pairs")
    n, k = dims.n, dims.k
    masks = np.arange(2**n, dtype=np.int64)
    member = (masks[:, None, None] >> np.arange(n)) & 1
    orthants = digit_matrix(n, k - 1) + 1  # in index order
    evals = 4 * masks.size**2  # per orthant visited
    rows = min(masks.size, max(1, _BLOCK // masks.size))
    per = max(1, _BLOCK // masks.size**2)  # 1 unless rows covers every A
    for o in range(0, len(orthants), per):
        # axes: subset, orthant (innermost, so gathers copy whole rows)
        vals = table.values[_index(member * orthants[o : o + per], k)]
        for a in range(0, masks.size, rows):
            sets = masks[a : a + rows, None]
            apart = (sets & masks != sets) & (sets & masks != masks) & (masks > sets)
            first, second = np.nonzero(apart)
            first += a
            lhs = vals[first] + vals[second]
            rhs = vals[first & second] + vals[first | second]
            bad = (lhs < rhs - eps).T
            if bad.any():
                q, p = np.unravel_index(int(np.argmax(bad)), bad.shape)
                orthant = orthants[o + q]
                counterexample = {
                    "inequality": "f(a) + f(b) >= f(min0(a,b)) + f(max0(a,b))"
                    " within one orthant",
                    "orthant": orthant.tolist(),
                    "s": (orthant * member[first[p], 0]).tolist(),
                    "t": (orthant * member[second[p], 0]).tolist(),
                    "lhs": float(lhs[p, q]),
                    "rhs": float(rhs[p, q]),
                }
                evals *= o + int(q) + 1
                return CheckReport("orthant_submodular", False, counterexample, evals)
    return CheckReport("orthant_submodular", True, None, evals * len(orthants))


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


def _low_set(gains: np.ndarray, r: int) -> np.ndarray:
    """Positions of the r smallest entries along the last axis (ties to the
    lower position), in increasing order."""
    return np.sort(np.argsort(gains, axis=-1, kind="stable")[..., :r], axis=-1)


def _first_label_set(gains: np.ndarray, r: int, eps: float) -> list:
    """Lexicographically first r labels whose gains sum below -eps, for a
    row whose r smallest gains do: each slot takes the smallest label that
    the smallest later gains complete below -eps.  Sets are summed in label
    order and ties go to the lower label, as in the row test, so the
    smallest label of the set that passed the previous test completes that
    same set again: a slot is never left empty."""
    picked: list = []
    for need in range(r - 1, -1, -1):
        for label in range(picked[-1] + 1 if picked else 0, gains.size - need):
            rest = label + 1 + _low_set(gains[label + 1 :], need)
            if gains[np.concatenate([picked + [label], rest])].sum() < -eps:
                picked.append(label)
                break
    return [label + 1 for label in picked]


def check_r_wise_monotone(
    table: TabularFunction,
    r: int,
    eps: float = EPS,
) -> CheckReport:
    """Verify that every sum of r distinct-label marginals at an unassigned
    element is nonnegative.

    Enumeration order: element index, then base assignment index, then
    label sets in lexicographic order.  Every set's marginals are added in
    label order.  A base assignment fails when the set of its r smallest
    marginals does, so label sets are searched only on the first failing
    one, to name the lexicographically first failing set.
    """
    if not 1 <= r <= table.dims.k:
        raise InputError(f"r must be in [1, k={table.dims.k}], got {r}")
    dims = _guard(table, eps)
    values = table.values
    digits = digit_matrix(dims.n, dims.k)
    labels = np.arange(1, dims.k + 1)
    evals = 0
    for e in range(dims.n):
        rows = np.flatnonzero(digits[:, e] == 0)
        step = (dims.k + 1) ** e
        margs = values[rows[:, None] + labels * step] - values[rows][:, None]
        evals += (dims.k + 1) * rows.size
        low = np.take_along_axis(margs, _low_set(margs, r), axis=-1)
        bad = low.sum(axis=-1) < -eps
        if bad.any():
            pos = int(np.argmax(bad))
            chosen = _first_label_set(margs[pos], r, eps)
            lhs = float(margs[pos, [i - 1 for i in chosen]].sum())
            counterexample = {
                "inequality": "sum of marginals over the label set >= 0",
                "s": list(assignment_of(int(rows[pos]), dims)),
                "element": e,
                "labels": chosen,
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
    fail it.  Pairs are enumerated lexicographically by (index(s),
    index(t)); the smallest violating pair is reported.
    """
    dims = _guard(table, eps)
    dims.check_cap("orthant-pair check", max_pairs, dims.k**2, "pairs")
    inequality = "f(s) + f(t) >= 2 f(id0(s,t))"
    evals = 3 * table.dims.num_orthants * table.dims.num_orthants
    return _pair_scan(table, "orthant_pair_inequality", inequality, True, eps, evals)
