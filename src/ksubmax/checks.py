"""Counterexample-producing verifiers for k-set function structure.

Each checker decides every relevant inequality of a tabulated function in
a fixed order and returns a :class:`CheckReport`.  ``holds=False`` always
comes with the first counterexample in that order together with both sides
of the violated inequality, so the violation can be reproduced
independently.  Inequalities are tested with one-sided slack: ``A >= B``
holds when ``A >= B - eps``.

The ``ksub`` and ``orthant`` checks run in two stages.  A sweep over the
local rows, the pairs whose meet and join are at most two elements apart,
bounds the shortfall of every pair by a proved multiple of the largest
local one (see :func:`_certified`).  When that bound, rounding included,
fits inside eps, the check holds without a pair scan; otherwise the
exhaustive scan decides.  Either way the report is the one the scan alone
gives.  :func:`check_characterization` calls the scans directly: the local
rows are the characterization in local form, and certifying with them
there would compare the code with itself.

The pair checkers scan assignment pairs in lexicographic order of
(index(s), index(t)) in row blocks, far below size^2 memory; the orthant
checker scans subset pairs orthant by orthant in blocks, and the r-wise
checker sweeps marginals, one sort per base assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from math import comb

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
    """Outcome of one property check."""

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


def _local_shortfalls(table: TabularFunction, singles: bool):
    """Yield the largest float shortfall rhs - lhs among the local rows,
    one block at a time: per element pair a < b, the rows

        (ii) f(s+a:i) + f(s+b:j) >= f(s) + f(s+a:i+b:j),  labels i, j,

    then, with ``singles``, per element e, the rows

        (i)  f(s+e:i) + f(s+e:j) >= 2 f(s),              labels i < j,

    over every s that leaves the named elements unassigned.  A row is the
    pair (s+a:i, s+b:j) or (s+e:i, s+e:j) of the exhaustive scan, whose meet
    is s and whose join is s+a:i+b:j or s, and each side is one float sum,
    as in the scan.  No block is larger than the table.  Rows (ii) come
    first: a table raised at one orthant fails only those.
    """
    n, k = table.dims.n, table.dims.k
    cube = table.values.reshape((k + 1,) * n)  # element e on axis n-1-e
    for a in range(n):
        for b in range(a + 1, n):
            square = np.moveaxis(cube, (n - 1 - a, n - 1 - b), (-2, -1))
            lhs = square[..., 1:, :1] + square[..., :1, 1:]
            rhs = square[..., :1, :1] + square[..., 1:, 1:]
            yield float((rhs - lhs).max())
    if singles and k >= 2:
        for e in range(n):
            line = np.moveaxis(cube, n - 1 - e, -1)
            rhs = line[..., 0] + line[..., 0]
            yield max(
                float((rhs - (line[..., i] + line[..., j])).max())
                for i, j in combinations(range(1, k + 1), 2)
            )


def _certified(
    table: TabularFunction, eps: float, max_pairs: int, what: str, singles: bool
) -> bool:
    """Whether the local rows prove that the exhaustive scan finds no
    violating pair: rows (i) and (ii) with ``singles`` (the ``ksub`` check,
    c = n²), rows (ii) alone without (the ``orthant`` check,
    c = floor(n²/4)).  Refuses a sweep of more than ``max_pairs`` rows.

    Certified when eps > 0, V = max f <= 2^1022 and
    c·(δ⁺ + 8uV) + 8uV <= (1 - u)·eps, evaluated exactly in rationals, where
    δ is the largest float shortfall of a row, δ⁺ = max(0, δ) and
    u = 2^-53.  The sweep stops at the first block after which that fails.

    Pair bound.  Write D(s, t) = f(M) + f(J) - f(s) - f(t) for the exact
    shortfall of a pair, M = min0(s, t), J = max0(s, t), and d⁺ for the
    largest exact row shortfall, or 0.  Where s and t differ, A holds the
    elements only s assigns, B those only t assigns and C the clashes,
    assigned by both with different labels; a, b, m are their sizes.  X+C_s
    is X with s's labels on C, X+C_t with t's, X+B with t's labels on B.

    For S and T below one orthant, D telescopes exactly into |S∖T|·|T∖S|
    rows (ii), one per element pair across the two differences:
    D <= |S∖T|·|T∖S|·d⁺ <= floor(n²/4)·d⁺, the orthant bound.

    In general D(s, t) <= |s∖M|·|t∖M|·d⁺ = (a+m)(b+m)·d⁺ <= n²·d⁺, as the
    sum of three pairs whose D add up to D(s, t):

    1. (s, M+B), both below J+C_s: meet M, join J+C_s, (a+m)·b rows (ii);
    2. (t, J), both below J+C_t: meet M+B, join J+C_t, a·m rows (ii);
    3. (J+C_s, J+C_t), which clash on all of C: meet and join J, K(m) rows.
       With h the hybrid taking t's label on the last clash element e, D
       splits into (J+C_s, h), one row (i) at e; (h, J+C_t), which clash on
       m-1 elements, K(m-1); and twice the pair (J+C_s-e, J+e:t_e), both
       below h, with meet J and join h, m-1 rows (ii) each.  So
       K(m) = K(m-1) + 1 + 2(m-1) = m², from K(0) = 0.

    (a+m)·b + a·m + m² = (a+m)(b+m), and (a+m) + (b+m) <= 2n.

    Rounding.  Entries are floats in [0, V] and V <= 2^1022, so no sum of
    two overflows.  A float sum or difference of two floats is the exact
    one times (1 + θ), |θ| <= u, subnormal results included, which are
    exact.  A row with exact sides L (lhs) and R (rhs), both <= 2V, has
    float shortfall δ_row = fl(fl(R) - fl(L)) <= fl(R) <= 2V, and its exact
    shortfall is R - L <= fl(R) - fl(L) + u(L + R)
    <= δ_row⁺/(1-u) + 4uV <= δ⁺ + (4 + 2/(1-u))·uV < δ⁺ + 7uV, so
    d⁺ < δ⁺ + 7uV.  The scan flags a pair when fl(L) < fl(fl(R) - eps).
    If fl(R) <= eps the right side is at most 0 <= fl(L).  Otherwise it is
    at most (R(1+u) - eps)(1+u), and fl(L) >= L(1-u), so the pair passes
    when (1+u)·eps >= R - L + (2u + u²)·R + u·L, which
    R - L + 7uV <= (1+u)·eps implies.  With D <= c·d⁺, every pair passes
    when c·(δ⁺ + 7uV) + 7uV <= (1+u)·eps, which the certificate implies:
    its constant 8 bounds the rounding with room.
    """
    n, k = table.dims.n, table.dims.k
    rows = comb(n, 2) * k * k * (k + 1) ** max(n - 2, 0)
    if singles:
        rows += n * comb(k, 2) * (k + 1) ** (n - 1)
    if rows > max_pairs:
        raise InputError(f"{what} sweeps {rows} local rows, cap is {max_pairs}")
    top = float(table.values.max())
    if not (eps > 0 and top <= 2.0**1022):
        return False
    # deferred: fractions and decimal would add ~4 ms to every import
    from fractions import Fraction

    u = Fraction(1, 2**53)  # unit roundoff of float64
    c = n * n if singles else n * n // 4
    slack = 8 * u * Fraction(top)
    bound = (1 - u) * Fraction(eps)
    # running δ⁺ after each block; all() stops the sweep at the first misfit
    running = accumulate(chain([0.0], _local_shortfalls(table, singles)), max)
    return all(c * (Fraction(delta) + slack) + slack <= bound for delta in running)


def check_k_submodular(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Verify f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t)) over all pairs.

    First the local rows: when they certify the table (:func:`_certified`),
    it holds and no pair is scanned.  Otherwise pairs are enumerated
    lexicographically by (index(s), index(t)) and the smallest violating
    pair is reported.  ``max_pairs`` caps the local rows, then the
    (k+1)^(2n) pairs; a certified table needs only the first.
    """
    _guard(table, eps)
    if _certified(table, eps, max_pairs, "k-submodularity check", singles=True):
        return CheckReport("k_submodular", True, None, 4 * table.values.size**2)
    return _k_submodular_scan(table, eps, max_pairs)


def _k_submodular_scan(
    table: TabularFunction, eps: float, max_pairs: int
) -> CheckReport:
    """The exhaustive pair scan of :func:`check_k_submodular`."""
    dims = table.dims
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

    First the local rows (ii): when they certify the table
    (:func:`_certified`), it holds and no pair is scanned.  Otherwise
    orthants are visited in increasing index order, subset-mask pairs
    lexicographically within each orthant, and the first violating pair is
    reported.  ``max_pairs`` caps the local rows, then the (4k)^n orthant
    and subset-pair combinations; a certified table needs only the first.
    """
    _guard(table, eps)
    if _certified(table, eps, max_pairs, "orthant check", singles=False):
        n, k = table.dims.n, table.dims.k
        return CheckReport("orthant_submodular", True, None, 4 * 4**n * k**n)
    return _orthant_submodular_scan(table, eps, max_pairs)


def _orthant_submodular_scan(
    table: TabularFunction, eps: float, max_pairs: int
) -> CheckReport:
    """The exhaustive scan of :func:`check_orthant_submodular`.  Both sides
    are symmetric in (A, B) and equal when A and B are nested, so the first
    violating pair has A < B incomparable, and only such pairs are scanned:
    in steps of about _BLOCK, several whole orthants or rows A of one
    orthant."""
    dims = table.dims
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

    Both pair checks run their exhaustive scans here, never the local
    certificate: the local rows restate the characterization, so a
    certified verdict would not cross-check it.
    """
    if table.dims.k < 2:
        raise InputError("characterization check needs k >= 2")
    _guard(table, eps)
    ksub = _k_submodular_scan(table, eps, max_pairs)
    orthant = _orthant_submodular_scan(table, eps, max_pairs)
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
