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
(index(s), index(t)) row by row, and the orthant checker scans subset
pairs orthant by orthant, both in blocks of at most _BLOCK entries that
reuse their buffers, so memory stays flat whatever the table.  A pair
scan of at least _THREAD_ENTRIES entries runs on two threads, or one when
the process may use a single CPU: each takes every other row, and the
earliest row with a violation is reported, so the report is the same for
any thread count (see :func:`_first_hit`).  The r-wise checker sweeps
marginals, one sort per base assignment.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, product
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
    check_int,
    index_rows,
    is_orthant,
    label_rows,
)
from .zoo import TabularFunction

_BLOCK = 1 << 16  # entries per block of an exhaustive scan
# workers of a pair scan of at least _THREAD_ENTRIES entries: two, or one CPU
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_THREAD_ENTRIES = 1 << 20


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


def _meet_join(a: np.ndarray, b: np.ndarray, k: int) -> tuple:
    """Indices of min0(a, b) and max0(a, b) for label arrays broadcast
    against each other, elements along the last axis."""
    clash = (a != b) & (a != 0) & (b != 0)
    meet = np.where(clash, 0, np.minimum(a, b))
    join = np.where(clash, 0, np.maximum(a, b))
    return index_rows(meet, k), index_rows(join, k)


def _first_hit(steps: int, workers: int, make_step):
    """The smallest step i in range(steps) whose step(i) returns a hit,
    as (i, hit), or None; step is made by ``make_step``, once per worker.

    Step 0 runs first and alone, so a scan that fails there starts no
    thread.  Then worker w of ``workers`` takes the steps i = w (mod
    workers), worker 0 in the calling thread and each other in a thread of
    its own.  The earliest step with a hit is shared under a lock, and a
    worker stops once its next step is past it, so every earlier step has
    run when the scan ends and the hit does not depend on timing.  A
    worker's exception stops the others and is raised here.
    """
    step = make_step()
    hit = step(0) if steps else None
    if hit is not None:
        return 0, hit
    lock = threading.Lock()
    hits: dict = {}
    earliest = [steps]  # the smallest step with a hit so far, -1 on error
    errors: list = []

    def work(todo: range, step=None) -> None:
        try:
            step = step or make_step()
            for i in todo:
                with lock:
                    if i > earliest[0]:
                        return
                hit = step(i)
                if hit is not None:
                    with lock:
                        hits[i] = hit
                        earliest[0] = min(earliest[0], i)
                    return
        except BaseException as exc:
            with lock:
                errors.append(exc)
                earliest[0] = -1

    helpers = [threading.Thread(target=work, args=(range(w, steps, workers),))
               for w in range(1, workers)]
    for helper in helpers:
        helper.start()
    work(range(workers, steps, workers), step)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return min(hits.items()) if hits else None


def _pair_scan(
    table: TabularFunction, prop: str, inequality: str, orthants: bool,
    eps: float, evals: int,
) -> CheckReport:
    """Report the first pair (s, t), in lexicographic order of (index(s),
    index(t)), with f(s) + f(t) < f(min0(s,t)) + f(max0(s,t)) - eps, over
    all assignments or the orthants only (where min0 = max0 = id0).

    Both sides are symmetric in (s, t), so the first violating pair has
    index(s) <= index(t).  An index is hi * L + lo with L = (k+1)^(n//2).
    Row p holds the pairs whose s has high part p and t a high part at or
    past p; a pair within one high part with index(s) > index(t) mirrors
    one at a smaller low part of s, so it is never the least.  A row takes
    meets and joins from the high parts and a low-half table of L^2
    entries, in blocks of at most _BLOCK entries that cover several high
    parts of t (or, when L^2 is larger, some low parts of s) and reuse one
    set of buffers per worker.  A row reports its least (low part of s,
    high part of t, low part of t) over its blocks, and :func:`_first_hit`
    the earliest row that has one, so the order is the same whatever the
    blocks and workers.
    """
    n, k = table.dims.n, table.dims.k
    values = table.values
    span = (k + 1) ** (n // 2)
    lo, hi = (label_rows(m, k, m) for m in (n // 2, n - n // 2))
    if orthants:
        lo, hi = lo[(lo != 0).all(axis=1)], hi[(hi != 0).all(axis=1)]
    lo_meet, lo_join = _meet_join(lo[:, None], lo[None, :], k)
    rows = index_rows(hi, k)[:, None] * span + index_rows(lo, k)[None, :]
    row_values, grid = values[rows], values.reshape(-1, span)
    heights, width = rows.shape
    a_step = max(1, min(width, _BLOCK // width))  # low parts of s per block
    q_step = max(1, _BLOCK // (a_step * width))  # high parts of t per block
    size = a_step * min(q_step, heights) * width

    def make_step():
        lhs, rhs, bad = np.empty(size), np.empty(size), np.empty(size, dtype=bool)

        def step(p: int):
            hi_meet, hi_join = _meet_join(hi[p], hi[p:], k)
            best = None  # the least (a, q, b) so far
            blocks = product(range(0, width, a_step), range(0, heights - p, q_step))
            for a0, q0 in blocks:
                limit = width if best is None else best[0]  # no later a can win
                if a0 >= limit:
                    break
                a1, q1 = min(a0 + a_step, limit), min(q0 + q_step, heights - p)
                shape = (q1 - q0, a1 - a0, width)  # t's high, s's low, t's low
                m = shape[0] * shape[1] * width
                left, right = lhs[:m].reshape(shape), rhs[:m].reshape(shape)
                below = bad[:m].reshape(shape)
                # mode="clip" writes into out directly; "raise" buffers it
                grid[hi_meet[q0:q1]].take(lo_meet[a0:a1], 1, right, "clip")
                grid[hi_join[q0:q1]].take(lo_join[a0:a1], 1, left, "clip")
                right += left
                right -= eps
                np.add(row_values[p, a0:a1, None], row_values[p + q0 : p + q1, None],
                       out=left)
                np.less(left, right, out=below)
                if below.any():
                    below = below.transpose(1, 0, 2)
                    a, q, b = np.unravel_index(int(np.argmax(below)), below.shape)
                    best = (a0 + int(a), q0 + int(q), int(b))
            if best is None:
                return None
            a, q, b = best
            return {
                "inequality": inequality,
                "s": list(assignment_of(int(rows[p, a]), table.dims)),
                "t": list(assignment_of(int(rows[p + q, b]), table.dims)),
                "lhs": float(row_values[p, a] + row_values[p + q, b]),
                "rhs": float(grid[hi_meet[q], lo_meet[a, b]]
                             + grid[hi_join[q], lo_join[a, b]]),
            }

        return step

    entries = heights * (heights + 1) // 2 * width * width
    workers = _THREADS if entries >= _THREAD_ENTRIES else 1
    found = _first_hit(heights, workers, make_step)
    if found is None:
        return CheckReport(prop, True, None, evals)
    return CheckReport(prop, False, found[1], evals)


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
    violating pair has A < B incomparable, and only such pairs are scanned,
    in steps of at most _BLOCK entries: several whole orthants, or rows A
    of one orthant.  Two plain loops run the steps in order, blocks of
    orthants outside and chunks of rows A inside, over one set of buffers;
    the pairs are recomputed only when the chunk changes.  The steps stay
    on one thread: they are too small for two to gain, and on a holding
    (7, 3) table two took 101 ms against 75 ms for one (2-CPU Xeon)."""
    dims = table.dims
    # k^n orthants times 4^n subset-mask pairs (A, B)
    dims.check_cap("orthant check", max_pairs, 4 * dims.k, "pairs")
    n, k = dims.n, dims.k
    masks = np.arange(2**n, dtype=np.int64)
    member = (masks[:, None] >> np.arange(n)) & 1
    orthants = label_rows(n, k - 1, n) + 1  # in index order
    evals = 4 * masks.size**2  # per orthant visited
    rows = min(masks.size, max(1, _BLOCK // masks.size))  # sets A per step
    per = max(1, _BLOCK // masks.size**2)  # orthants per step; 1 unless rows == masks.size
    # no larger than a step needs: allocating the whole block made a scan
    # that stops at its first step twice as slow
    count = (4**n - 2 * 3**n + 2**n) // 2  # incomparable pairs A < B
    size = per * min(count, rows * masks.size)
    lhs, rhs, tmp = (np.empty(size) for _ in range(3))
    bad = np.empty(size, dtype=bool)
    paired = -1  # the first row A of the pairs last computed
    for o in range(0, len(orthants), per):
        # axes: subset, orthant (innermost, so gathers copy whole rows)
        labels = member[:, None] * orthants[o : o + per]
        vals = table.values[index_rows(labels, k)]
        for a in range(0, masks.size, rows):
            if paired != a:
                sets = masks[a : a + rows, None]
                apart = (sets & masks != sets) & (sets & masks != masks) & (masks > sets)
                first, second = np.nonzero(apart)
                first += a
                meet, join, paired = first & second, first | second, a
            shape = (first.size, vals.shape[1])
            m = shape[0] * shape[1]
            left, right, other = (x[:m].reshape(shape) for x in (lhs, rhs, tmp))
            below = bad[:m].reshape(shape)
            vals.take(meet, 0, right, "clip")
            vals.take(join, 0, other, "clip")
            right += other
            right -= eps
            vals.take(first, 0, left, "clip")
            vals.take(second, 0, other, "clip")
            left += other
            np.less(left, right, out=below)
            if not below.any():
                continue
            q, p = divmod(int(np.argmax(below.T)), shape[0])
            orthant = orthants[o + q]
            counterexample = {
                "inequality": "f(a) + f(b) >= f(min0(a,b)) + f(max0(a,b))"
                " within one orthant",
                "orthant": orthant.tolist(),
                "s": (orthant * member[first[p]]).tolist(),
                "t": (orthant * member[second[p]]).tolist(),
                "lhs": float(left[p, q]),
                "rhs": float(vals[meet[p], q] + vals[join[p], q]),
            }
            return CheckReport(
                "orthant_submodular", False, counterexample, evals * (o + q + 1)
            )
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
    check_int("r", r, 1)
    if r > table.dims.k:
        raise InputError(f"r must be in [1, k={table.dims.k}], got {r}")
    dims = _guard(table, eps)
    values = table.values
    every = np.arange(values.size)
    labels = np.arange(1, dims.k + 1)
    evals = 0
    for e in range(dims.n):
        step = (dims.k + 1) ** e
        rows = every.reshape(-1, dims.k + 1, step)[:, 0].ravel()  # e unassigned
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
