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
pairs orthant by orthant, both in blocks of at most _BLOCK entries, so
memory stays flat whatever the table.  A pair scan computes f(min0) +
f(max0) - eps once per block and (meet, join) pattern of the low digits,
and tests each s against the least f over each group of t that clashes
with it on the same low digits, whose pairs share one right side: (4k+1)^m
low pairs instead of (k+1)^(2m), and the same first pair (see
:func:`_pair_scan`).  What a scan needs of the table's shape alone, its
plan, is built once per shape and block and kept read-only: at most 16
pair-scan plans (code and meet-join tables, pair lists, steps;
:func:`_scan_plan`) and 8 orthant-scan plans (subset bits, the first
step's subset pairs; :func:`_orthant_plan`), each array within
max(_BLOCK, (k+1)^2) entries but the n·2^n subset bits.  What grows with
the table (its values, rows, least f over the groups and orthants) is
built per call.  Every scan runs its steps in order on the caller's thread,
and each calling thread keeps its own block buffers for its next scan, at
most 1.6 MB (:func:`_buffers`).  The r-wise checker sweeps marginals, one
sort per base assignment, none when r = k.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, inf, nextafter, prod

import numpy as np

from .core import (
    DEFAULT_MAX_PAIRS,
    EPS,
    Dims,
    InputError,
    OracleRangeError,
    PreconditionError,
    ValueOracle,
    _digits,
    assignment_of,
    check_eps,
    check_int,
    index_rows,
    is_orthant,
    label_rows,
)
from .zoo import TabularFunction

_BLOCK = 1 << 16  # entries per block of an exhaustive scan
_RUN = 8  # high parts of t per block, where a row has as many, so gathers copy runs


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


_local = threading.local()  # each thread's block buffers, kept between scans


def _buffers(size: int) -> tuple:
    """This thread's block buffers, three float arrays and one bool array of
    at least ``size`` entries.  They grow to the largest block the thread
    has scanned and are kept, so a repeated scan does not fault them in
    again: at most 25 bytes per entry of a block, 1.6 MB, per thread."""
    held = getattr(_local, "held", None)
    if held is None or held[0].size < size:
        held = (*(np.empty(size) for _ in range(3)), np.empty(size, dtype=bool))
        _local.held = held
    return held


def _fold(tables, radix: int) -> np.ndarray:
    """out[a, b] = sum_d tables[d][a_d, b_d] * radix^(D-1-d) over the rows a, b
    of D digits, the first most significant: one broadcast per digit."""
    out = tables[0] if tables else np.zeros((1, 1), dtype=np.intp)
    for table in tables[1:]:
        out = out[:, None, :, None] * radix + table[:, None]
        out = out.reshape(out.shape[0] * out.shape[1], -1)
    return out


@lru_cache(maxsize=16)
def _scan_plan(n: int, k: int, orthants: bool, block: int) -> tuple:
    """What :func:`_pair_scan` needs of an (n, k) table's shape, built once
    per (n, k, orthants, block) and read-only: (m, code, lo_meet, lo_join,
    packed, tail, others, tables, steps).  m is the most low digits whose W
    x W code table and patterns fit in a block with room for _RUN high
    parts of t per block of valid pairs, or for every one.  ``tables`` holds
    the first step's pairs (low part of s, low part of t, pattern) and the
    valid pairs (low part of s, grouped low part of t, pattern), each in
    order of s, with start[a] the first pair of low part a and the meet and
    join of the patterns it numbers; a step is (row, low parts a0:a1 of s,
    high parts of t per block).  No array has more than ``block`` entries,
    or (k+1)^2 when a block is smaller."""
    labels = np.arange(int(orthants), k + 1)
    x, y = labels[:, None], labels  # state: (x, x) is x, (0, y) k + y, a clash 0
    state = np.where(x == y, x, np.where(x * y, 0, k + x + y))
    c = np.arange(k + 1 if orthants else 2 * k + 1)
    # others[g]: the nonzero labels but the g-th; none when k = 1
    others = ((np.arange(k)[:, None] + np.arange(1, k)) % k if k > 1
              else np.zeros((0, 0), dtype=np.intp))
    # one digit's valid pairs (label of s, label of t, state): every label of
    # t but the clashes, which fold into one group per nonzero label of s,
    # label labels + g of t for the g-th (:func:`_min_extended`)
    s, t = np.nonzero((x == y) | (x * y == 0))
    g = np.arange(others.shape[0])
    digit = (np.append(s, g + labels.size - k), np.append(t, g + labels.size),
             np.append(state[s, t], 0 * g))

    def fits(m: int) -> bool:  # W x W codes, patterns, _RUN high parts of t
        run = min(_RUN, labels.size ** (n - m))
        return max(labels.size ** (2 * m), c.size**m, run * digit[0].size**m) <= block

    m = next((m for m in range(n, 0, -1) if fits(m)), 0)
    span, high, low = (k + 1) ** m, (k + 1) ** (n - m), min(m, n - m)
    meet, join = np.where(c > k, 0, c), np.where(c > k, c - k, c)
    code = _fold([state] * m, c.size)  # W x W, in the least unsigned type
    code = code.astype(np.min_scalar_type(c.size**m - 1))
    lo_meet, lo_join = divmod(_fold([meet[None] * span + join] * m, k + 1)[0], span)
    packed = (meet * high + join)[state]  # high meets and joins, per label pair
    tail = _fold([packed] * low, k + 1)
    radices = (labels.size, labels.size + g.size, c.size)
    valid = [_digits(d, r, m) for d, r in zip(digit, radices)]
    order = np.argsort(valid[0], kind="stable")
    width, heights = code.shape[0], labels.size ** (n - m)
    # the first step pairs the s whose low digits but element 0's hold their
    # first label with every t, without groups
    first = min(width, labels.size)
    used, pc = np.unique(code[:first], return_inverse=True)  # the patterns it meets

    def table(pa, pb, pc, meet, join):  # with start[a], the first pair of low part a
        return pa, pb, pc, np.searchsorted(pa, np.arange(width + 1)), meet, join

    tables = (table(np.arange(first).repeat(width), np.tile(np.arange(width), first),
                    pc.ravel(), lo_meet[used], lo_join[used]),
              table(*(d[order] for d in valid), lo_meet, lo_join))

    def per_block(pairs, a0, a1):  # high parts of t per block of a step
        count = max(1, pairs[3][a1] - pairs[3][a0])
        return min(heights, max(1, block // count))

    # on all assignments s = 0 meets and joins every t at 0 and t: it never
    # violates, so row 0 starts at low part 1
    lowest = int(not orthants)
    steps = [(0, lowest, first, per_block(tables[0], lowest, first))]
    steps += [(0, first, width, per_block(tables[1], first, width))] * (first < width)
    steps += [(p, 0, width, per_block(tables[1], 0, width)) for p in range(1, heights)]
    for array in (code, lo_meet, lo_join, packed, tail, others, *sum(tables, ())):
        array.flags.writeable = False
    return m, code, lo_meet, lo_join, packed, tail, others, tables, tuple(steps)


def _min_extended(rows: np.ndarray, m: int, labels: int, others: np.ndarray):
    """Rows of t, (q, labels^m) by high part and low part, as f over the
    grouped low parts of t, (R^m, q) with R = labels + k (labels when
    k = 1).  Digit labels + g of a grouped part stands for every nonzero
    label but the g-th, ``others[g]``, and its entry is the least f over the
    t it stands for: one take and one min per digit."""
    out = rows.T.reshape((labels,) * m + (rows.shape[0],))
    k = others.shape[0]
    for d in range(m - 1, -1, -1) if k else ():  # the small axes first
        nonzero = out[(slice(None),) * d + (slice(labels - k, None),)]
        out = np.concatenate([out, nonzero.take(others, d).min(d + 1)], d)
    return out.reshape(-1, rows.shape[0])


def _pair_scan(
    table: TabularFunction, prop: str, inequality: str, orthants: bool,
    eps: float, evals: int,
) -> CheckReport:
    """Report the first pair (s, t), in lexicographic order of (index(s),
    index(t)), with f(s) + f(t) < f(min0(s,t)) + f(max0(s,t)) - eps, over
    all assignments or the orthants only (where min0 = max0 = id0).

    Both sides are symmetric in (s, t), so the first violating pair has
    index(s) <= index(t).  Over the L scanned labels (k+1, or k on
    orthants) an index is hi * L^m + lo, with m low digits and W = L^m low
    parts (:func:`_scan_plan`).  Row p pairs s of high part p with t of
    high part p or later; a pair within a high part with index(s) >
    index(t) mirrors one at a smaller low part of s, so it is never the
    least.  A digit pair has one of 2k+1 (meet, join) states, k+1 on
    orthants, and the low digits' states make the pair's pattern.

    Groups.  Where s has label x != 0 on a low digit and t another nonzero
    label, the digit clashes: its meet and join are 0 whatever t's label
    there.  So every t that differs only in such labels has the same right
    side, the float R = fl(fl(f(M) + f(J)) - eps), and as rounding is
    monotone, fl(f(s) + f(t)) < R for one of them exactly when
    fl(f(s) + min f(t)) < R.  The scan pairs each low part of s with the
    grouped low parts of t, each digit a label or "every nonzero label but
    x": (4k+1)^m valid pairs instead of W^2 = (k+1)^(2m), (2k)^m instead of
    k^(2m) on orthants, and reads min f(t) from the grouped rows of t
    (:func:`_min_extended`), built once per scan, at its first grouped
    step, when they fit in a block and per block otherwise.  A block's
    least (low part of s, high part of t) with a violating group is its
    least with a violating pair, and there every t of that high part is
    tested with the same floats, so the report is the pair-by-pair scan's.

    Steps and blocks.  A block holds at most _BLOCK entries (valid pair,
    high part of t), high parts innermost, so that both gathers copy runs:
    R once per high part and pattern, then one gather for each pair's R,
    one for its min f(t), and f(s) added per pair.  On all assignments row
    0 starts at low part 1, as s = 0 meets and joins every t at 0 and t.
    Its first step, the low parts of s whose other low digits hold their
    first label, pairs them with every t, without groups, by broadcasting,
    so an early violation costs no grouped rows.  The steps run in order on
    the caller's thread, and the first step with a violation reports its
    least (low part of s, high part of t, low part of t).
    """
    n, k = table.dims.n, table.dims.k
    m, code, lo_meet, lo_join, packed, tail, others, tables, steps = _scan_plan(
        n, k, orthants, _BLOCK)
    span, high, low = (k + 1) ** m, (k + 1) ** (n - m), min(m, n - m)
    labels, width = k + 1 - int(orthants), code.shape[0]
    heights, grid = labels ** (n - m), table.values.reshape(-1, span)
    # row p: the entries of high part p that the scan pairs, low parts in order
    rows = table.values.reshape((k + 1,) * n)[(slice(int(orthants), None),) * n]
    rows = rows.reshape(heights, width)

    def prepared(pairs: tuple, whole) -> tuple:
        # take() copies a read-only index array on every call: copy once per scan
        pa, pb, pc, start, meet, join = pairs
        return pa, *map(np.array, (pb, pc)), start, *map(np.array, (meet, join)), whole

    def patterns(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        # grid[hi[q], lo[c]] as (c, q), transposing the smaller of the two
        return grid[hi].take(lo, 1).T if lo.size < span else grid[hi].T.take(lo, 0)

    def assignment(r: int) -> list:  # of rows.flat[r]: element e's digit weighs labels^e
        return [r // labels**e % labels + int(orthants) for e in range(n)]

    def step(i: int, pairs: tuple):
        p, a0, a1, q_step = steps[i]
        pa, pb, pc, start, meet, join, whole = pairs
        i0 = int(start[a0])
        lhs, rhs, _, bad = _buffers(min(q_step, heights - p) * int(start[a1] - i0))
        head = np.unravel_index(p, (labels,) * (n - m))[: n - m - low]
        hi = _fold([packed[e, None] for e in head], k + 1).T * (k + 1) ** low
        hi_meet, hi_join = divmod((hi + tail[p % labels**low]).ravel()[p:], high)
        best = None  # the least (a, q, b) so far
        for q0 in range(0, heights - p, q_step):
            limit = a1 if best is None else best[0]  # no later a >= limit wins
            if limit <= a0:
                break
            q1 = min(q0 + q_step, heights - p)
            i1 = int(start[limit])
            shape = (i1 - i0, q1 - q0)  # low pair, t's high part
            left, right, below = (buf[: prod(shape)].reshape(shape)
                                  for buf in (lhs, rhs, bad))
            rs = patterns(hi_meet[q0:q1], meet) + patterns(hi_join[q0:q1], join) - eps
            # mode="clip" writes into out directly; "raise" buffers it
            rs.take(pc[i0:i1], 0, right, "clip")
            if i:  # the least f over each pair's group of t, then f(s) added
                t_rows = (whole[:, p + q0 : p + q1] if whole is not None
                          else _min_extended(rows[p + q0 : p + q1], m, labels, others))
                t_rows.take(pb[i0:i1], 0, left, "clip")
                left += rows[p, pa[i0:i1], None]
            else:  # f(s) + f(t) for each low part of s and every t
                np.add(rows[p, a0:limit, None, None], rows.T[None, :, p + q0 : p + q1],
                       out=left.reshape(limit - a0, width, q1 - q0))
            np.less(left, right, out=below)
            hit = int(below.argmax())
            if below.flat[hit]:
                # the least a with a violating pair and its least q, then
                # the least t of that high part that violates
                a = int(pa[i0 + hit // shape[1]])
                hits = below[hit // shape[1] : start[a + 1] - i0]
                q = int(hits.any(0).argmax())
                if i:  # the least t of a violating group's high part
                    b = (rows[p, a] + rows[p + q0 + q] < rs[code[a], q]).argmax()
                else:  # the first step's pairs of s are in order of t
                    b = pb[i0 + hit // shape[1] + hits[:, q].argmax()]
                best = (a, q0 + q, int(b))
        if best is None:
            return None
        a, q, b = best
        return {
            "inequality": inequality,
            "s": assignment(p * width + a),
            "t": assignment((p + q) * width + b),
            "lhs": float(rows[p, a] + rows[p + q, b]),
            "rhs": float(grid[hi_meet[q], lo_meet[code[a, b]]]
                         + grid[hi_join[q], lo_join[code[a, b]]]),
        }

    pairs = prepared(tables[0], None)
    for i in range(len(steps)):
        if i == 1:  # the valid pairs, and every t's grouped rows if they fit a block
            fit = heights * (labels + others.shape[0]) ** m <= _BLOCK
            whole = _min_extended(rows, m, labels, others) if fit else None
            pairs = prepared(tables[1], whole)
        found = step(i, pairs)
        if found is not None:
            return CheckReport(prop, False, found, evals)
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
    c·(δ⁺ + 8uV) + 8uV <= (1 - u)·eps, exactly in rationals, where δ is the
    largest float shortfall of a row, δ⁺ = max(0, δ) and u = 2^-53.  Once
    per call, in rationals, it takes room = (1 - u)·eps - (c + 1)·8uV and
    the largest float θ with c·θ <= room (θ = inf when c = 0); nothing is
    kept between calls.  As δ⁺ is a float, the inequality holds exactly when
    room >= 0 and δ⁺ <= θ, so each block of rows costs one float comparison
    of its largest shortfall with θ, and the sweep stops at the first block
    over it.

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
    when c·(δ⁺ + 7uV) + 7uV <= (1+u)·eps.  The certificate's inequality
    implies it (its constant 8 bounds the rounding with room), and the code
    decides that inequality exactly: room >= 0 and every block's float
    shortfall at most the float θ, which is c·δ⁺ <= room for δ⁺ >= 0.
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
    room = (1 - u) * Fraction(eps) - (c + 1) * slack  # what c·δ⁺ may take
    if room < 0:
        return False
    limit = inf  # the largest float θ with c·θ <= room
    if c:
        limit = float(room / c)  # the nearest float: one below it if above
        if Fraction(limit) > room / c:
            limit = nextafter(limit, 0.0)
    # all() stops the sweep at the first block over the limit
    return all(delta <= limit for delta in _local_shortfalls(table, singles))


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


def _incomparable(n: int, a: int, rows: int) -> tuple:
    """The incomparable subset pairs A < B of n elements with A in a:a+rows,
    in lexicographic order, as four arrays of masks: A, B, A&B and A|B."""
    masks = np.arange(2**n, dtype=np.int64)
    sets = masks[a : a + rows, None]
    apart = (sets & masks != sets) & (sets & masks != masks) & (masks > sets)
    first, second = np.nonzero(apart)
    first += a
    return first, second, first & second, first | second


@lru_cache(maxsize=8)
def _orthant_plan(n: int, block: int) -> tuple:
    """What :func:`_orthant_submodular_scan` needs of n, built once per
    (n, block) and read-only: (member, rows, per, pairs), with member[A] the
    n bits of mask A, ``rows`` sets A per step, ``per`` orthants per step and
    the pairs of the first step's rows A (:func:`_incomparable`).  A pairs
    array has at most ``block`` entries, and member n·2^n."""
    member = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    rows = min(2**n, max(1, block // 2**n))
    per = max(1, block // 4**n)  # 1 unless rows == 2^n
    pairs = _incomparable(n, 0, rows)
    for array in (member, *pairs):
        array.flags.writeable = False
    return member, rows, per, pairs


def _orthant_submodular_scan(
    table: TabularFunction, eps: float, max_pairs: int
) -> CheckReport:
    """The exhaustive scan of :func:`check_orthant_submodular`.  Both sides
    are symmetric in (A, B) and equal when A and B are nested, so the first
    violating pair has A < B incomparable, and only such pairs are scanned,
    in steps of at most _BLOCK entries: several whole orthants, or rows A
    of one orthant.  Two plain loops run the steps in order on the caller's
    thread, blocks of orthants outside and chunks of rows A inside, over
    that thread's own buffers; the pairs of the first chunk come from the
    scan's plan (:func:`_orthant_plan`), and the others, when there are
    more, are recomputed per block."""
    dims = table.dims
    # k^n orthants times 4^n subset-mask pairs (A, B)
    dims.check_cap("orthant check", max_pairs, 4 * dims.k, "pairs")
    n, k = dims.n, dims.k
    member, rows, per, pairs = _orthant_plan(n, _BLOCK)
    # take() copies a read-only index array on every call: copy once per scan
    pairs = tuple(np.array(x) for x in pairs)
    orthants = label_rows(n, k - 1, n) + 1  # in index order
    evals = 4 * 4**n  # per orthant visited
    for o in range(0, len(orthants), per):
        # axes: subset, orthant (innermost, so gathers copy whole rows)
        labels = member[:, None] * orthants[o : o + per]
        vals = table.values[index_rows(labels, k)]
        for a in range(0, 2**n, rows):
            first, second, meet, join = pairs if a == 0 else _incomparable(n, a, rows)
            shape = (first.size, vals.shape[1])
            m = shape[0] * shape[1]
            left, right, other, below = (x[:m].reshape(shape) for x in _buffers(m))
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
    dims = _guard(table, eps)
    check_int("r", r, 1)
    if r > dims.k:
        raise InputError(f"r must be in [1, k={dims.k}], got {r}")
    values = table.values
    every = np.arange(values.size)
    labels = np.arange(1, dims.k + 1)
    evals = 0
    for e in range(dims.n):
        step = (dims.k + 1) ** e
        rows = every.reshape(-1, dims.k + 1, step)[:, 0].ravel()  # e unassigned
        margs = values[rows[:, None] + labels * step] - values[rows][:, None]
        evals += (dims.k + 1) * rows.size
        # r = k keeps every label: the r smallest in label order are all
        low = margs if r == dims.k else np.take_along_axis(margs, _low_set(margs, r), -1)
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
    if _guard(table, eps).k < 2:
        raise InputError("characterization check needs k >= 2")
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
