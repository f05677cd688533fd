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
gives.  :func:`check_characterization` runs the scans without the
certificate: the local rows are the characterization in local form, and
certifying with them there would compare the code with itself.  One
function runs every pair check, certificate, cap, scan and report
(:func:`_pair_check`), from one table of what each mode names and charges.

One pair scan serves the ``ksub``, ``orthant`` and ``orthant-pairs``
checks and both sides of the characterization: it visits all assignment
pairs, the pairs without a clash (the orthant inequality, see
:func:`check_orthant_submodular`) or the orthant pairs, in lexicographic
order of (index(s), index(t)) row by row, in blocks of at most _BLOCK
entries, so memory stays flat whatever the table.  It computes f(min0) +
f(max0) - eps once per block and (meet, join) pattern of the low digits;
on all assignments and on orthants it tests each s against the least f
over each group of t that clashes with it on the same low digits, whose
pairs share one right side: (4k+1)^m low pairs instead of (k+1)^(2m), and
the same first pair (see :func:`_pair_scan`).  What a scan needs of the
table's shape alone, its plan, is built once per shape, check and block
and kept read-only: at most 16 plans (code, meet-join and clash tables,
pair lists, steps; :func:`_scan_plan`), each array within max(_BLOCK,
(k+1)^2) entries.  What grows with the table (its values, rows, least f
over the groups) is built per call.  Every scan runs its steps in order
on the caller's thread, and each calling thread keeps its own block
buffers for its next scan, at most 1.6 MB (:func:`_buffers`).  The
r-wise checker sweeps marginals, one sort per base assignment, none when
r = k.
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
    is_orthant,
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
def _scan_plan(n: int, k: int, mode: str, block: int) -> tuple:
    """What :func:`_pair_scan` needs of an (n, k) table's shape in ``mode``,
    built once per (n, k, mode, block) and read-only: (m, code, lo_meet,
    lo_join, packed, tail, clash, apart, others, tables, steps).  m is the
    most low digits whose W x W code table and patterns fit in a block with
    room for _RUN high parts of t per block of valid pairs, or for every
    one.  ``tables`` holds the first step's pairs (low part of s, low part
    of t, pattern) and the valid pairs (low part of s, low part of t or
    grouped low part, pattern), each in order of s and then of t, with
    start[a] the first pair of low part a and the meet and join of the
    patterns it numbers; a step is (row, low parts a0:a1 of s, high parts of
    t per block, whether it gathers from t's rows).  ``clash`` marks one
    digit's clashing label pairs and ``apart`` counts the clashes on the
    high digits that ``tail`` folds.  No array has more than ``block`` entries, or (k+1)^2
    when a block is smaller."""
    orthants = mode == "orthant-pairs"
    labels = np.arange(int(orthants), k + 1)
    x, y = labels[:, None], labels  # state: (x, x) is x, (0, y) k + y, a clash 0
    state = np.where(x == y, x, np.where(x * y, 0, k + x + y))
    clash = ((x != y) & (x * y != 0)).astype(np.intp)
    c = np.arange(k + 1 if orthants else 2 * k + 1)
    # others[g]: the nonzero labels but the g-th; none when k = 1 or when
    # no pair may clash ("orthant")
    others = ((np.arange(k)[:, None] + np.arange(1, k)) % k if k > 1 and mode != "orthant"
              else np.zeros((0, 0), dtype=np.intp))
    # one digit's valid pairs (label of s, label of t, state): every label of
    # t but the clashes, which, but in "orthant", fold into one group per
    # nonzero label of s, label labels + g of t for the g-th
    # (:func:`_min_extended`)
    s, t = np.nonzero(clash == 0)
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
    tail, apart = _fold([packed] * low, k + 1), _fold([clash] * low, 1)
    radices = (labels.size, labels.size + g.size, c.size)
    valid = [_digits(d, r, m) for d, r in zip(digit, radices)]
    order = np.argsort(valid[0], kind="stable")  # in order of s, then of t
    width, heights = code.shape[0], labels.size ** (n - m)
    # on all assignments s = 0 meets and joins every t at 0 and t: it never
    # violates, so row 0 starts at low part 1.  Its first step takes the s
    # whose low digits but element 0's hold their first label and pairs them
    # with every t by broadcasting, without groups, but in "orthant", where
    # that would pair clashing s and t, with their valid pairs
    lowest, gathers = int(not orthants), mode == "orthant"
    first = min(width, labels.size)
    valid = [d[order] for d in valid]
    cut = int(np.searchsorted(valid[0], first))
    opening = [d[:cut] for d in valid] if gathers else [
        np.arange(first).repeat(width), np.tile(np.arange(width), first), code[:first]]
    used, pc = np.unique(opening[2], return_inverse=True)  # the patterns it meets

    def table(pa, pb, pc, meet, join):  # with start[a], the first pair of low part a
        return pa, pb, pc, np.searchsorted(pa, np.arange(width + 1)), meet, join

    tables = (table(*opening[:2], pc.ravel(), lo_meet[used], lo_join[used]),
              table(*valid, lo_meet, lo_join))

    def per_block(pairs, a0, a1):  # high parts of t per block of a step
        count = max(1, pairs[3][a1] - pairs[3][a0])
        return min(heights, max(1, block // count))

    rest = [(0, first, width)] * (first < width)
    rest += [(p, 0, width) for p in range(1, heights)]
    steps = [(0, lowest, first, per_block(tables[0], lowest, first), gathers)]
    steps += [(p, a0, a1, per_block(tables[1], a0, a1), True) for p, a0, a1 in rest]
    for array in (code, lo_meet, lo_join, packed, tail, clash, apart, others,
                  *sum(tables, ())):
        array.flags.writeable = False
    return (m, code, lo_meet, lo_join, packed, tail, clash, apart, others, tables,
            tuple(steps))


def _min_extended(rows: np.ndarray, m: int, labels: int, others: np.ndarray):
    """Rows of t, (q, labels^m) by high part and low part, as f over the
    grouped low parts of t, (R^m, q) with R = labels + G for the G rows of
    ``others`` (none when k = 1 or no pair may clash: then the rows of t
    themselves, transposed).  Digit labels + g of a grouped part stands for
    every nonzero label but the g-th, ``others[g]``, and its entry is the
    least f over the t it stands for: one take and one min per digit."""
    out = rows.T.reshape((labels,) * m + (rows.shape[0],))
    k = others.shape[0]
    for d in range(m - 1, -1, -1) if k else ():  # the small axes first
        nonzero = out[(slice(None),) * d + (slice(labels - k, None),)]
        out = np.concatenate([out, nonzero.take(others, d).min(d + 1)], d)
    return out.reshape(-1, rows.shape[0])


def _pair_scan(table: TabularFunction, mode: str, eps: float) -> dict | None:
    """The first pair (s, t), in lexicographic order of (index(s),
    index(t)), with f(s) + f(t) < f(min0(s,t)) + f(max0(s,t)) - eps, over
    ``mode``'s pairs: "ksub" all assignment pairs, "orthant" the pairs that
    never clash (no element with two different nonzero labels) and
    "orthant-pairs" the orthant pairs (where min0 = max0 = id0), as the
    witness {s, t, lhs, rhs}, or None when no pair violates.

    Both sides are symmetric in (s, t), so the first violating pair has
    index(s) <= index(t).  Over the L scanned labels (k+1, or k on
    orthants) an index is hi * L^m + lo, with m low digits and W = L^m low
    parts (:func:`_scan_plan`).  Row p pairs s of high part p with t of
    high part p or later, in "orthant" only those that do not clash with p
    on a high digit, a list folded from one digit's clashes as the high
    meets and joins are; a pair within a high part with index(s) >
    index(t) mirrors one at a smaller low part of s, so it is never the
    least.  A digit pair has one of 2k+1 (meet, join) states, k+1 on
    orthants, and the low digits' states make the pair's pattern.  The
    valid low pairs are (3k+1)^m in "orthant", the pairs without a clash.

    Groups.  Where s has label x != 0 on a low digit and t another nonzero
    label, the digit clashes: its meet and join are 0 whatever t's label
    there.  So every t that differs only in such labels has the same right
    side, the float R = fl(fl(f(M) + f(J)) - eps), and as rounding is
    monotone, fl(f(s) + f(t)) < R for one of them exactly when
    fl(f(s) + min f(t)) < R.  The "ksub" and "orthant-pairs" scans pair
    each low part of s with the grouped low parts of t, each digit a label
    or "every nonzero label but x": (4k+1)^m valid pairs instead of W^2 =
    (k+1)^(2m), (2k)^m instead of k^(2m) on orthants, and read min f(t)
    from the grouped rows of t (:func:`_min_extended`), built once per
    scan, at its first gathering step: about (R/L)^m times the scanned
    entries, R = 2k+1 on all assignments (under 2^m times) and 2k on
    orthants.  A block's least (low part of s, high part of t) with a
    violating group is its least with a violating pair, and there every t
    of that high part is tested with the same floats, so the report is the
    pair-by-pair scan's.  In "orthant" t's rows are the table's rows.

    Steps and blocks.  A block holds at most _BLOCK entries (valid pair,
    high part of t), high parts innermost, so that both gathers copy runs:
    R once per high part and pattern, then one gather for each pair's R,
    one for its f(t) or min f(t), and f(s) added per pair.  Outside
    "orthant-pairs" row 0 starts at low part 1, as s = 0 meets and joins
    every t at 0 and t.  Row 0's first step, the low parts of s whose other
    low digits hold their first label, pairs them with every t, without
    groups, by broadcasting, or in "orthant" with their valid pairs, so an
    early violation costs one small step and no grouped rows.  The steps
    run in order on the caller's thread, and the first step with a
    violation reports its least (low part of s, high part of t, low part
    of t).
    """
    n, k = table.dims.n, table.dims.k
    m, code, lo_meet, lo_join, packed, tail, clash, apart, others, tables, steps = (
        _scan_plan(n, k, mode, _BLOCK))
    orthants = int(mode == "orthant-pairs")
    span, high, low = (k + 1) ** m, (k + 1) ** (n - m), min(m, n - m)
    labels, width = k + 1 - orthants, code.shape[0]
    heights, grid = labels ** (n - m), table.values.reshape(-1, span)
    # row p: the entries of high part p that the scan pairs, low parts in order
    rows = table.values.reshape((k + 1,) * n)[(slice(orthants, None),) * n]
    rows = rows.reshape(heights, width)

    def prepared(pairs: tuple) -> tuple:
        # take() copies a read-only index array on every call: copy once per scan
        pa, pb, pc, start, meet, join = pairs
        return pa, *map(np.array, (pb, pc)), start, *map(np.array, (meet, join))

    def patterns(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        # grid[hi[q], lo[c]] as (c, q), transposing the smaller of the two
        return grid[hi].take(lo, 1).T if lo.size < span else grid[hi].T.take(lo, 0)

    def assignment(r: int) -> list:  # of rows.flat[r]: element e's digit weighs labels^e
        return [r // labels**e % labels + orthants for e in range(n)]

    def step(p: int, a0: int, a1: int, q_step: int, pairs: tuple, whole):
        pa, pb, pc, start, meet, join = pairs
        i0 = int(start[a0])
        head = np.unravel_index(p, (labels,) * (n - m))[: n - m - low]
        hi = _fold([packed[e, None] for e in head], k + 1).T * (k + 1) ** low
        hi_meet, hi_join = divmod((hi + tail[p % labels**low]).ravel()[p:], high)
        near = None  # the high parts of t from p on that the row visits, if not all
        if mode == "orthant":
            clashes = _fold([clash[e, None] for e in head], 1).T + apart[p % labels**low]
            near = np.flatnonzero(clashes.ravel()[p:] == 0)
        count = heights - p if near is None else near.size
        lhs, rhs, _, bad = _buffers(min(q_step, count) * int(start[a1] - i0))
        t_rows = (rows.T if whole is None else whole)[:, p:]
        best = None  # the least (a, q, b) so far
        for j0 in range(0, count, q_step):
            limit = a1 if best is None else best[0]  # no later a >= limit wins
            if limit <= a0:
                break
            j1 = min(j0 + q_step, count)
            cols = slice(j0, j1) if near is None else near[j0:j1]
            i1 = int(start[limit])
            shape = (i1 - i0, j1 - j0)  # low pair, t's high part
            left, right, below = (buf[: prod(shape)].reshape(shape)
                                  for buf in (lhs, rhs, bad))
            rs = patterns(hi_meet[cols], meet) + patterns(hi_join[cols], join) - eps
            # mode="clip" writes into out directly; "raise" buffers it
            rs.take(pc[i0:i1], 0, right, "clip")
            if whole is None:  # f(s) + f(t) for each low part of s and every t
                np.add(rows[p, a0:limit, None, None], t_rows[None, :, cols],
                       out=left.reshape(limit - a0, width, shape[1]))
            else:  # f(t), or the least f over each pair's group of t, then f(s) added
                t_rows[:, cols].take(pb[i0:i1], 0, left, "clip")
                left += rows[p, pa[i0:i1], None]
            np.less(left, right, out=below)
            hit = int(below.argmax())
            if below.flat[hit]:
                # the least a with a violating pair and its least q, then
                # the least t of that high part that violates
                a = int(pa[i0 + hit // shape[1]])
                hits = below[hit // shape[1] : start[a + 1] - i0]
                j = int(hits.any(0).argmax())
                q = j0 + j if near is None else int(near[j0 + j])
                if whole is not None and others.size:  # every t of a group's high part
                    b = (rows[p, a] + rows[p + q] < rs[code[a], j]).argmax()
                else:  # a's pairs are in order of t
                    b = pb[i0 + hit // shape[1] + hits[:, j].argmax()]
                best = (a, q, int(b))
        if best is None:
            return None
        a, q, b = best
        return {
            "s": assignment(p * width + a),
            "t": assignment((p + q) * width + b),
            "lhs": float(rows[p, a] + rows[p + q, b]),
            "rhs": float(grid[hi_meet[q], lo_meet[code[a, b]]]
                         + grid[hi_join[q], lo_join[code[a, b]]]),
        }

    pairs, whole = prepared(tables[0]), None
    for i, (p, a0, a1, q_step, gathers) in enumerate(steps):
        if gathers and whole is None:  # t's rows, grouped where pairs group
            whole = np.ascontiguousarray(_min_extended(rows, m, labels, others))
        if i == 1:  # every later step pairs the valid pairs
            pairs = prepared(tables[1])
        found = step(p, a0, a1, q_step, pairs, whole)
        if found is not None:
            return found
    return None


#: Per pair-check mode: the property reported, the name its cap and
#: certificate refuse under, its pairs per element at k, the oracle reads
#: charged per pair and the inequality a counterexample names.
_PAIR_CHECKS = {
    "ksub": ("k_submodular", "k-submodularity check", lambda k: (k + 1) ** 2, 4,
             "f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t))"),
    "orthant": ("orthant_submodular", "orthant check", lambda k: 3 * k + 1, 4,
                "f(a) + f(b) >= f(min0(a,b)) + f(max0(a,b)) within one orthant"),
    "orthant-pairs": ("orthant_pair_inequality", "orthant-pair check",
                      lambda k: k * k, 3, "f(s) + f(t) >= 2 f(id0(s,t))"),
}


def _pair_check(
    table: TabularFunction, mode: str, eps: float, max_pairs: int, certify: bool
) -> CheckReport:
    """The pair check of ``mode`` (see :data:`_PAIR_CHECKS`): with
    ``certify``, first the local certificate (:func:`_certified`, rows (i)
    with "ksub"), then the cap on its pairs, the exhaustive scan
    (:func:`_pair_scan`) and its report.  An "orthant" counterexample also
    names the least orthant above both (s's label on each element, else
    t's, else 1)."""
    prop, what, per_element, reads, inequality = _PAIR_CHECKS[mode]
    dims = _guard(table, eps)
    base = per_element(dims.k)
    evals = reads * base**dims.n
    if certify and _certified(table, eps, max_pairs, what, singles=mode == "ksub"):
        return CheckReport(prop, True, None, evals)
    dims.check_cap(what, max_pairs, base, "pairs")
    found = _pair_scan(table, mode, eps)
    if found is None:
        return CheckReport(prop, True, None, evals)
    if mode == "orthant":
        orthant = [x or y or 1 for x, y in zip(found["s"], found["t"])]
        found = {"orthant": orthant, **found}
    return CheckReport(prop, False, {"inequality": inequality, **found}, evals)


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
    return _pair_check(table, "ksub", eps, max_pairs, certify=True)


def check_orthant_submodular(
    table: TabularFunction,
    eps: float = EPS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> CheckReport:
    """Verify classical submodularity of the set function induced by every
    orthant: over each orthant o and subset pair (A, B),
    f(o|A) + f(o|B) >= f(o|A&B) + f(o|A|B).

    The pairs (o|A, o|B) are exactly the pairs (s, t) that never clash, no
    element holding two different nonzero labels, and their meet and join
    are o|A&B and o|A|B.  First the local rows (ii): when they certify the
    table (:func:`_certified`), it holds and no pair is scanned.  Otherwise
    the pairs without a clash are enumerated lexicographically by
    (index(s), index(t)) and the smallest violating pair is reported with
    the least orthant above both (s's label on each element, else t's,
    else 1).  ``max_pairs`` caps the local rows, then the (3k+1)^n pairs
    without a clash; a certified table needs only the first.
    """
    return _pair_check(table, "orthant", eps, max_pairs, certify=True)


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
    certified verdict would not cross-check it.  The two scans share one
    engine (:func:`_pair_scan`), the k-submodular side over all pairs and
    the orthant side over the pairs without a clash, so a fault in that
    engine can move both sides alike; the plain loops of
    tests/oracles.py, which share no code with it, are the independent
    side that the tests hold both scans to.
    """
    if _guard(table, eps).k < 2:
        raise InputError("characterization check needs k >= 2")
    ksub = _pair_check(table, "ksub", eps, max_pairs, certify=False)
    orthant = _pair_check(table, "orthant", eps, max_pairs, certify=False)
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
    return _pair_check(table, "orthant-pairs", eps, max_pairs, certify=False)
