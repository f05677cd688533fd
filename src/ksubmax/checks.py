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
from k = 3 on, on all assignments and on orthants, it tests each s
against the least f over each group of t that clashes with it on the
same digits, whose pairs share one right side: (4k+1)^m low pairs
instead of (k+1)^(2m), the high digits next to them grouped alike while
the grouped rows of t fit in _GROUPED entries, and the same first pair
(see :func:`_pair_scan`).  What a scan needs of the table's shape
alone, its plan, is built once per shape, check, block and bound and kept
read-only: at most 16 plans (code, meet, join and clash tables, pair
lists, the parts of t each part of s visits on the listed high digits,
steps; :func:`_scan_plan`), each array within max(_BLOCK, (k+1)^2)
entries.  What grows with the table (its values, rows, least f over the
groups) is built per call.  Every scan runs its steps in order on the
caller's thread, and each calling thread keeps its own block buffers for
its next scan, at most 1.6 MB (:func:`_buffers`).  The r-wise checker
reads the marginals as label slices of the value cube: running minima for
r <= 2, one sort per base assignment for 3 <= r < k and none when r = k.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
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
    _fold,
    assignment_of,
    check_eps,
    check_int,
    is_orthant,
)
from .zoo import TabularFunction

_BLOCK = 1 << 16  # entries per block of an exhaustive scan
_RUN = 8  # high parts of t per block, where a row has as many, so gathers copy runs
_GROUPED = 1 << 20  # most entries of a scan's grouped rows of t, where high digits group


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


@lru_cache(maxsize=16)
def _scan_plan(n: int, k: int, mode: str, block: int, grouped: int) -> tuple:
    """What :func:`_pair_scan` needs of an (n, k) table's shape in ``mode``,
    built once per (n, k, mode, block, grouped) and read-only: (m, h, code,
    lo_meet, lo_join, packed, clash, others, tables, lists, steps).  m is
    the most low digits whose W x W code table and patterns fit in a block
    with room for _RUN high parts of t per block of valid pairs, or for
    every one.  h is the most high digits next to them listed per part of
    s, grouped as the low ones, while the grouped rows of t hold at most
    ``grouped`` entries and the lists at most ``block``.
    ``tables`` holds the first step's pairs (low part of s, low part of t,
    pattern) and the valid pairs (low part of s, low part of t or grouped
    low part, pattern), each in order of s and then of t, with start[a]
    the first pair of low part a and the meet and join of the patterns it
    numbers.  ``lists`` holds, per part of s on the h high digits, the
    parts of t with a member at or above s's, then every part: (start,
    part of t, meet, join), each meet and join on the (k+1)-radix of the
    table.  ``packed`` holds one high digit's meet * (k+1)^(n-m) + join
    per label pair and ``clash`` its clashes, for the high digits past the
    h; a step is (row, low parts a0:a1 of s, high parts of t per block,
    whether it gathers from t's rows).  No array has more than ``block``
    entries, or (k+1)^2 when a block is smaller."""
    orthants = mode == "orthant-pairs"
    labels = np.arange(int(orthants), k + 1)
    x, y = labels[:, None], labels  # state: (x, x) is x, (0, y) k + y, a clash 0
    state = np.where(x == y, x, np.where(x * y, 0, k + x + y))
    clash = ((x != y) & (x * y != 0)).astype(np.intp)
    c = np.arange(k + 1 if orthants else 2 * k + 1)
    # others[g]: the nonzero labels but the g-th, from k = 3 on, where a
    # group stands for two labels or more; none when no pair may clash
    # ("orthant")
    groups = k > 2 and mode != "orthant"
    others = ((np.arange(k)[:, None] + np.arange(1, k)) % k if groups
              else np.zeros((0, 0), dtype=np.intp))
    # one digit's valid pairs (label of s, label of t, state): every label of
    # t but, in "orthant", the clashes, which from k = 3 on fold into one
    # group per nonzero label of s, label labels + g of t for the g-th
    # (:func:`_min_extended`)
    s, t = np.nonzero((clash == 0) | (mode != "orthant" and not groups))
    g = np.arange(others.shape[0])
    digit = (np.append(s, g + labels.size - k), np.append(t, g + labels.size),
             np.append(state[s, t], 0 * g))

    def fits(m: int) -> bool:  # W x W codes, patterns, _RUN high parts of t
        run = min(_RUN, labels.size ** (n - m))
        return max(labels.size ** (2 * m), c.size**m, run * digit[0].size**m) <= block

    m = next((m for m in range(n, 0, -1) if fits(m)), 0)
    span, high = (k + 1) ** m, (k + 1) ** (n - m)
    size, wide = labels.size, labels.size + g.size
    h = max((h for h in range(n - m + 1) if digit[0].size**h <= block
             and wide ** (m + h) * size ** (n - m - h) <= grouped), default=0)
    meet, join = np.where(c > k, 0, c), np.where(c > k, c - k, c)
    code = _fold([state] * m, c.size)  # W x W, in the least unsigned type
    code = code.astype(np.min_scalar_type(c.size**m - 1))
    lo_meet, lo_join = divmod(_fold([meet[None] * span + join] * m, k + 1)[0], span)
    packed = (meet * high + join)[state]  # one high digit's meet and join, per label pair
    radices = (size, wide, c.size)
    valid = [_fold([d[None]] * m, r)[0] for d, r in zip(digit, radices)]
    order = np.argsort(valid[0], kind="stable")  # in order of s, then of t
    width, heights = code.shape[0], size ** (n - m)
    # the h grouped high digits' valid pairs, each grouped part of t with
    # the largest label any of its members holds, to keep those with a
    # member at or above s's
    top = np.append(np.arange(size), size - k + others.max(1, initial=0))
    near = [_fold([d[None]] * h, r)[0] for d, r in zip(
        (digit[0], digit[1], meet[digit[2]], join[digit[2]], top[digit[1]]),
        (size, wide, k + 1, k + 1, size))]
    by_s = np.lexsort(near[1::-1])  # in order of s, then of t
    near = [part[by_s] for part in near]
    lists = tuple((np.searchsorted(near[0][keep], np.arange(size**h + 1)),
                   *(part[keep] for part in near[1:4]))
                  for keep in (near[4] >= near[0], slice(None)))
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
    for array in (code, lo_meet, lo_join, packed, clash, others, *sum(tables + lists, ())):
        array.flags.writeable = False
    return (m, h, code, lo_meet, lo_join, packed, clash, others, tables, lists, tuple(steps))


def _min_extended(cube: np.ndarray, m: int, h: int, others: np.ndarray):
    """The values of t as a cube, one axis of labels per element, the m low
    elements first and then the high ones, most significant first, as f
    over the grouped parts of t, (R^m, L^f R^h) by low part and high part
    with R = labels + G for the G rows of ``others``: the m low digits and
    the h high digits nearest them grouped, the f others not (none when
    k <= 2 or no pair may clash: then the cube itself, as W x H).  Digit
    labels + g of a grouped part stands for every nonzero label but the
    g-th, ``others[g]``, and its entry is the least f over the t it stands
    for: one take and one min per grouped digit, into one array."""
    n, k, size = cube.ndim, others.shape[0], cube.shape[0]
    grouped = [*range(n - 1, n - h - 1, -1), *range(m - 1, -1, -1)] if k else []
    out = np.empty([size + k * (d in grouped) for d in range(n)])
    done = [slice(size)] * n  # filled: every digit done, the first labels of the others
    out[tuple(done)] = cube
    for d in grouped:
        nonzero, groups = (out[tuple(done[:d] + [part] + done[d + 1 :])]
                           for part in (slice(size - k, size), slice(size, None)))
        nonzero.take(others, d).min(d + 1, out=groups)
        done[d] = slice(None)
    return out.reshape(prod(out.shape[:m]), -1)


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
    parts (:func:`_scan_plan`).  Row p pairs s of high part p with the
    parts of t that reach p or later, in "orthant" only those that do not
    clash with p on a high digit; a pair with index(s) > index(t) that
    violates mirrors one that the scan meets first, so it is never the
    least.  A digit pair has one of 2k+1 (meet, join) states, k+1 on
    orthants, and the low digits' states make the pair's pattern.  The
    valid low pairs are (3k+1)^m in "orthant", the pairs without a clash.

    Groups.  Where s has label x != 0 on a digit and t another nonzero
    label, the digit clashes: its meet and join are 0 whatever t's label
    there.  So every t that differs only in such labels has the same right
    side, the float R = fl(fl(f(M) + f(J)) - eps), and as rounding is
    monotone, fl(f(s) + f(t)) < R for one of them exactly when
    fl(f(s) + min f(t)) < R.  From k = 3 on, where a group stands for two
    labels or more, the "ksub" and "orthant-pairs" scans pair each low
    part of s with the grouped low parts of t, each digit a label or
    "every nonzero label but x": (4k+1)^m valid pairs instead of W^2 =
    (k+1)^(2m), (2k)^m instead of k^(2m) on orthants.  The h high digits
    next to the low ones group the same way: on each, t takes 0, x or the
    group of the other nonzero labels where s has x != 0, and a row keeps
    a grouped high part when one of its members is p or later.  h is the
    most high digits for which the grouped rows of t hold at most _GROUPED
    entries: every high digit under the default pair cap but
    "orthant-pairs" at (8, 3).  The rows, f over the grouped parts of t
    (:func:`_min_extended`), are built once per scan, at its first
    gathering step.  A block's least low part of s with a violating group
    is its least with a violating pair; that s is then tested exactly
    against every t from its own high part on, a block of entries at a
    time, so the report is the pair-by-pair scan's.  Without groups
    ("orthant", k <= 2) the block's least pair is the least t.

    Steps and blocks.  A block holds at most _BLOCK entries (valid pair,
    part of t on the high digits), the latter innermost, so that both
    gathers copy runs: R once per part and pattern, then one gather for
    each pair's R, one for its f(t) or min f(t), and f(s) added per pair.
    Each row's parts of t, with their high meets and joins, come from the
    plan, joined with the high digits past the h ones per row where there
    are such.  Outside "orthant-pairs" row 0 starts at low part 1, as
    s = 0 meets and joins every t at 0 and t.  Row 0's first step, the low
    parts of s whose other low digits hold their first label, pairs them
    with every t, without groups, by broadcasting, or in "orthant" with
    their valid pairs, so an early violation costs one small step and no
    grouped rows.  The steps run in order on the caller's thread, and the
    first step with a violation reports its least s and that s's least t.
    """
    n, k = table.dims.n, table.dims.k
    m, h, code, lo_meet, lo_join, packed, clash, others, tables, lists, steps = (
        _scan_plan(n, k, mode, _BLOCK, _GROUPED))
    orthants = int(mode == "orthant-pairs")
    span, high = (k + 1) ** m, (k + 1) ** (n - m)
    labels, width = k + 1 - orthants, code.shape[0]
    heights, grid = labels ** (n - m), table.values.reshape(-1, span)
    near, far, wide = labels**h, labels ** (n - m - h), (labels + others.shape[0]) ** h
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

    def fold(x: int, d: int, part: np.ndarray, radix: int) -> np.ndarray:
        # per high part y of d digits: the sum of part[x_e, y_e] * radix^e
        return _fold([part[e, None] for e in np.unravel_index(x, (labels,) * d)], radix)[0]

    def sides(x: int, d: int) -> tuple:  # per y: x and y's high meet and join
        return divmod(fold(x, d, packed, k + 1), high)

    def row(p: int) -> list:  # row p's parts of t, with their high meets and joins
        pf, pn = divmod(p, near)
        reach, every = ([part[start[pn] : start[pn + 1]] for part in parts]
                        for start, *parts in lists)
        if far == 1:
            return reach
        # the far parts of t from s's on, but in "orthant" those that clash
        clear = (fold(pf, n - m - h, clash, 1)[pf:] == 0) | (mode != "orthant")
        up = pf + np.flatnonzero(clear)
        ups = (up * wide, *(side[up] * (k + 1) ** h for side in sides(pf, n - m - h)))
        return [np.concatenate([a + b[0], (e + b[1:, None]).ravel()])
                for a, e, b in zip(reach, every, ups)]

    def step(p, a0, a1, q_step, pairs, whole, cols, hi_meet, hi_join):
        pa, pb, pc, start, meet, join = pairs
        i0, count = int(start[a0]), cols.size
        lhs, rhs, _, bad = _buffers(min(q_step, count) * int(start[a1] - i0))
        t_rows = rows.T if whole is None else whole
        best = None  # the least (a, t's part in cols, b) so far
        for j0 in range(0, count, q_step):
            limit = a1 if best is None else best[0]  # no later a >= limit wins
            if limit <= a0:
                break
            j1 = min(j0 + q_step, count)
            i1 = int(start[limit])
            shape = (i1 - i0, j1 - j0)  # low pair, t's part
            left, right, below = (buf[: prod(shape)].reshape(shape)
                                  for buf in (lhs, rhs, bad))
            rs = patterns(hi_meet[j0:j1], meet) + patterns(hi_join[j0:j1], join) - eps
            parts = cols[j0:j1]
            if parts[-1] - parts[0] == j1 - j0 - 1:  # a run of parts: gather from a view
                parts = slice(parts[0], parts[-1] + 1)
            # mode="clip" writes into out directly; "raise" buffers it
            rs.take(pc[i0:i1], 0, right, "clip")
            if whole is None:  # f(s) + f(t) for each low part of s and every t
                np.add(rows[p, a0:limit, None, None], t_rows[None, :, parts],
                       out=left.reshape(limit - a0, width, shape[1]))
            else:  # f(t), or the least f over each pair's group of t, then f(s) added
                t_rows[:, parts].take(pb[i0:i1], 0, left, "clip")
                left += rows[p, pa[i0:i1], None]
            np.less(left, right, out=below)
            hit = int(below.argmax())
            if below.flat[hit]:
                # the least a with a violating pair; without groups its
                # least part of t and least t there, as a's pairs are in
                # order of t
                a = int(pa[i0 + hit // shape[1]])
                hits = below[hit // shape[1] : start[a + 1] - i0]
                j = int(hits.any(0).argmax())
                best = (a, j0 + j, int(pb[i0 + hit // shape[1] + hits[:, j].argmax()]))
        return best

    pairs, whole = prepared(tables[0]), None
    for i, (p, a0, a1, q_step, gathers) in enumerate(steps):
        if gathers and whole is None:  # t's rows, grouped where pairs group
            whole = _min_extended(rows.T.reshape((labels,) * n), m, h, others)
        if i == 1:  # every later step pairs the valid pairs
            pairs = prepared(tables[1])
        visits = row(p) if i else (np.arange(heights), *sides(0, n - m))
        found = step(p, a0, a1, q_step, pairs, whole, *visits)
        if found is not None:
            break
    else:
        return None
    a, j, b = found
    if whole is not None and others.size:  # s's least t: s alone against every t from p on
        alone = (np.full(width, a), np.arange(width), code[a],
                 np.where(np.arange(width + 1) > a, width, 0), lo_meet, lo_join)
        visits = (np.arange(p, heights), *(side[p:] for side in sides(p, n - m)))
        _, j, b = step(p, a, a + 1, max(1, _BLOCK // width), alone, None, *visits)
    q, hi_meet, hi_join = (int(side[j]) for side in visits)
    return {
        "s": assignment(p * width + a),
        "t": assignment(q * width + b),
        "lhs": float(rows[p, a] + rows[q, b]),
        "rhs": float(grid[hi_meet, lo_meet[code[a, b]]] + grid[hi_join, lo_join[code[a, b]]]),
    }


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


def _least_two(line: np.ndarray) -> tuple:
    """The least and the second least of line[:, 1], ..., line[:, k], entry
    by entry, by running minima; the second is inf when k = 1."""
    least, second = line[:, 1], inf
    for i in range(2, line.shape[1]):
        second = np.minimum(second, np.maximum(least, line[:, i]))
        least = np.minimum(least, line[:, i])
    return least, second


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
    values, w = table.values, k + 1  # element e's digit weighs w^e
    for a in range(n):
        for b in range(a + 1, n):
            # the elements above b, then b, those between, a, those below a
            cube = values.reshape(w ** (n - 1 - b), w, w ** (b - a - 1), w, w**a)
            lhs = cube[:, :1, :, 1:] + cube[:, 1:, :, :1]
            rhs = cube[:, :1, :, :1] + cube[:, 1:, :, 1:]
            yield float((rhs - lhs).max())
    if singles and k >= 2:
        for e in range(n):
            # as rounding is monotone, the largest shortfall at s is that
            # of its two least f(s+e:i)
            line = values.reshape(w ** (n - 1 - e), w, w**e)
            least, second = _least_two(line)
            yield float((line[:, 0] + line[:, 0] - (least + second)).max())


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
    label sets in lexicographic order.  A set's sum is its marginals in
    label order, added as numpy's sum adds them (left to right up to seven
    terms, pairwise from eight on), the same way in the row test, the set
    search and the reported lhs.  A base assignment fails when the set of
    its r smallest marginals does, so label sets are searched only on the
    first failing one, to name the lexicographically first failing set.

    Per element the marginals are label slices of one reshape of the
    values.  r <= 2 takes running minima over the k slices, which is
    exact: as rounding is monotone, the least marginals are those of the
    least f(s+e:i), and a sum of two commutes.  3 <= r < k sorts each base
    assignment's marginals, stably, and r = k sums them all.
    """
    dims = _guard(table, eps)
    check_int("r", r, 1)
    if r > dims.k:
        raise InputError(f"r: must be in [1, k={dims.k}], got {r}")
    n, k, values = dims.n, dims.k, table.values
    for e in range(n):
        step = (k + 1) ** e
        # cube[:, 0]: f(s) over every s that leaves e unassigned, in index
        # order; cube[:, i]: f(s+e:i)
        cube = values.reshape(-1, k + 1, step)
        base = cube[:, 0]
        if r <= 2:  # running minima: the least f(s+e:i), for r = 2 the second least too
            least, second = _least_two(cube)
            low = least - base
            bad = (low + (second - base) if r == 2 else low) < -eps
        else:  # the gains of each s as one row, in label order
            margs = (cube[:, 1:] - cube[:, :1]).transpose(0, 2, 1).reshape(-1, k)
            # r = k keeps every label: the r smallest in label order are all
            low = margs if r == k else np.take_along_axis(margs, _low_set(margs, r), -1)
            bad = low.sum(axis=-1) < -eps
        if bad.any():
            hi, lo = divmod(int(np.argmax(bad)), step)
            gains = cube[hi, 1:, lo] - cube[hi, 0, lo]
            chosen = _first_label_set(gains, r, eps)
            lhs = float(gains[[i - 1 for i in chosen]].sum())
            counterexample = {
                "inequality": "sum of marginals over the label set >= 0",
                "s": list(assignment_of(hi * (k + 1) * step + lo, dims)),
                "element": e,
                "labels": chosen,
                "lhs": lhs,
                "rhs": 0.0,
            }
            return CheckReport(f"{r}_wise_monotone", False, counterexample,
                               (e + 1) * values.size)
    return CheckReport(f"{r}_wise_monotone", True, None, n * values.size)


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
