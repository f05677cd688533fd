"""Maximization algorithms and the exact oracles used to audit them.

Three algorithms: evaluate one uniform random orthant, the deterministic
greedy (per element, take the label of largest marginal gain, smallest label
on ties), and the randomized greedy (per element, pick a label with
probability proportional to its clamped marginal gain), each rule written
once (:func:`smallest_max_label`, :func:`_clamped_sums`).  Alongside them:
brute-force maximization, the exact expectation of the random-orthant draw,
and an exact decision-tree expectation for the randomized greedy, so every
approximation guarantee can be verified at desk scale without sampling
noise.  All randomness is seeded and reproducible.  Each randomized
algorithm has one sampler, which advances any number of seeded runs
together over a matrix of label rows: a single run is its one-seed case
and trial t of :func:`empirical_expectation` is row t.  A run with seed s
draws what ``default_rng(s)``'s ``random`` and ``integers`` draw, computed
here from raw PCG64 words, one matrix per chunk of runs
(:func:`_raw_words`), so no value depends on numpy's Generator methods.  Every value comes from
the oracle, which refuses a non-finite one with
:class:`~ksubmax.core.OracleRangeError`: a greedy value is the oracle's
value of its solution, read with its step's children.  A sum of finite
values that overflows a float, and a greedy gain that does, are refused
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_STATES,
    EPS,
    EVAL_BLOCK,
    Assignment,
    Dims,
    InputError,
    OracleRangeError,
    ValueOracle,
    _fold,
    assignment_of,
    check_eps,
    check_int,
    is_orthant,
)


@dataclass(frozen=True)
class GreedyTrace:
    """Audit record for one greedy step: the element considered, the k
    marginal values seen, the probability normalizer (randomized variant
    only, None otherwise), and the chosen label.  :meth:`to_json` writes an
    overflowed normalizer (beta = inf, which takes label k) as null."""

    element: int
    marginals: tuple
    beta: float | None
    chosen: int

    def to_json(self) -> dict:
        return {
            "element": self.element,
            "marginals": list(self.marginals),
            "beta": None if self.beta == math.inf else self.beta,
            "chosen": self.chosen,
        }


@dataclass(frozen=True)
class MaximizeResult:
    """Solution vector, its value, the number of oracle evaluations spent,
    and (for the greedy algorithms) the per-element trace."""

    solution: tuple
    value: float
    evals: int
    trace: list | None = None

    def to_json(self) -> dict:
        return {
            "solution": list(self.solution),
            "value": self.value,
            "evals": self.evals,
            "trace": None if self.trace is None else [t.to_json() for t in self.trace],
        }


def _validated_order(order: Sequence[int] | None, n: int) -> tuple:
    if order is None:
        return tuple(range(n))
    for i, e in enumerate(order):  # int() would truncate 1.9 and take True as 1
        check_int(f"order[{i}]", e, 0)
    order = tuple(int(e) for e in order)
    if sorted(order) != list(range(n)):
        raise InputError(f"order {order} is not a permutation of 0..{n - 1}")
    return order


def _fsum(f: ValueOracle, values, what: str) -> float:
    """math.fsum of ``values``, refusing, as ``what``, a sum that overflows."""
    try:
        return math.fsum(values)
    except OverflowError as exc:
        raise OracleRangeError(
            f"oracle {f.name}: the {what} overflows a float"
        ) from exc


def brute_force_max(
    f: ValueOracle,
    over_orthants_only: bool = False,
    max_states: int = DEFAULT_MAX_STATES,
) -> MaximizeResult:
    """Exact maximizer by enumeration, ties broken toward the smallest
    assignment index.

    With ``over_orthants_only`` the search is restricted to full partitions;
    for r-wise monotone functions this loses nothing, since any partial
    solution extends to an orthant without decreasing the value.  Over all
    assignments the argmax may be a partial solution (for such functions an
    orthant of equal value always exists).
    """
    dims = f.dims
    dims.check_cap("brute force", max_states, dims.k if over_orthants_only else None)
    if over_orthants_only:
        values, orthant = _orthant_values(f)
    else:
        values, orthant = f.eval_all(), lambda j: assignment_of(j, dims)
    best = int(np.argmax(values))  # the first maximum: ties go to the smaller index
    return MaximizeResult(orthant(best), float(values[best]), values.size, trace=None)


def _orthant_values(f: ValueOracle) -> tuple:
    """The values of the k^n orthants in increasing index order, and a map
    from a position among them to its orthant.  At k = 1 the one orthant,
    all 1s, is read as n label columns: its index 2^n - 1 overflows int64
    from n = 64 on.  A kept vector is sliced as the value cube, labels 1..k
    on every axis, which keeps that order; k^n calls either way."""
    n, k = f.dims.n, f.dims.k
    if k == 1:
        return f._eval_cols(np.ones((n, 1), dtype=np.int64)), lambda j: (1,) * n
    if f._kept is None:
        values = f.eval_indices(_fold([np.arange(1, k + 1)[None]] * n, k + 1)[0])
    else:
        f.calls += k**n
        values = f._kept.reshape((k + 1,) * n)[(slice(1, None),) * n].ravel()
    # position j's base-k digits, each label one more
    return values, lambda j: tuple(d + 1 for d in assignment_of(j, Dims(n, k - 1)))


def naive_random_sample(f: ValueOracle, seed: int) -> MaximizeResult:
    """Evaluate one orthant drawn uniformly at random (each element gets an
    independent uniform label in 1..k)."""
    check_int("seed", seed, 0)
    labels, values = _random_runs(f, [seed])
    return MaximizeResult(tuple(labels[0].tolist()), float(values[0]), evals=1)


def exact_expectation_random_orthant(
    f: ValueOracle, max_states: int = DEFAULT_MAX_STATES
) -> float:
    """Mean of f over all k^n orthants: the exact expected value of the
    uniform random draw, computed by enumeration.  Values whose sum
    overflows a float raise :class:`OracleRangeError`."""
    dims = f.dims
    dims.check_cap("random-orthant expectation", max_states, dims.k)
    values = _orthant_values(f)[0].tolist()
    return _fsum(f, values, f"sum of {len(values)} orthant values") / dims.num_orthants


def smallest_max_label(ys: Sequence[float], eps: float = EPS) -> int:
    """Smallest label (1-based) whose value is within eps of the maximum."""
    top = max(ys)
    for i, y in enumerate(ys, start=1):
        if y >= top - eps:
            return i
    return len(ys)  # no value is within eps of a NaN max(ys): the first was NaN


def greedy_fill(
    f: ValueOracle, s: tuple, value: float, elements: Iterable[int], eps: float
) -> tuple:
    """Assign each of ``elements``, in turn, the label of maximal marginal
    gain, ties within eps going to the smallest label.

    ``value`` is f(s).  Each element costs k oracle calls, one batched call
    of its k children, whose values, as every batched read, are float64:
    the gains are taken against the current value, which then becomes the
    chosen child's.  Returns the final assignment, its value f(assignment)
    and the per-element :class:`GreedyTrace` list.  A gain that overflows
    a float raises :class:`OracleRangeError` (:func:`_gains`).
    """
    trace = []
    labels = np.arange(1, f.dims.k + 1)
    children = np.array([s] * f.dims.k, dtype=np.int64)  # rows of s, column e varied
    with np.errstate(over="ignore"):  # refused by _gains
        for e in elements:
            children[:, e] = labels
            values = f._eval_cols(children.T)
            gains = _gains(f, values, value, e).tolist()
            q = smallest_max_label(gains, eps)
            children[:, e] = q
            value = values[q - 1]
            trace.append(GreedyTrace(e, tuple(gains), beta=None, chosen=q))
    return tuple(children[0].tolist()), float(value), trace


def _gains(f: ValueOracle, values: np.ndarray, value, e: int) -> np.ndarray:
    """The marginal gains ``values - value`` of a greedy step at element e,
    refused when one overflows a float: the finite values of an oracle that
    goes negative can differ by more than the largest float.  A kept
    vector's values are finite and nonnegative, so no gain between them can
    overflow, and they are not checked.  The caller ignores the overflow
    in its own ``np.errstate``."""
    gains = values - value
    if f._kept is None and not np.isfinite(gains).all():
        raise OracleRangeError(
            f"oracle {f.name}: a marginal gain at element {e} overflows a float"
        )
    return gains


def extend_to_orthant(f: ValueOracle, s: Assignment, eps: float = EPS) -> tuple:
    """Assign every unassigned element the label of maximal marginal gain.

    Elements are visited in index order; marginal ties within eps are broken
    toward the smallest label.  For r-wise monotone f this never decreases
    the value (some marginal in any size-r label set is nonnegative, so the
    best one is); that precondition is the caller's responsibility.  ``s``
    is refused as ``f(s)`` would refuse it, and an orthant is returned as
    it is, with no oracle call.
    """
    check_eps(eps)
    cur = f._checked(s)
    if is_orthant(cur):
        return cur
    unassigned = [e for e, v in enumerate(cur) if v == 0]
    return greedy_fill(f, cur, f(cur), unassigned, eps)[0]


def deterministic_greedy(
    f: ValueOracle,
    order: Sequence[int] | None = None,
    eps: float = EPS,
) -> MaximizeResult:
    """Fix each element, in the given order, to the label of largest
    marginal gain; ties within eps go to the smallest label.

    Achieves at least 1/(1+r) of the optimum on functions submodular in
    every orthant and r-wise monotone, hence 1/3 on k-submodular functions.
    Uses 1 + n*k evaluations: the value is f(solution), the last chosen
    child's.  Gains, value and trace are Python floats whatever type f
    returns: an int ``fn``'s values above 2^53 are rounded before they are
    compared.
    """
    dims = f.dims
    order = _validated_order(order, dims.n)
    check_eps(eps)
    s = (0,) * dims.n
    s, value, trace = greedy_fill(f, s, f(s), order, eps)
    return MaximizeResult(s, value, 1 + dims.n * dims.k, trace)


def _clamped_sums(raw: np.ndarray, eps: float) -> tuple:
    """The randomized greedy's rule on gains, one row per run or node: the
    gains clamped at 0, their running sums, added left to right, whose last
    column is the normalizer beta, and whether each row branches."""
    clamped = np.where(raw > 0.0, raw, 0.0)
    sums = np.array(clamped, order="F")  # a copy, whose columns add in place
    for i in range(1, raw.shape[1]):  # as cumsum(axis=1) adds, without its loop per row
        sums[:, i] += sums[:, i - 1]
    beta = sums[:, -1]
    return clamped, sums, beta > eps


def randomized_greedy(
    f: ValueOracle,
    seed: int,
    order: Sequence[int] | None = None,
    eps: float = EPS,
) -> MaximizeResult:
    """Fix each element, in the given order, to a random label chosen with
    probability proportional to its clamped marginal gain max(0, gain).

    When every clamped gain is zero (normalizer beta <= eps) the element is
    set to label 1.  Labels are sampled by inverse CDF over the clamped
    gains in label order from one uniform draw per element, so a run with a
    fixed seed is reproducible and matches the exact decision-tree
    expectation branch for branch.  This is the one-trial case of the
    sampler behind :func:`empirical_expectation`.
    """
    dims = f.dims
    order = _validated_order(order, dims.n)
    check_eps(eps)
    check_int("seed", seed, 0)
    trace = []
    labels, values = _greedy_runs(f, [seed], order, eps, trace)
    return MaximizeResult(
        tuple(labels[0].tolist()), float(values[0]), 1 + dims.n * dims.k, trace
    )


def exact_expectation_randomized_greedy(
    f: ValueOracle,
    order: Sequence[int] | None = None,
    eps: float = EPS,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Exact expected final value of the randomized greedy, by enumerating
    its decision tree level by level with exact branch probabilities.

    Zero-gain labels under a positive normalizer carry probability zero and
    are not branched on; a zero normalizer (beta <= eps) forces label 1
    and an overflowing one (beta = inf) label k deterministically, mirroring
    the sampler.  Each node's gains, normalizer and branch probabilities take
    the same floating-point steps as :func:`randomized_greedy`, each node's
    value is its oracle value, and each internal node costs k evaluations,
    read with every node of its level as one batch of the indices the tree
    builds, unchecked.  Each level takes its shares with one division,
    clamped / beta: a node that does not branch first takes the clamped
    row 1 on its one label and 0 elsewhere, and beta = 1, so its share is
    exactly 1.0 there.  At k = 1 the tree is one path, label 1 at every
    element, walked as the sampler's one run: its indices would overflow
    int64 from n = 64 on.  From k = 2 on, a tree whose (k+1)^n indices do
    not all fit in an int64, possible only under a raised ``max_states``,
    is refused.
    """
    dims = f.dims
    dims.check_cap("randomized-greedy decision tree", max_states, dims.k)
    order = _validated_order(order, dims.n)
    check_eps(eps)
    if dims.k == 1:
        return float(_greedy_runs(f, [0], order, eps)[1][0])
    dims.check_cap("randomized-greedy decision tree", 2**63, unit="int64 indices")
    k, base = dims.k, dims.k + 1
    labels = np.arange(1, base, dtype=np.int64)
    # the frontier: one entry per tree node at the current depth
    idx = np.zeros(1, dtype=np.int64)
    value = f._at(idx)
    prob = np.ones(1)
    with np.errstate(over="ignore"):  # beta may overflow to inf: see below
        for e in order:
            children = idx[:, None] + labels * base**e
            values = f._at(children)
            clamped, sums, branching = _clamped_sums(_gains(f, values, value[:, None], e), eps)
            beta, last = sums[:, -1], np.isinf(sums[:, -1])
            # a node that does not branch takes label 1 (beta <= eps), or
            # label k (beta = inf: u = r * inf is below no partial sum)
            settled = np.flatnonzero(~branching | last)
            if settled.size:  # most levels have none: writing every level slowed the tree 14%
                clamped[settled] = 0.0
                clamped[settled, (k - 1) * last[settled]] = 1.0
                beta[settled] = 1.0
            take = clamped > 0.0
            share = clamped / beta[:, None]
            idx = children[take]
            value = values[take]
            prob = (prob[:, None] * share)[take]
    return _fsum(f, (prob * value).tolist(), "expected value")


def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's first count + 1 hash constants from ``init``, one per
    row: taken on Python ints, so no numpy scalar overflows."""
    consts = [init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(count + 1)]
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's uint32 hashmix of ``words`` by each row of ``consts``
    but the last: xored with that constant, times the next."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ words >> 16


def _mixed(x: np.ndarray, words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's uint32 mix of the pool words x with hashmixed words."""
    x = x * 0xCA01F9DD - _hashmix(words, consts) * 0x4973F715
    return x ^ x >> 16


def _mul64(a: np.ndarray, b) -> tuple:
    """The 128-bit products of uint64 operands a * b, as (high, low) uint64
    halves: four 32 x 32-bit partial products and their carries."""
    low32, w = np.uint64(0xFFFFFFFF), np.uint64(32)
    a_hi, a_lo, b_hi, b_lo = a >> w, a & low32, b >> w, b & low32
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (lo_lo >> w) + (lo_hi & low32) + (hi_lo & low32)
    high = a_hi * b_hi + (lo_hi >> w) + (hi_lo >> w) + (mid >> w)
    return high, mid << w | lo_lo & low32


def _raw_words(seeds: list, count: int) -> np.ndarray:
    """(len(seeds), count) uint64 matrix whose row t is
    ``default_rng(seeds[t]).bit_generator.random_raw(count)``.

    From 16 seeds on (fewer do not repay the fixed cost), numpy's
    SeedSequence runs over all of them at once on uint32 arrays, and
    PCG64's seeding step follows on uint64 (high, low) halves of its
    128-bit state; per seed, one PCG64 is set to that state and draws the
    row.  numpy keeps the output of both steps, and of PCG64 itself,
    stable across versions."""
    seeds = [int(s) for s in seeds]
    if len(seeds) < 16:
        rows = [np.random.default_rng(s).bit_generator.random_raw(count) for s in seeds]
        return np.array(rows, dtype=np.uint64).reshape(len(seeds), count)
    width = max(4, -(-max(seeds).bit_length() // 32))  # uint32 words per seed
    data = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    entropy = np.frombuffer(data, dtype="<u4").reshape(len(seeds), width).T
    consts = _consts(0x43B0D7E5, 0x931E8875, 4 * len(entropy))  # 4 per word
    pool = _hashmix(entropy[:4], consts[:5])  # a seed's missing words are 0
    for src in range(4):  # each pool word into the other three, in one step
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mixed(pool[dst], pool[src], consts[4 + 3 * src : 8 + 3 * src])
    for src in range(4, len(entropy)):  # the words of seeds >= 2**128 come last
        mixed = _mixed(pool, entropy[src], consts[4 * src : 4 * src + 5])
        pool = np.where(entropy[src:].any(axis=0), mixed, pool)  # seeds that reach src
    # four uint64 words, as eight uint32 words, low word first: the high
    # and low halves of the start, then of the stream
    half = _hashmix(pool[[0, 1, 2, 3] * 2], _consts(0x8B51F9DD, 0x58F38DED, 8))
    half = half.astype(np.uint64)
    one, w = np.uint64(1), np.uint64(32)
    start_hi, start_lo, seq_hi, seq_lo = (half[i + 1] << w | half[i]
                                          for i in (0, 2, 4, 6))
    # PCG64's srandom: two LCG steps from 0, the start added between, so the
    # state is (inc + start) * mult + inc, mod 2^128
    inc_hi, inc_lo = seq_hi << one | seq_lo >> np.uint64(63), seq_lo << one | one
    lo = inc_lo + start_lo
    hi = inc_hi + start_hi + (lo < inc_lo)
    mult_hi, mult_lo = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
    prod_hi, prod_lo = _mul64(lo, mult_lo)
    hi = prod_hi + lo * mult_hi + hi * mult_lo
    lo = prod_lo + inc_lo
    hi = hi + inc_hi + (lo < prod_lo)
    bits, state = np.random.PCG64(0), {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    rows = []
    for s_hi, s_lo, i_hi, i_lo in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(),
                                      inc_lo.tolist()):
        state["state"], state["inc"] = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        bits.state = full
        rows.append(bits.random_raw(count))
    return np.concatenate(rows).reshape(len(seeds), count)


def _uniforms(seeds: list, count: int) -> np.ndarray:
    """(len(seeds), count) matrix whose row t is
    ``default_rng(seeds[t]).random(count)``: numpy's ``next_double``, the
    top 53 bits of each raw word times 2^-53."""
    return (_raw_words(seeds, count) >> np.uint64(11)) * 2.0**-53


def _lemire(words: np.ndarray, k: int) -> tuple:
    """numpy's bounded draws of a label in 1..k from raw words, by Lemire's
    method: for k <= 2^32 one draw per 32-bit half, low half first, else
    one per word.  A draw x of that width gives label 1 + (x * k >> width),
    and is rejected while x * k mod 2^width < (2^width - k) mod k.  Returns
    each draw's label, int64, and whether it is accepted."""
    low32, w = np.uint64(0xFFFFFFFF), np.uint64(32)
    if k <= 2**32:
        x = np.stack([words & low32, words >> w], axis=-1).reshape(len(words), -1)
        prod = x * np.uint64(k)
        high, low, width = prod >> w, prod & low32, 32
    else:
        (high, low), width = _mul64(words, np.uint64(k)), 64
    accepted = low >= np.uint64((2**width - k) % k)
    return high.astype(np.int64) + 1, accepted


def _labels(seeds: list, k: int, n: int) -> np.ndarray:
    """(len(seeds), n) int64 matrix whose row t is
    ``default_rng(seeds[t]).integers(1, k + 1, size=n)``: the first n
    accepted draws of :func:`_lemire`, none at k = 1.  A row with a
    rejected draw among them reads on, over a longer prefix of its words
    where it needs one."""
    if k == 1:
        return np.ones((len(seeds), n), dtype=np.int64)
    count = n if k > 2**32 else -(-n // 2)  # words holding n draws
    labels, accepted = _lemire(_raw_words(seeds, count), k)
    out = labels[:, :n].copy()
    for t in np.flatnonzero(~accepted[:, :n].all(axis=1)).tolist():
        row, more = labels[t][accepted[t]], count
        while len(row) < n:
            more *= 2
            more_labels, more_accepted = _lemire(_raw_words(seeds[t : t + 1], more), k)
            row = more_labels[0][more_accepted[0]]
        out[t] = row[:n]
    return out


def _greedy_runs(
    f: ValueOracle, seeds: list, order: tuple, eps: float, trace: list | None = None
) -> tuple:
    """Final label rows and values of the randomized greedy run with each
    of ``seeds``, all runs advancing together one element at a time; the
    first run's steps are appended to ``trace`` when one is given.

    Run t takes ``default_rng(seeds[t]).random()``'s values in turn
    (:func:`_uniforms`), one r per branching step, and the first label
    whose running sum of clamped gains exceeds u = r * beta, read from one
    comparison with the row of sums, else label k.  Each run evaluates
    f(0) once, then at each element the k children of its assignment: one
    batched call over all runs' children, so len(seeds) * k rows."""
    m, n, k = len(seeds), f.dims.n, f.dims.k
    runs = np.arange(m)
    draws = _uniforms(seeds, n)  # one per branching step, so n suffice
    used = np.zeros(m, dtype=np.int64)  # draws each run has taken
    labels = np.zeros((m, n), dtype=np.int64)
    value = f._eval_cols(labels.T)  # f(0): each run evaluates it once
    child_labels = np.tile(np.arange(1, k + 1), m)
    with np.errstate(over="ignore", invalid="ignore"):  # sums overflow; u = 0 * inf
        for e in order:
            children = np.repeat(labels, k, axis=0)
            children[:, e] = child_labels
            values = f._eval_cols(children.T).reshape(m, k)
            clamped, sums, branching = _clamped_sums(_gains(f, values, value[:, None], e), eps)
            u = draws[runs, used] * sums[:, -1]
            used += branching
            hit = u[:, None] < sums  # none when beta = inf: u is inf, or NaN at r = 0
            q = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, k)
            q[~branching] = 1
            labels[:, e] = q
            value = values[runs, q - 1]
            if trace is not None:
                trace.append(GreedyTrace(e, tuple(clamped[0].tolist()),
                                         float(sums[0, -1]), int(q[0])))
    return labels, value


def _random_runs(f: ValueOracle, seeds: list) -> tuple:
    """Label rows and values of the uniform random orthant drawn with each
    of ``seeds``, row t ``default_rng(seeds[t]).integers(1, k + 1, n)``
    (:func:`_labels`), all scored in one batched call."""
    labels = _labels(seeds, f.dims.k, f.dims.n)
    return labels, f._eval_cols(labels.T)


def empirical_expectation(
    f: ValueOracle,
    algo: str,
    trials: int,
    seed: int,
    order: Sequence[int] | None = None,
    eps: float = EPS,
) -> tuple:
    """Sample mean and standard error of an algorithm's value over
    independent runs.

    Trial t *is* the single run with seed ``seed ^ t``: both are rows of
    the same sampler, so its value is bit for bit that of
    ``randomized_greedy(f, seed ^ t, order, eps)`` or
    ``naive_random_sample(f, seed ^ t)``, and the oracle is charged the
    same calls, so any trial can be replayed with its trace.  The trials
    advance together in chunks of EVAL_BLOCK // k, through one batched
    evaluation of every trial's k children per element.  Each chunk seeds
    its trials in one pass and reads their raw PCG64 words as one matrix
    (:func:`_raw_words`); the uniforms and labels are numpy's ``random``
    and ``integers``, ported bit for bit, so a trial's draws are
    ``default_rng(seed ^ t)``'s and call no Generator method.  What remains
    per trial is setting one PCG64's state and reading its words.  Values
    whose mean or variance overflows raise :class:`OracleRangeError`.  With
    a single trial the standard error is reported as 0.0.  ``algo`` is
    "random" (uniform orthant) or "greedy_rand".
    """
    check_int("trials", trials, 1)
    check_int("seed", seed, 0)
    if algo == "greedy_rand":
        order = _validated_order(order, f.dims.n)
        check_eps(eps)
    elif algo != "random":
        raise InputError(f"unknown algorithm {algo!r}; use 'random' or 'greedy_rand'")
    chunk = max(1, EVAL_BLOCK // f.dims.k)  # a greedy step evaluates chunk * k rows
    values = []
    for lo in range(0, trials, chunk):
        seeds = [seed ^ t for t in range(lo, min(lo + chunk, trials))]
        if algo == "greedy_rand":
            values += _greedy_runs(f, seeds, order, eps)[1].tolist()
        else:
            values += _random_runs(f, seeds)[1].tolist()
    what = f"mean or variance of {trials} trial values"
    mean = _fsum(f, values, what) / trials
    var = _fsum(f, ((v - mean) ** 2 for v in values), what) / max(1, trials - 1)
    return mean, math.sqrt(var / trials)


def random_orthant_guarantee(k: int) -> float:
    """Worst-case fraction of the optimum the uniform random orthant attains
    in expectation on k-submodular functions: 1/4 for k=2, 1/k for k>=3."""
    if k < 2:
        raise InputError(f"guarantee defined for k >= 2, got {k}")
    return 0.25 if k == 2 else 1.0 / k


def det_greedy_guarantee(r: int) -> float:
    """Worst-case ratio of the deterministic greedy on functions submodular
    in every orthant and r-wise monotone: 1/(1+r)."""
    if r < 1:
        raise InputError(f"guarantee defined for r >= 1, got {r}")
    return 1.0 / (1.0 + r)


def rand_greedy_guarantee(k: int) -> float:
    """Worst-case expected ratio of the randomized greedy on functions
    submodular in every orthant and k-wise monotone: 1/(1 + sqrt(k/2))."""
    if k < 2:
        raise InputError(f"guarantee defined for k >= 2, got {k}")
    return 1.0 / (1.0 + math.sqrt(k / 2.0))


def rand_greedy_guarantee_ksub(k: int) -> float:
    """Sharper randomized-greedy guarantee on k-submodular functions:
    1/(1 + max(1, sqrt((k-1)/4)))."""
    if k < 2:
        raise InputError(f"guarantee defined for k >= 2, got {k}")
    return 1.0 / (1.0 + max(1.0, math.sqrt((k - 1) / 4.0)))
