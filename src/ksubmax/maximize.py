"""Maximization algorithms and the exact oracles used to audit them.

Three algorithms: evaluate one uniform random orthant, the deterministic
greedy (per element, take the label of largest marginal gain, smallest label
on ties), and the randomized greedy (per element, pick a label with
probability proportional to its clamped marginal gain), each rule written
once (:func:`smallest_max_label`, :func:`_clamped_sums`).  Alongside them:
brute-force maximization, the exact expectation of the random-orthant draw,
and an exact decision-tree expectation for the randomized greedy, so every
approximation guarantee can be verified at desk scale without sampling
noise.  All randomness is seeded and reproducible within this
implementation.  Each randomized algorithm has one sampler, which advances
any number of seeded runs together over a matrix of label rows: a single
run is its one-seed case and trial t of :func:`empirical_expectation` is
row t.  Every value comes from the oracle, which refuses a non-finite one
with :class:`~ksubmax.core.OracleRangeError`; a sum of finite values that
overflows a float is refused here.
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
    _digits,
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
        idx = _digits(np.arange(1, dims.k + 1), dims.k + 1, dims.n)
        values = f.eval_indices(idx)
    else:
        idx, values = None, f.eval_all()
    best = int(np.argmax(values))  # the first maximum: ties go to the smaller index
    x = assignment_of(best if idx is None else int(idx[best]), dims)
    return MaximizeResult(x, float(values[best]), evals=values.size, trace=None)


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
    idx = _digits(np.arange(1, dims.k + 1), dims.k + 1, dims.n)
    values = f.eval_indices(idx).tolist()
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

    ``value`` is f(s); the running value is tracked incrementally, so this
    makes k oracle calls per element, one batched call of its k children,
    whose values, as every batched read, are float64.  Returns the final
    assignment, its value and the per-element :class:`GreedyTrace` list.
    """
    trace = []
    labels = np.arange(1, f.dims.k + 1)
    children = np.array([s] * f.dims.k, dtype=np.int64)  # rows of s, column e varied
    for e in elements:
        children[:, e] = labels
        gains = (f._eval_rows(children) - value).tolist()
        q = smallest_max_label(gains, eps)
        children[:, e] = q
        value += gains[q - 1]
        trace.append(GreedyTrace(e, tuple(gains), beta=None, chosen=q))
    return tuple(children[0].tolist()), value, trace


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
    Uses 1 + n*k evaluations: the running value is tracked incrementally.
    Gains, value and trace are float64 whatever type f returns: an int
    ``fn``'s values above 2^53 are rounded before they are compared.
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
    the same floating-point steps as :func:`randomized_greedy`, and each
    internal node costs k evaluations.
    """
    dims = f.dims
    dims.check_cap("randomized-greedy decision tree", max_states, dims.k)
    order = _validated_order(order, dims.n)
    check_eps(eps)
    k, base = dims.k, dims.k + 1
    # the frontier: one entry per tree node at the current depth
    idx = np.zeros(1, dtype=np.int64)
    value = f.eval_indices(idx)
    prob = np.ones(1)
    with np.errstate(over="ignore"):  # beta may overflow to inf: see below
        for e in order:
            children = idx[:, None] + np.arange(1, base, dtype=np.int64) * base**e
            raw = f.eval_indices(children.ravel()).reshape(-1, k) - value[:, None]
            clamped, sums, branching = _clamped_sums(raw, eps)
            beta = sums[:, -1]
            overflow = np.isinf(beta)
            split = branching & ~overflow
            share = np.ones_like(clamped)
            np.divide(clamped, beta[:, None], out=share, where=split[:, None])
            take = (clamped > 0.0) & split[:, None]
            take[~branching, 0] = True  # beta <= eps: label 1, probability kept
            take[overflow, -1] = True  # u = r * inf is below no partial sum: label k
            idx = children[take]
            value = (value[:, None] + raw)[take]
            prob = (prob[:, None] * share)[take]
    return math.fsum((prob * value).tolist())


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


def _seeded(seeds: list):
    """Yield, for each of ``seeds`` in turn, a Generator in the state of
    ``default_rng(seed)``.  From 16 seeds on (fewer do not repay the fixed
    cost), numpy's SeedSequence runs over all of them at once on uint32
    arrays, and PCG64's seeding step follows on Python ints: numpy keeps
    the output of both stable across versions, but not that of its
    Generator methods, so the draws are numpy's own, from one PCG64 and
    one Generator whose state is set before each yield."""
    seeds = [int(s) for s in seeds]
    if len(seeds) < 16:
        yield from map(np.random.default_rng, seeds)
        return
    sizes = np.array([max(1, -(-s.bit_length() // 32)) for s in seeds])  # in words
    entropy = np.array([[s >> 32 * i & 0xFFFFFFFF for s in seeds]
                        for i in range(max(4, sizes.max()))], dtype=np.uint32)
    consts = _consts(0x43B0D7E5, 0x931E8875, 4 * len(entropy))  # 4 per word
    pool = _hashmix(entropy[:4], consts[:5])  # a seed's missing words are 0
    for src in range(4):  # each pool word into the other three, in one step
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mixed(pool[dst], pool[src], consts[4 + 3 * src : 8 + 3 * src])
    for src in range(4, len(entropy)):  # the words of seeds >= 2**128 come last
        mixed = _mixed(pool, entropy[src], consts[4 * src : 4 * src + 5])
        pool = np.where(sizes > src, mixed, pool)
    # four uint64 words, as eight uint32 words, low word first
    words = _hashmix(pool[[0, 1, 2, 3] * 2], _consts(0x8B51F9DD, 0x58F38DED, 8))
    bits, mask = np.random.PCG64(0), (1 << 128) - 1
    gen = np.random.Generator(bits)
    for w in zip(*words.tolist()):  # PCG64's srandom: two LCG steps, start added between
        start = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & mask | 1
        state = ((inc + start) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & mask
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield gen


def _greedy_runs(
    f: ValueOracle, seeds: list, order: tuple, eps: float, trace: list | None = None
) -> tuple:
    """Final label rows and values of the randomized greedy run with each
    of ``seeds``, all runs advancing together one element at a time; the
    first run's steps are appended to ``trace`` when one is given.

    Run t draws from ``default_rng(seeds[t])``'s stream (:func:`_seeded`),
    one uniform r per branching step, and takes the first label whose
    running sum of clamped gains exceeds u = r * beta, read from one
    comparison with the row of sums, else label k.  Each run evaluates
    f(0) once, then at each element the k children of its assignment: one
    batched call over all runs' children, so len(seeds) * k rows."""
    m, n, k = len(seeds), f.dims.n, f.dims.k
    runs = np.arange(m)
    draws = np.empty((m, n))
    for t, gen in enumerate(_seeded(seeds)):
        # a run takes its next draw only on a branching step, so n suffice
        gen.random(out=draws[t])
    used = np.zeros(m, dtype=np.int64)  # draws each run has taken
    labels = np.zeros((m, n), dtype=np.int64)
    value = f._eval_rows(labels)  # f(0): each run evaluates it once
    child_labels = np.tile(np.arange(1, k + 1), m)
    with np.errstate(over="ignore", invalid="ignore"):  # sums overflow; u = 0 * inf
        for e in order:
            children = np.repeat(labels, k, axis=0)
            children[:, e] = child_labels
            raw = f._eval_rows(children).reshape(m, k) - value[:, None]
            clamped, sums, branching = _clamped_sums(raw, eps)
            u = draws[runs, used] * sums[:, -1]
            used += branching
            hit = u[:, None] < sums  # none when beta = inf: u is inf, or NaN at r = 0
            q = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, k)
            q[~branching] = 1
            labels[:, e] = q
            value = value + raw[runs, q - 1]
            if trace is not None:
                trace.append(GreedyTrace(e, tuple(clamped[0].tolist()),
                                         float(sums[0, -1]), int(q[0])))
    return labels, value


def _random_runs(f: ValueOracle, seeds: list) -> tuple:
    """Label rows and values of the uniform random orthant drawn with each
    of ``seeds``, drawn from :func:`_seeded`'s generators and all scored
    in one batched call."""
    labels = np.empty((len(seeds), f.dims.n), dtype=np.int64)
    for t, gen in enumerate(_seeded(seeds)):
        labels[t] = gen.integers(1, f.dims.k + 1, size=f.dims.n)
    return labels, f._eval_rows(labels)


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
    its trials' generators in one pass (:func:`_seeded`), and trial t's
    stream is ``default_rng(seed ^ t)``'s, bit for bit; what remains per
    trial is setting its generator's state and numpy's own draws.  Values
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
