"""Maximization algorithms and the exact oracles used to audit them.

Three algorithms: evaluate one uniform random orthant, the deterministic
greedy (per element, take the label of largest marginal gain, smallest label
on ties), and the randomized greedy (per element, pick a label with
probability proportional to its clamped marginal gain).  Alongside them:
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
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_STATES,
    EPS,
    EVAL_BLOCK,
    Dims,
    GreedyTrace,
    InputError,
    OracleRangeError,
    ValueOracle,
    assignment_of,
    check_eps,
    check_int,
    greedy_fill,
)


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
    order = tuple(int(e) for e in order)
    if sorted(order) != list(range(n)):
        raise InputError(f"order {order} is not a permutation of 0..{n - 1}")
    return order


def _orthant_indices(dims: Dims) -> np.ndarray:
    """Indices of the k^n orthants, in increasing order."""
    base = dims.k + 1
    idx = np.zeros(1, dtype=np.int64)
    for e in reversed(range(dims.n)):
        idx = (idx[:, None] + np.arange(1, base, dtype=np.int64) * base**e).ravel()
    return idx


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
        idx = _orthant_indices(dims)
    else:
        idx = np.arange(dims.num_assignments)
    values = f.eval_indices(idx)
    best = int(np.argmax(values))  # the first maximum: ties go to the smaller index
    x = assignment_of(int(idx[best]), dims)
    return MaximizeResult(x, float(values[best]), evals=idx.size, trace=None)


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
    values = f.eval_indices(_orthant_indices(dims)).tolist()
    return _fsum(f, values, f"sum of {len(values)} orthant values") / dims.num_orthants


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
    """
    dims = f.dims
    order = _validated_order(order, dims.n)
    check_eps(eps)
    s = (0,) * dims.n
    s, value, trace = greedy_fill(f, s, f(s), order, eps)
    return MaximizeResult(s, value, 1 + dims.n * dims.k, trace)


def _clamped_beta(raw: np.ndarray) -> tuple:
    """Each row of a matrix of gains clamped at zero, and the row sums beta,
    the randomized greedy's normalizers.  beta is accumulated left to right,
    so seeded picks do not depend on how numpy would sum a row."""
    clamped = np.where(raw > 0.0, raw, 0.0)
    beta = np.zeros(len(raw))
    for i in range(raw.shape[1]):  # a loop: sum(axis=1) may add pairwise
        beta += clamped[:, i]
    return clamped, beta


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
            clamped, beta = _clamped_beta(raw)
            branching = beta > eps
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


def _greedy_runs(
    f: ValueOracle, seeds: list, order: tuple, eps: float, trace: list | None = None
) -> tuple:
    """Final label rows and values of the randomized greedy run with each
    of ``seeds``, all runs advancing together one element at a time; the
    first run's steps are appended to ``trace`` when one is given.

    Run t draws from ``default_rng(seeds[t])``, one uniform r per branching
    step (beta > eps), and takes the first label whose running sum of
    clamped gains exceeds u = r * beta, else label k.  Each run evaluates
    f(0) once, then at each element the k children of its assignment: one
    batched call over all runs' children, so len(seeds) * k rows."""
    m, n, k = len(seeds), f.dims.n, f.dims.k
    runs = np.arange(m)
    draws = np.empty((m, n))
    for t, seed in enumerate(seeds):
        # a run takes its next draw only on a branching step, so n suffice
        np.random.default_rng(seed).random(out=draws[t])
    used = np.zeros(m, dtype=np.int64)  # draws each run has taken
    labels = np.zeros((m, n), dtype=np.int64)
    value = f._eval_rows(labels)  # f(0): each run evaluates it once
    child_labels = np.tile(np.arange(1, k + 1), m)
    with np.errstate(over="ignore"):  # beta and acc may overflow to inf
        for e in order:
            children = np.repeat(labels, k, axis=0)
            children[:, e] = child_labels
            raw = f._eval_rows(children).reshape(m, k) - value[:, None]
            clamped, beta = _clamped_beta(raw)
            branching = beta > eps
            u = draws[runs, used] * beta
            used += branching
            q = np.zeros(m, dtype=np.int64)  # 0: no label hit yet
            acc = np.zeros(m)
            for i in range(k):
                acc += clamped[:, i]
                q[(q == 0) & (u < acc)] = i + 1
            q[q == 0] = k
            q[~branching] = 1
            labels[:, e] = q
            value = value + raw[runs, q - 1]
            if trace is not None:
                trace.append(GreedyTrace(e, tuple(clamped[0].tolist()),
                                         float(beta[0]), int(q[0])))
    return labels, value


def _random_runs(f: ValueOracle, seeds: list) -> tuple:
    """Label rows and values of the uniform random orthant drawn with each
    of ``seeds``, all scored in one batched call."""
    labels = np.empty((len(seeds), f.dims.n), dtype=np.int64)
    for t, seed in enumerate(seeds):
        labels[t] = np.random.default_rng(seed).integers(1, f.dims.k + 1, size=f.dims.n)
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
    evaluation of every trial's k children per element; building each
    trial's generator (~10-20 us) is the remaining per-trial cost.  Values
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
