"""Maximization algorithms and the exact oracles used to audit them.

Three algorithms: evaluate one uniform random orthant, the deterministic
greedy (per element, take the label of largest marginal gain, smallest label
on ties), and the randomized greedy (per element, pick a label with
probability proportional to its clamped marginal gain).  Alongside them:
brute-force maximization, the exact expectation of the random-orthant draw,
and an exact decision-tree expectation for the randomized greedy, so every
approximation guarantee can be verified at desk scale without sampling
noise.  All randomness is seeded and reproducible within this
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_MAX_STATES,
    EPS,
    Dims,
    GreedyTrace,
    InputError,
    OracleRangeError,
    ValueOracle,
    assignment_of,
    check_eps,
    greedy_fill,
    marginal_gains,
    with_label,
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


def _finite_values(f: ValueOracle, idx: np.ndarray) -> np.ndarray:
    """f at the indices idx; refuses a non-finite value, naming the first."""
    values = f.eval_indices(idx)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        j = int(bad[0])
        x = assignment_of(int(idx[j]), f.dims)
        raise OracleRangeError(
            f"oracle {f.name} has a non-finite value at {x}: {float(values[j])}"
        )
    return values


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
    values = _finite_values(f, idx)
    best = int(np.argmax(values))  # the first maximum: ties go to the smaller index
    x = assignment_of(int(idx[best]), dims)
    return MaximizeResult(x, float(values[best]), evals=idx.size, trace=None)


def naive_random_sample(f: ValueOracle, seed: int) -> MaximizeResult:
    """Evaluate one orthant drawn uniformly at random (each element gets an
    independent uniform label in 1..k)."""
    rng = np.random.default_rng(seed)
    x = tuple(int(v) for v in rng.integers(1, f.dims.k + 1, size=f.dims.n))
    return MaximizeResult(x, f(x), evals=1, trace=None)


def exact_expectation_random_orthant(
    f: ValueOracle, max_states: int = DEFAULT_MAX_STATES
) -> float:
    """Mean of f over all k^n orthants: the exact expected value of the
    uniform random draw, computed by enumeration."""
    dims = f.dims
    dims.check_cap("random-orthant expectation", max_states, dims.k)
    values = _finite_values(f, _orthant_indices(dims))
    return math.fsum(values.tolist()) / dims.num_orthants


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


def _clamped_gains(raw: list) -> tuple:
    """Gains clamped at zero and their sum beta, the randomized greedy's
    normalizer.  beta is accumulated left to right, so seeded picks do not
    depend on the interpreter's float summation."""
    clamped = [g if g > 0.0 else 0.0 for g in raw]
    beta = 0.0
    for g in clamped:
        beta += g
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
    expectation branch for branch.
    """
    dims = f.dims
    order = _validated_order(order, dims.n)
    check_eps(eps)
    rng = np.random.default_rng(seed)
    s = (0,) * dims.n
    value = f(s)
    trace = []
    for e in order:
        raw = marginal_gains(f, s, e, value)
        clamped, beta = _clamped_gains(raw)
        if beta > eps:
            u = rng.random() * beta
            acc = 0.0
            q = dims.k
            for i, g in enumerate(clamped, start=1):
                acc += g
                if u < acc:
                    q = i
                    break
        else:
            q = 1
        s = with_label(s, e, q)
        value += raw[q - 1]
        trace.append(
            GreedyTrace(element=e, marginals=tuple(clamped), beta=beta, chosen=q)
        )
    return MaximizeResult(s, value, 1 + dims.n * dims.k, trace)


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
    deterministically, mirroring the sampler.  Each node's gains, normalizer
    and branch probabilities take the same floating-point steps as
    :func:`randomized_greedy`, and each internal node costs k evaluations.
    """
    dims = f.dims
    dims.check_cap("randomized-greedy decision tree", max_states, dims.k)
    order = _validated_order(order, dims.n)
    check_eps(eps)
    k, base = dims.k, dims.k + 1
    # the frontier: one entry per tree node at the current depth
    idx = np.zeros(1, dtype=np.int64)
    value = _finite_values(f, idx)
    prob = np.ones(1)
    for e in order:
        children = idx[:, None] + np.arange(1, base, dtype=np.int64) * base**e
        raw = _finite_values(f, children.ravel()).reshape(-1, k) - value[:, None]
        clamped = np.where(raw > 0.0, raw, 0.0)
        beta = np.zeros(len(idx))
        for i in range(k):  # left to right, as the sampler sums
            beta += clamped[:, i]
        branching = beta > eps
        share = np.ones_like(clamped)
        np.divide(clamped, beta[:, None], out=share, where=branching[:, None])
        take = (clamped > 0.0) & branching[:, None]
        take[~branching, 0] = True  # beta <= eps: label 1, probability kept
        idx = children[take]
        value = (value[:, None] + raw)[take]
        prob = (prob[:, None] * share)[take]
    return math.fsum((prob * value).tolist())


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

    Trial t runs with seed ``seed ^ t``, so serial and parallel executions
    agree.  With a single trial the standard error is reported as 0.0.
    ``algo`` is "random" (uniform orthant) or "greedy_rand".
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if algo == "random":
        values = [naive_random_sample(f, seed ^ t).value for t in range(trials)]
    elif algo == "greedy_rand":
        values = [
            randomized_greedy(f, seed ^ t, order, eps).value for t in range(trials)
        ]
    else:
        raise InputError(f"unknown algorithm {algo!r}; use 'random' or 'greedy_rand'")
    mean = math.fsum(values) / trials
    if trials == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
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
