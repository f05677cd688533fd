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
    GreedyTrace,
    InputError,
    ValueOracle,
    all_assignments,
    all_orthants,
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
    count = dims.num_orthants if over_orthants_only else dims.num_assignments
    states = all_orthants(dims) if over_orthants_only else all_assignments(dims)
    best_x: tuple | None = None
    best_v = -math.inf
    for x in states:
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    assert best_x is not None
    return MaximizeResult(best_x, best_v, evals=count, trace=None)


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
    return math.fsum(f(x) for x in all_orthants(dims)) / dims.num_orthants


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
    """Exact expected final value of the randomized greedy, by depth-first
    enumeration of its decision tree with exact branch probabilities.

    Zero-gain labels under a positive normalizer carry probability zero and
    are not branched on; a zero normalizer (beta <= eps) forces label 1
    deterministically, mirroring the sampler.
    """
    dims = f.dims
    dims.check_cap("randomized-greedy decision tree", max_states, dims.k)
    order = _validated_order(order, dims.n)
    check_eps(eps)
    leaves: list[float] = []

    def walk(s: tuple, value: float, prob: float, depth: int) -> None:
        if depth == len(order):
            leaves.append(prob * value)
            return
        e = order[depth]
        raw = marginal_gains(f, s, e, value)
        clamped, beta = _clamped_gains(raw)
        if beta > eps:
            for i, g in enumerate(clamped, start=1):
                if g > 0.0:
                    walk(
                        with_label(s, e, i),
                        value + raw[i - 1],
                        prob * (g / beta),
                        depth + 1,
                    )
        else:
            walk(with_label(s, e, 1), value + raw[0], prob, depth + 1)

    zero = (0,) * dims.n
    walk(zero, f(zero), 1.0, 0)
    return math.fsum(leaves)


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
