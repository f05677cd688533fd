"""Answer keys and output checks that do not run ksubmax code.

Instance documents are evaluated by this module's own numpy code, expected
values come from the loop-based references in ``tests/oracles.py``, and a
reported witness is re-evaluated from the raw table values.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

#: Slack when comparing floats that were summed in a different order.
TOL = 1e-9


def digits(n: int, k: int) -> np.ndarray:
    """Row i holds the labels of assignment i (element 0 least significant)."""
    idx = np.arange((k + 1) ** n, dtype=np.int64)
    return (idx[:, None] // (k + 1) ** np.arange(n, dtype=np.int64)) % (k + 1)


def index(x, k: int) -> int:
    return sum(int(v) * (k + 1) ** e for e, v in enumerate(x))


def lookup(values: np.ndarray, k: int):
    """The function a value table describes, as a callable on tuples."""
    return lambda x: float(values[index(x, k)])


def evaluate(doc: dict) -> np.ndarray:
    """Value of an instance document at every assignment, in index order."""
    n, k, kind = doc["n"], doc["k"], doc["kind"]
    if kind == "tabular":
        return np.asarray(doc["values"], dtype=float)
    d = digits(n, k)
    if kind == "coverage_tight":
        gamma = 1.0 / math.sqrt(k - 1)
        return (d[:, 0] == 1) + gamma * ((d[:, 0] >= 2) | (d[:, 1] >= 1))
    if kind == "sum":
        weights = doc.get("weights") or [1.0] * len(doc["terms"])
        out = np.zeros(len(d))
        for w, term in zip(weights, doc["terms"]):
            out += w * evaluate(term)
        return out
    if kind == "embedding":
        g = evaluate(doc["base"])
        pows = 2 ** np.arange(n)
        first = (d == 1) @ pows
        co_second = (d != 2) @ pows
        return g[first] + g[co_second] - g[2**n - 1]
    edges = doc["edges"]
    weights = doc.get("weights") or [1.0] * len(edges)
    out = np.zeros(len(d))
    for (u, v), w in zip(edges, weights):
        xu, xv = d[:, u], d[:, v]
        if kind == "max_k_cut":
            out += w * (xu != xv)
        elif kind == "layer_layout":
            edge = np.where(xv == 0, (k - xu) / k, np.where(xu == 0, (xv - 1) / k, 1.0 * (xu < xv)))
            out += w * np.where((xu == 0) & (xv == 0), 0.0, edge)
        else:
            raise ValueError(f"no reference evaluator for kind {kind!r}")
    return out


def expectations(values: np.ndarray, n: int, k: int) -> dict:
    """Optimum and the exact expectations of the random orthant and the
    randomized greedy, from the loop-based references."""
    f = lookup(values, k)
    return {
        "opt": float(values.max()),
        "exp_random": oracles.expect_random_orthant(f, n, k),
        "exp_greedy": oracles.expect_randomized_greedy(f, n, k),
    }


def first_ksub_violation(values: np.ndarray, n: int, k: int, eps: float = 1e-9):
    """Lexicographically first pair (index(s), index(t)) violating
    f(s) + f(t) >= f(min0(s,t)) + f(max0(s,t)), or None."""
    d = digits(n, k)
    meet = np.zeros((len(d), len(d)), dtype=np.int64)
    join = np.zeros_like(meet)
    for e in range(n):
        a, b = d[:, e][:, None], d[:, e][None, :]
        clash = (a != b) & (a != 0) & (b != 0)
        meet += np.where(clash, 0, np.minimum(a, b)) * (k + 1) ** e
        join += np.where(clash, 0, np.maximum(a, b)) * (k + 1) ** e
    bad = values[:, None] + values[None, :] < values[meet] + values[join] - eps
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), len(d))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def check_witness(values: np.ndarray, k: int, counterexample: dict) -> list[str]:
    """Re-evaluate a reported counterexample from the raw table values."""
    f = lookup(values, k)
    margin_of = (
        oracles.monotone_violation_margin
        if "labels" in counterexample
        else oracles.violation_margin
    )
    try:
        margin = margin_of(f, counterexample)
    except (AssertionError, KeyError, IndexError, TypeError) as exc:
        return [f"witness does not re-evaluate: {exc!r} in {counterexample}"]
    if not margin > 0:
        return [f"witness is not a violation (margin {margin}): {counterexample}"]
    return []


def check_maximize(values: np.ndarray, k: int, key: dict, result: dict,
                   budget: int | None) -> list[str]:
    """A reported solution must have the reported value, no value may beat
    the optimum, and a greedy run stays within its 2kn evaluations."""
    problems = []
    actual = float(values[index(result["solution"], k)])
    if not close(actual, result["value"]):
        problems.append(f"reported value {result['value']} but f(solution) = {actual}")
    if result["value"] > key["opt"] + TOL:
        problems.append(f"value {result['value']} exceeds the optimum {key['opt']}")
    if budget is not None and result["evals"] > budget:
        problems.append(f"{result['evals']} evaluations exceed 2kn = {budget}")
    return problems


def check_expectation(name: str, expected: float, got: float) -> list[str]:
    if close(expected, got):
        return []
    return [f"{name} is {got}, answer key says {expected}"]


def check_sample_mean(exact: float, mean: float, stderr: float) -> list[str]:
    """An empirical mean must lie within 4 standard errors of the exact
    expectation."""
    if abs(mean - exact) <= 4.0 * stderr + TOL:
        return []
    return [f"empirical mean {mean} (stderr {stderr}) is off the exact {exact}"]
