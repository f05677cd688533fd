"""Solution vectors, label-lattice operations, and the counted value oracle.

A solution over a ground set of ``n`` elements is a plain tuple of ints in
``{0, ..., k}``: label 0 means "unassigned", labels ``1..k`` name the parts
of the partition.  A vector with no zero entry is an *orthant* (a partition
of the whole ground set).  Everything downstream (function families,
property checkers, maximizers) consumes this one representation through
:class:`ValueOracle`, which counts evaluations so query complexity can be
audited, and refuses every NaN or infinite value.  Enumerations name
assignments by their mixed-radix index and evaluate whole index vectors at
once through :meth:`ValueOracle.eval_indices` or :meth:`ValueOracle.eval_all`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: Default tolerance for float comparisons.  Inequality ``A >= B`` is taken
#: to hold when ``A >= B - EPS``.
EPS = 1e-9

#: Default cap on the number of enumerated assignments (tabulation, brute
#: force, exact expectations).
DEFAULT_MAX_STATES = 10**6

#: Default cap on the number of enumerated assignment pairs (checkers).
DEFAULT_MAX_PAIRS = 10**8

#: Indices per block in :meth:`ValueOracle.eval_indices`, bound on the
#: (k+1)^m rows per block in :meth:`ValueOracle.eval_all` and, divided by
#: k, trials per chunk in ``maximize.empirical_expectation``.
EVAL_BLOCK = 2**14

Assignment = Sequence  # length-n sequence of ints in {0, ..., k}; tuples preferred


class InputError(ValueError):
    """Bad arguments: size mismatch, out-of-range field, exceeded cap."""


class PreconditionError(ValueError):
    """An operation was applied to a state it is not defined for."""


class OracleRangeError(ValueError):
    """A value oracle produced a negative or non-finite value; the codomain
    is R+."""


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: ground-set size n and number of parts k."""

    n: int
    k: int

    def __post_init__(self) -> None:
        for name in ("n", "k"):
            check_int(name, getattr(self, name), 1)
            # a numpy integer would compute (k+1)^n in int64, which wraps
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def num_assignments(self) -> int:
        return (self.k + 1) ** self.n

    @property
    def num_orthants(self) -> int:
        return self.k**self.n

    def check_cap(
        self, what: str, cap: int, base: int | None = None, unit: str = "states"
    ) -> None:
        """Refuse to enumerate more than ``cap`` of base^n items, by default
        the (k+1)^n assignments.  The count is named as a power: it can have
        more digits than Python will format."""
        base = self.k + 1 if base is None else base
        if base**self.n > cap:
            raise InputError(f"{what} needs {base}^{self.n} {unit}, cap is {cap}")


def check_eps(eps: float) -> None:
    """Refuse a tolerance that is not finite and >= 0: NaN or infinite slack
    passes every inequality, and negative slack fails equal sides."""
    if not 0.0 <= eps < math.inf:
        raise InputError(f"eps: must be finite and >= 0, got {eps}")


def check_int(name: str, value, least: int) -> None:
    """Refuse a ``name`` argument that is not an integer >= least; a bool
    is refused too, although Python counts it as an int."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral and value >= least):
        raise InputError(f"{name}: must be an integer >= {least}, got {value!r}")


def _require_same_length(a: Assignment, b: Assignment) -> None:
    if len(a) != len(b):
        raise InputError(f"assignments differ in length: {len(a)} vs {len(b)}")


def min0(a: Assignment, b: Assignment) -> tuple:
    """Coordinate-wise meet: 0 where the labels are distinct and both
    nonzero, otherwise ``min``."""
    _require_same_length(a, b)
    return tuple(
        0 if (x != y and x != 0 and y != 0) else min(x, y) for x, y in zip(a, b)
    )


def max0(a: Assignment, b: Assignment) -> tuple:
    """Coordinate-wise join: 0 where the labels are distinct and both
    nonzero, otherwise ``max``."""
    _require_same_length(a, b)
    return tuple(
        0 if (x != y and x != 0 and y != 0) else max(x, y) for x, y in zip(a, b)
    )


def id0(a: Assignment, b: Assignment) -> tuple:
    """Coordinate-wise agreement: the common label where a and b agree, 0
    elsewhere.  On orthant pairs this coincides with min0 and max0."""
    _require_same_length(a, b)
    return tuple(x if x == y else 0 for x, y in zip(a, b))


def restrict(x: Assignment, keep: Iterable[int]) -> tuple:
    """Forget the labels of all elements outside ``keep`` (set them to 0).

    The output keeps the full length n; this is not a projection.
    """
    keep = set(keep)
    n = len(x)
    for e in keep:
        if not 0 <= e < n:
            raise InputError(f"element index {e} out of range for n={n}")
    return tuple(v if e in keep else 0 for e, v in enumerate(x))


def is_orthant(x: Assignment) -> bool:
    """True when every element carries a nonzero label."""
    return all(v != 0 for v in x)


def with_label(x: Assignment, e: int, label: int) -> tuple:
    """Copy of x with element e set to ``label``."""
    return tuple(x[:e]) + (label,) + tuple(x[e + 1 :])


def index_of(x: Assignment, k: int) -> int:
    """Mixed-radix code of an assignment, element 0 least significant."""
    idx = 0
    for v in reversed(tuple(x)):
        idx = idx * (k + 1) + v
    return idx


def assignment_of(idx: int, dims: Dims) -> tuple:
    """Inverse of :func:`index_of` for the given dimensions."""
    base = dims.k + 1
    labels = []
    for _ in range(dims.n):
        labels.append(idx % base)
        idx //= base
    return tuple(labels)


def digits_of(idx: np.ndarray, n: int, k: int) -> np.ndarray:
    """len(idx) x n int64 matrix whose row j holds the n labels in
    {0, ..., k} of assignment idx[j], element 0 in column 0: the array form
    of :func:`assignment_of`.  Column-major, so that a batched form reads
    each element's labels as one contiguous column."""
    rest = np.array(idx, dtype=np.int64)
    digits = np.empty((rest.size, n), dtype=np.int64, order="F")
    for e in range(n):  # np.divmod takes about twice as long
        quot = rest // (k + 1)
        np.subtract(rest, quot * (k + 1), out=digits[:, e])
        rest = quot
    return digits


def index_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Mixed-radix indices of label rows, elements along the last axis: the
    array form of :func:`index_of`, and the inverse of :func:`digits_of`."""
    return rows @ ((k + 1) ** np.arange(rows.shape[-1], dtype=np.int64))


def label_rows(n: int, k: int, m: int) -> np.ndarray:
    """``digits_of(np.arange((k+1)**m), n, k)`` for m <= n, by broadcasting:
    column e < m repeats each label 0..k (k+1)^e times in turn; the rest
    are 0."""
    base = k + 1
    rows = np.zeros((base**m, n), dtype=np.int64, order="F")
    for e in range(m):
        rows[:, e].reshape(-1, base, base**e)[...] = np.arange(base)[:, None]
    return rows


def _checked_indices(idx, dims: Dims) -> np.ndarray:
    """``idx`` as a 1-D int64 array of assignment indices in [0, (k+1)^n)."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InputError(
            f"indices: need a 1-D integer array, got {idx.dtype} of shape {idx.shape}"
        )
    idx = idx.astype(np.int64, copy=False)
    if idx.size and not (0 <= int(idx.min()) and int(idx.max()) < dims.num_assignments):
        raise InputError(f"indices: must lie in [0, {dims.k + 1}^{dims.n})")
    return idx


def all_assignments(dims: Dims) -> Iterator[tuple]:
    """All (k+1)^n assignments in increasing index order."""
    for combo in itertools.product(range(dims.k + 1), repeat=dims.n):
        yield combo[::-1]


def all_orthants(dims: Dims) -> Iterator[tuple]:
    """All k^n orthants in increasing index order."""
    for combo in itertools.product(range(1, dims.k + 1), repeat=dims.n):
        yield combo[::-1]


def _as_float(value) -> float:
    """float(value), with an int beyond the float range as an infinity of
    its sign, where float() raises OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class ValueOracle:
    """Counted evaluator for a k-set function on label vectors.

    Wraps a deterministic map from assignments to nonnegative reals.  The
    ``calls`` counter rises by one per index asked, through ``__call__``,
    :meth:`eval_indices`, :meth:`eval_all` or the label rows of a sampler.
    ``tabulate`` leaves the oracle its table's read-only value vector,
    bounded by the state cap (8 MB at 10^6 states); every later call,
    ``f(x)`` or batched, by index or by label row, reads from it and
    consults neither ``fn`` nor any sub-oracle.  ``batch``, when given, is
    the same map on a matrix of label rows (one per assignment;
    :meth:`eval_all` builds them without division) returning one value per
    row; without it ``fn`` is called once per row.  This is the one place
    that refuses NaN and inf: each value returned is checked, and a
    non-finite one, or an int beyond the float range, raises
    :class:`OracleRangeError` naming the assignment.  Nonnegativity is a
    contract, not enforced here: consumers that materialize or verify
    values raise it when they meet a negative one.
    For parallel use, give each worker its own oracle instance; the counter
    is not synchronized.
    """

    def __init__(
        self,
        dims: Dims,
        fn: Callable[[tuple], float],
        name: str = "f",
        batch: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.dims = dims
        self.name = name
        self.calls = 0
        self._fn = fn
        self._batch = batch
        self._kept = None  # the read-only value vector tabulate leaves

    def __call__(self, x: Assignment) -> float:
        n, k = self.dims.n, self.dims.k
        if len(x) != n:
            raise InputError(f"assignment has length {len(x)}, expected n={n}")
        for v in x:
            # int or a numpy integer, not bool; an int label costs one identity test
            integral = type(v) is int or isinstance(v, np.integer)
            if not (integral and 0 <= v <= k):
                raise InputError(
                    f"label {v} out of range [0, k={k}]" if integral
                    else f"label {v!r} is not an integer"
                )
        x = tuple(x)
        value = self._unchecked(x)
        if not math.isfinite(_as_float(value)):
            raise self._non_finite(x, value)
        return value

    def eval_indices(self, idx) -> np.ndarray:
        """Values at the mixed-radix indices ``idx``, in the order given
        (repeats allowed), as a float array.  Counts one call per index; gathers
        from the kept vector if any, else evaluates in :data:`EVAL_BLOCK` blocks."""
        idx = _checked_indices(idx, self.dims)
        if self._kept is not None:
            self.calls += idx.size
            return self._kept[idx]
        n, k = self.dims.n, self.dims.k
        values = np.empty(idx.size)
        for lo in range(0, idx.size, EVAL_BLOCK):
            block = idx[lo : lo + EVAL_BLOCK]
            values[lo : lo + block.size] = self._eval_rows(digits_of(block, n, k))
        return values

    def eval_all(self) -> np.ndarray:
        """``eval_indices(np.arange((k+1)**n))``: the same values and calls,
        and the same first value refused.  Unless it gathers from the kept
        vector, it walks blocks of (k+1)^m rows, m in 1..n the largest with
        (k+1)^m <= :data:`EVAL_BLOCK` (else 1); block j's low m labels are
        one broadcast pattern, its high n - m labels the digits of j."""
        n, k = self.dims.n, self.dims.k
        size = self.dims.num_assignments
        if self._kept is not None:
            self.calls += size
            return self._kept.copy()
        m = 1
        while m < n and (k + 1) ** (m + 1) <= EVAL_BLOCK:
            m += 1
        first = label_rows(n, k, m)
        width = len(first)
        highs = label_rows(n - m, k, n - m)
        values = np.empty(size)
        for j, high in enumerate(highs):
            # fresh, as a batch may keep its input; no block copies the last
            rows = first.copy(order="F") if j + 1 < len(highs) else first
            rows[:, m:] = high
            values[j * width : (j + 1) * width] = self._eval_rows(rows)
        return values

    def _eval_rows(self, digits: np.ndarray) -> np.ndarray:
        """:meth:`_unchecked_rows`, refusing the first non-finite value.  Rows,
        unlike indices, name assignments of any (n, k)."""
        values = self._unchecked_rows(digits)
        if not np.isfinite(values).all():
            j = int(np.flatnonzero(~np.isfinite(values))[0])
            raise self._non_finite(tuple(digits[j].tolist()), values[j])
        return values

    def _unchecked(self, x: tuple) -> float:
        """The value at x, counted but unchecked: how a sum or an embedding
        evaluates its parts, whose combined value the combination's own check
        covers.  Read from the kept vector when there is one, else fn at x."""
        self.calls += 1
        if self._kept is not None:
            return self._kept.item(index_of(x, self.dims.k))
        return self._fn(x)

    def _unchecked_rows(self, digits: np.ndarray) -> np.ndarray:
        """:meth:`_unchecked` at each label row of ``digits``: a gather from
        the kept vector when there is one, else the batched form when there
        is one, else ``fn`` row by row."""
        self.calls += len(digits)
        if self._kept is not None:
            return self._kept[index_rows(digits, self.dims.k)]
        if self._batch is not None:
            values = self._batch(digits)
        else:
            values = [self._fn(x) for x in map(tuple, digits.tolist())]
        try:
            return np.asarray(values, dtype=float)
        except OverflowError:
            return np.array([_as_float(v) for v in values])

    def _non_finite(self, x: tuple, value) -> OracleRangeError:
        return OracleRangeError(
            f"oracle {self.name} has a non-finite value at {x}: {_as_float(value)}"
        )

    def __repr__(self) -> str:
        d = self.dims
        return f"{type(self).__name__}({self.name}, n={d.n}, k={d.k})"


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


def marginal(f: ValueOracle, label: int, e: int, s: Assignment) -> float:
    """Gain from assigning ``label`` to the unassigned element e in s.

    Makes exactly two oracle calls.  Callers that sweep all k labels of one
    element should cache f(s) themselves instead of calling this in a loop.
    """
    if not 1 <= label <= f.dims.k:
        raise InputError(f"label {label} out of range [1, k={f.dims.k}]")
    if not 0 <= e < f.dims.n:
        raise InputError(f"element index {e} out of range for n={f.dims.n}")
    if s[e] != 0:
        raise PreconditionError(f"element {e} already assigned label {s[e]}")
    return f(with_label(s, e, label)) - f(s)


def smallest_max_label(ys: Sequence[float], eps: float = EPS) -> int:
    """Smallest label (1-based) whose value is within eps of the maximum."""
    top = max(ys)
    for i, y in enumerate(ys, start=1):
        if y >= top - eps:
            return i
    return len(ys)  # unreachable; max is always within eps of itself


def greedy_fill(
    f: ValueOracle, s: tuple, value: float, elements: Iterable[int], eps: float
) -> tuple:
    """Assign each of ``elements``, in turn, the label of maximal marginal
    gain, ties within eps going to the smallest label.

    ``value`` is f(s); the running value is tracked incrementally, so this
    makes k oracle calls per element.  Returns the final assignment, its
    value and the per-element :class:`GreedyTrace` list.
    """
    trace = []
    for e in elements:
        gains = [f(with_label(s, e, i)) - value for i in range(1, f.dims.k + 1)]
        q = smallest_max_label(gains, eps)
        s = with_label(s, e, q)
        value += gains[q - 1]
        trace.append(GreedyTrace(e, tuple(gains), beta=None, chosen=q))
    return s, value, trace


def extend_to_orthant(f: ValueOracle, s: Assignment, eps: float = EPS) -> tuple:
    """Assign every unassigned element the label of maximal marginal gain.

    Elements are visited in index order; marginal ties within eps are broken
    toward the smallest label.  For r-wise monotone f this never decreases
    the value (some marginal in any size-r label set is nonnegative, so the
    best one is); that precondition is the caller's responsibility.
    """
    check_eps(eps)
    cur = tuple(s)
    if is_orthant(cur):
        return cur
    unassigned = [e for e, v in enumerate(cur) if v == 0]
    return greedy_fill(f, cur, f(cur), unassigned, eps)[0]
