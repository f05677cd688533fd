"""Solution vectors, label-lattice operations, and the counted value oracle.

A solution over a ground set of ``n`` elements is a plain tuple of ints in
``{0, ..., k}``: label 0 means "unassigned", labels ``1..k`` name the parts
of the partition.  A vector with no zero entry is an *orthant* (a partition
of the whole ground set).  Everything downstream (function families,
property checkers, :mod:`maximize` and its greedy rules) consumes this one
representation through :class:`ValueOracle`, which counts evaluations so
query complexity can be audited, and refuses every NaN or infinite value.
Enumerations name assignments by their mixed-radix index and evaluate
whole index vectors at once through :meth:`ValueOracle.eval_indices` or
:meth:`ValueOracle.eval_all`; a batched form reads label columns, one per
element, that broadcast together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
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

#: Indices per block in :meth:`ValueOracle.eval_indices` and its unchecked
#: read, bound on the (k+1)^m assignments per block in
#: :meth:`ValueOracle.eval_all` and, divided by k, trials per chunk in
#: ``maximize.empirical_expectation``.
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
        if _power_exceeds(base, self.n, cap):
            raise InputError(f"{what} needs {base}^{self.n} {unit}, cap is {cap}")


def _power_exceeds(base: int, n: int, bound: int) -> bool:
    """base^n > bound, decided without building base^n, which an unchecked n
    can make too large to build: base >= 2 passes bound by its bit length."""
    return base ** min(n, int(bound).bit_length()) > bound


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
    return rows @ _place_values(rows.shape[-1], k)


@lru_cache(maxsize=16)
def _place_values(n: int, k: int) -> np.ndarray:
    """(k+1)^e for e < n, read-only and built once per shape: on the few
    rows of a greedy or sampler step, building it cost as much as the gather."""
    powers = (k + 1) ** np.arange(n, dtype=np.int64)
    powers.flags.writeable = False
    return powers


def _column_index(cols, k: int):
    """Sum over e of cols[e] * (k+1)^e, broadcast: the mixed-radix indices
    of label columns, an int64 array or scalar.  Columns held as one
    matrix, the transpose of label rows, take :func:`index_rows` on those
    rows, one product."""
    if isinstance(cols, np.ndarray):
        return index_rows(cols.T, k)
    return sum(col * p for col, p in zip(cols, _place_values(len(cols), k).tolist()))


def _fold(tables, radix: int) -> np.ndarray:
    """out[a, b] = sum_d tables[d][a_d, b_d] * radix^(D-1-d) over the rows a, b
    of D digits, the first most significant: one broadcast per digit.  On
    one-row tables, ``_fold([values[None]] * m, radix)[0]`` are the m-digit
    numbers whose digits take ``values``, in lexicographic order: labels
    1..k in radix k+1 with m = n give the k^n orthants' indices in
    increasing order."""
    out = tables[0] if tables else np.zeros((1, 1), dtype=np.intp)
    for table in tables[1:]:
        out = out[:, None, :, None] * radix + table[:, None]
        out = out.reshape(out.shape[0] * out.shape[1], -1)
    return out


def _checked_indices(idx, dims: Dims) -> np.ndarray:
    """``idx`` as a 1-D int64 array of assignment indices in [0, (k+1)^n)."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise InputError(
            f"indices: need a 1-D integer array, got {idx.dtype} of shape {idx.shape}"
        )
    idx = idx.astype(np.int64, copy=False)
    if idx.size and not (
        0 <= int(idx.min()) and _power_exceeds(dims.k + 1, dims.n, int(idx.max()))
    ):
        raise InputError(f"indices: must lie in [0, {dims.k + 1}^{dims.n})")
    return idx


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
    ``calls`` counter rises by one per assignment asked, through
    ``__call__``, :meth:`eval_indices`, :meth:`eval_all` or the label
    columns of a greedy step or sampler.  ``tabulate`` leaves the oracle
    its table's read-only value vector, bounded by the state cap (8 MB at
    10^6 states); every later call, ``f(x)`` or batched, reads from it and
    consults no form of the map nor any sub-oracle.  The map comes in one
    of two forms.  ``batch`` maps a sequence of n label columns, element
    e's labels in column e, that broadcast to one shape (integer arrays or
    numpy integer scalars) to the values of that shape, or values that
    broadcast to it; a caller holding label rows passes ``rows.T``, and
    :meth:`eval_all` passes open grids.  The zoo families have only this
    form, and an untabulated ``f(x)`` evaluates it on x's n labels as
    scalars.  A hand-built ``fn``, the scalar fallback, maps one assignment
    tuple to its value: it answers ``f(x)``, and every assignment, in C
    order, when there is no ``batch``.  ``f(x)`` returns the value as the
    map gives it; batched reads return float64.  This is the one place
    that refuses NaN and inf: each value returned is checked (a kept
    vector once, when it is made), and a non-finite one, or an int beyond
    the float range, raises :class:`OracleRangeError` naming the
    assignment.  Nonnegativity is a contract, not enforced here: consumers
    that materialize or verify values raise it when they meet a negative
    one.  For parallel use, give each worker its own oracle instance; the
    counter is not synchronized.
    """

    def __init__(
        self,
        dims: Dims,
        fn: Callable[[tuple], float] | None,
        name: str = "f",
        batch: Callable[[Sequence], np.ndarray] | None = None,
    ) -> None:
        self.dims = dims
        self.name = name
        self.calls = 0
        self._fn = fn
        self._batch = batch
        self._kept = None  # the read-only value vector tabulate leaves

    def __call__(self, x: Assignment) -> float:
        x = self._checked(x)
        value = self._unchecked(x)
        if not math.isfinite(_as_float(value)):
            raise self._non_finite(x, value)
        return value

    def _checked(self, x: Assignment) -> tuple:
        """x as a tuple, refusing a length other than n or a label that is
        not an int or numpy integer in [0, k], as ``f(x)`` does."""
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
        return tuple(x)

    def eval_indices(self, idx) -> np.ndarray:
        """Values at the mixed-radix indices ``idx``, in the order given
        (repeats allowed), as a float array: :meth:`_at` on ``idx`` once it
        is checked, which refuses anything but a 1-D integer array with
        every index in [0, (k+1)^n)."""
        return self._at(_checked_indices(idx, self.dims))

    def _at(self, idx: np.ndarray) -> np.ndarray:
        """Values at int64 indices of any shape that the library built
        itself, unchecked, as a float array of that shape.  Counts one call
        per index; gathers from the kept vector if any, else evaluates the
        indices in C order in :data:`EVAL_BLOCK` blocks, each block's labels
        as one matrix of columns."""
        if self._kept is not None:
            self.calls += idx.size
            return self._kept[idx]
        n, k = self.dims.n, self.dims.k
        flat = idx.ravel()
        values = np.empty(flat.size)
        for lo in range(0, flat.size, EVAL_BLOCK):
            block = flat[lo : lo + EVAL_BLOCK]
            values[lo : lo + block.size] = self._eval_cols(digits_of(block, n, k).T)
        return values.reshape(idx.shape)

    def eval_all(self) -> np.ndarray:
        """``eval_indices(np.arange((k+1)**n))``: the same values and calls,
        and the same first value refused.  Unless it gathers from the kept
        vector, it walks blocks of (k+1)^m assignments, m in 1..n the largest
        with (k+1)^m <= :data:`EVAL_BLOCK` (else 1), each given as an open
        grid: element e < m is the read-only column 0..k on axis m-1-e of an
        m-axis grid, so the block's values come in index order, and each
        later element is one of block j's digits, a numpy int64 scalar.  No
        label row is built."""
        n, k = self.dims.n, self.dims.k
        size = self.dims.num_assignments
        if self._kept is not None:
            self.calls += size
            return self._kept.copy()
        base = k + 1
        m = 1
        while m < n and base ** (m + 1) <= EVAL_BLOCK:
            m += 1
        labels = np.arange(base)
        labels.flags.writeable = False  # shared by every block
        low = [labels.reshape((base,) + (1,) * e) for e in range(m)]
        values = np.empty(size).reshape(-1, *(base,) * m)
        # block j's digits, the lowest (element m) varying fastest
        for j, high in enumerate(itertools.product(labels, repeat=n - m)):
            values[j] = self._eval_cols(low + list(high[::-1]))
        return values.reshape(-1)

    def _eval_cols(self, cols) -> np.ndarray:
        """:meth:`_unchecked_cols`, refusing the first non-finite value in
        C order; the kept vector, checked when it was made, is not checked
        again.  Columns, unlike indices, name assignments of any (n, k)."""
        values = self._unchecked_cols(cols)
        if self._kept is None and not np.isfinite(values).all():
            j = int(np.flatnonzero(~np.isfinite(values))[0])
            x = tuple(int(np.broadcast_to(col, values.shape).flat[j]) for col in cols)
            raise self._non_finite(x, values.flat[j])
        return values

    def _unchecked(self, x: tuple) -> float:
        """The value at x, counted once but unchecked: ``f(x)`` before its
        check, and an embedding's g(U), which the embedding's own check
        covers.  Read from the kept vector when there is one, else fn at x,
        else, for a batch-only oracle, the batched form on x's n labels as
        scalar columns, a Python float whose sub-oracles count that one
        assignment."""
        if self._kept is None and self._fn is None:
            return self._unchecked_cols(np.array(x, dtype=np.int64)).item()
        self.calls += 1
        if self._kept is not None:
            return self._kept.item(index_of(x, self.dims.k))
        return self._fn(x)

    def _unchecked_cols(self, cols) -> np.ndarray:
        """:meth:`_unchecked` at every assignment of the label columns
        ``cols``, as float64 of their broadcast shape: a gather from the
        kept vector when there is one, else the batched form when there is
        one, else ``fn`` at each assignment in C order."""
        if self._kept is not None:
            idx = _column_index(cols, self.dims.k)
            self.calls += idx.size
            return self._kept[idx]
        # label rows' transpose holds its shape: broadcast_shapes costs more than a small batch
        shape = (cols.shape[1:] if isinstance(cols, np.ndarray)
                 else np.broadcast_shapes(*map(np.shape, cols)))
        self.calls += math.prod(shape)
        if self._batch is not None:
            values = self._batch(cols)
        else:  # objects, so that an int beyond the float range stays one
            grid = [col.ravel().tolist() for col in np.broadcast_arrays(*cols)]
            values = np.array([self._fn(x) for x in zip(*grid)], dtype=object).reshape(shape)
        try:
            values = np.asarray(values, dtype=float)
        except OverflowError:
            values = np.vectorize(_as_float, otypes=[float])(values)
        return values if values.shape == shape else np.broadcast_to(values, shape)

    def _non_finite(self, x: tuple, value) -> OracleRangeError:
        return OracleRangeError(
            f"oracle {self.name} has a non-finite value at {x}: {_as_float(value)}"
        )

    def __repr__(self) -> str:
        d = self.dims
        return f"{type(self).__name__}({self.name}, n={d.n}, k={d.k})"


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
