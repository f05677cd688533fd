"""JSON instance format: parsing, type checks, and oracle construction.

An instance is a JSON object with a "kind" field naming the family, common
fields "n" and "k", and the kind's own fields listed below.  One reader per
kind checks the JSON types of its fields and returns the constructor call;
the family constructors validate everything else.  The parser builds the
oracle once and prefixes any constructor diagnostic with the JSON path of
the instance, so diagnostics name the offending field.

kinds and their own fields:
  tabular            values (dense array in index order, finite, nonnegative)
  max_k_cut          edges [[u,v],...], directed (false), weights (optional)
  layer_layout       edges [[u,v],...], directed (true), weights (optional)
  det_greedy_tight   r (1..k; n must be 2)
  coverage_tight     (n must be 2, k >= 2)
  indicator          target (1..k; n must be 1)
  sum                terms (array of instances, same n and k), weights (optional)
  embedding          base (a k=1 tabular instance with the same n; k must be 2)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from .core import Dims, InputError, OracleRangeError, ValueOracle
from .zoo import (
    GraphInstance,
    TabularFunction,
    embed_submodular,
    make_coverage_tight,
    make_det_greedy_tight,
    make_indicator,
    make_layer_layout,
    make_max_k_cut,
    sum_combine,
)


@dataclass(frozen=True)
class InstanceSpec:
    """A checked instance: its kind, its dimensions and the oracle that
    checking it built."""

    kind: str
    dims: Dims
    oracle: ValueOracle

    def build(self) -> ValueOracle:
        """The value oracle built when the spec was read: one object, calls and kept
        values shared by every caller.  Parse again for a fresh oracle."""
        return self.oracle


def parse_instance(text: str) -> InstanceSpec:
    """Parse and validate a JSON instance document."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"instance is not valid JSON: {exc}") from exc
    return instance_from_dict(obj)


def _reject_constant(name: str):
    raise InputError(f"instance: {name} is not a finite number")


def instance_from_dict(obj, path: str = "instance") -> InstanceSpec:
    """Validate an already-decoded instance object (used recursively for
    nested terms) by building its oracle once."""
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    kind = obj.get("kind")
    kinds = tuple(_READERS)
    if kind not in kinds:
        raise InputError(f"{path}.kind: unknown kind {kind!r}; expected one of {kinds}")
    n = _int_field(obj, "n", path)
    k = _int_field(obj, "k", path)
    make = _READERS[kind](obj, n, k, path)
    try:
        dims = Dims(n, k)
        oracle = make()
    except (InputError, OracleRangeError) as exc:
        raise InputError(f"{path}.{exc}") from exc
    for field, declared, actual in (("n", n, oracle.dims.n), ("k", k, oracle.dims.k)):
        if declared != actual:
            raise InputError(
                f"{path}.{field}: declared {declared}, but this {kind} "
                f"payload builds {field}={actual}"
            )
    return InstanceSpec(kind, dims, oracle)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(obj: dict, key: str, path: str) -> int:
    if key not in obj:
        raise InputError(f"{path}.{key}: missing required field")
    value = obj[key]
    if not _is_int(value):
        raise InputError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _array(obj: dict, key: str, path: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list):
        raise InputError(f"{path}.{key}: missing or not an array")
    return value


def _numbers(obj: dict, key: str, path: str) -> list:
    items = _array(obj, key, path)
    return [_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(items)]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond float range
        raise InputError(f"{where}: {exc}") from exc


def _weights(obj: dict, path: str) -> list | None:
    return None if obj.get("weights") is None else _numbers(obj, "weights", path)


def _read_tabular(obj: dict, n: int, k: int, path: str):
    values = _numbers(obj, "values", path)
    return lambda: TabularFunction(Dims(n, k), values)


def _read_graph(family, obj: dict, n: int, k: int, path: str):
    """Reader of an edge-list kind whose oracle is ``family(graph, k)``."""
    edges = []
    for i, edge in enumerate(_array(obj, "edges", path)):
        if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
            raise InputError(f"{path}.edges[{i}]: expected a pair [u, v] of integers")
        edges.append(tuple(edge))
    directed = obj.get("directed", False)
    if not isinstance(directed, bool):
        raise InputError(f"{path}.directed: expected a boolean")
    weights = _weights(obj, path)
    return lambda: family(GraphInstance(n, tuple(edges), directed, weights), k)


def _read_sum(obj: dict, n: int, k: int, path: str):
    specs = []
    for i, term in enumerate(_array(obj, "terms", path)):
        spec = instance_from_dict(term, f"{path}.terms[{i}]")
        if spec.dims.n != n or spec.dims.k != k:
            raise InputError(
                f"{path}.terms[{i}]: dims (n={spec.dims.n}, k={spec.dims.k}) "
                f"differ from parent (n={n}, k={k})"
            )
        specs.append(spec)
    weights = _weights(obj, path)
    return lambda: sum_combine([spec.build() for spec in specs], weights)


def _read_embedding(obj: dict, n: int, k: int, path: str):
    spec = instance_from_dict(obj.get("base"), f"{path}.base")
    if spec.kind != "tabular":
        raise InputError(f"{path}.base.kind: expected 'tabular', got {spec.kind!r}")
    return lambda: embed_submodular(spec.build())


# kind -> reader(obj, n, k, path): type-checks the kind's own fields once
# and returns the constructor call, which validates everything else
_READERS = {
    "tabular": _read_tabular,
    "max_k_cut": partial(_read_graph, make_max_k_cut),
    "layer_layout": partial(_read_graph, make_layer_layout),
    "det_greedy_tight": lambda obj, n, k, path: partial(
        make_det_greedy_tight, k, _int_field(obj, "r", path)
    ),
    "coverage_tight": lambda obj, n, k, path: partial(make_coverage_tight, k),
    "indicator": lambda obj, n, k, path: partial(
        make_indicator, k, _int_field(obj, "target", path)
    ),
    "sum": _read_sum,
    "embedding": _read_embedding,
}
