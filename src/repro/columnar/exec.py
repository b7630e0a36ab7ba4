"""Relational operators over materialized relations.

Relations are column dictionaries (``{column: values}``).  Operators take
columns as python lists (what :meth:`QueryContext.read` returns) or numpy
vectors (what operators return), do their work with the batch kernels in
:mod:`repro.columnar.vec`, and return numpy vectors;
:func:`repro.tpch.queries.run_query` turns a plan's final relation back
into python lists.  The kernels reproduce row-at-a-time semantics exactly
— same rows, same order, same float bits.

Each operator charges its CPU work, in tuple operations, to the context's
Amdahl :class:`~repro.sim.cpu.CpuModel`, so query times reflect both I/O
(charged by the storage stack) and compute.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.columnar import vec
from repro.columnar.query import QueryContext, Relation, n_rows

_JOIN_BUILD_OPS = 2.0
_JOIN_PROBE_OPS = 3.0
_GROUP_OPS = 3.0
_SORT_OPS = 2.0
_MAP_OPS = 2.0
_FILTER_OPS = 1.0


class ExecError(Exception):
    """Operator misuse (missing columns, ragged relations)."""


def _columns_or_raise(rel: Relation, columns: "Sequence[str]") -> None:
    for column in columns:
        if column not in rel:
            raise ExecError(
                f"relation lacks column {column!r}; has {sorted(rel)}"
            )


def _vectors(rel: Relation) -> "Dict[str, np.ndarray]":
    return {column: vec.asarray(values) for column, values in rel.items()}


def select(rel: Relation, columns: "Sequence[str]") -> Relation:
    """Project onto ``columns``."""
    _columns_or_raise(rel, columns)
    return {column: rel[column] for column in columns}


def extend(ctx: QueryContext, rel: Relation, name: str,
           fn: "Callable[..., object]",
           inputs: "Sequence[str]") -> Relation:
    """Add a computed column ``name = fn(*input_columns)`` row-wise."""
    _columns_or_raise(rel, inputs)
    count = n_rows(rel)
    ctx.cpu.charge(_MAP_OPS * count)
    out = _vectors(rel)
    out[name] = vec.apply_rowwise(fn, [out[c] for c in inputs], count)
    return out


def filter_rows(ctx: QueryContext, rel: Relation,
                fn: "Callable[..., bool]",
                inputs: "Sequence[str]") -> Relation:
    """Keep rows where ``fn(*input_columns)`` holds."""
    _columns_or_raise(rel, inputs)
    count = n_rows(rel)
    ctx.cpu.charge(_FILTER_OPS * count)
    arrays = _vectors(rel)
    mask = np.asarray(
        vec.apply_rowwise(fn, [arrays[c] for c in inputs], count), dtype=bool
    )
    return {column: values[mask] for column, values in arrays.items()}


def hash_join(
    ctx: QueryContext,
    left: Relation,
    right: Relation,
    left_on: "Sequence[str]",
    right_on: "Sequence[str]",
    semi: bool = False,
    anti: bool = False,
) -> Relation:
    """Inner hash join (or semi/anti join restricted to the left columns).

    The smaller input becomes the build side for inner joins; semi/anti
    joins always build on the right.  Join-key columns from the right side
    are dropped (they equal the left's).  Keys are factorized into one
    shared code space and matches expanded with searchsorted, in
    probe-row-major order with build matches in insertion order.
    """
    if len(left_on) != len(right_on):
        raise ExecError("join key lists differ in length")
    _columns_or_raise(left, left_on)
    _columns_or_raise(right, right_on)
    if semi and anti:
        raise ExecError("a join cannot be both semi and anti")
    left_arr = _vectors(left)
    right_arr = _vectors(right)

    if semi or anti:
        ctx.cpu.charge(_JOIN_BUILD_OPS * n_rows(right))
        ctx.cpu.charge(_JOIN_PROBE_OPS * n_rows(left))
        right_codes, left_codes = vec.join_codes(
            [right_arr[c] for c in right_on],
            [left_arr[c] for c in left_on],
        )
        mask = vec.member_mask(left_codes, right_codes)
        if anti:
            mask = ~mask
        return {column: values[mask] for column, values in left_arr.items()}

    # Inner join: build on the smaller side.
    swap = n_rows(right) > n_rows(left)
    build, probe = (left_arr, right_arr) if swap else (right_arr, left_arr)
    build_on, probe_on = (left_on, right_on) if swap else (right_on, left_on)

    ctx.cpu.charge(_JOIN_BUILD_OPS * n_rows(build))
    ctx.cpu.charge(_JOIN_PROBE_OPS * n_rows(probe))
    build_codes, probe_codes = vec.join_codes(
        [build[c] for c in build_on],
        [probe[c] for c in probe_on],
    )
    probe_rows, build_rows = vec.join_matches(build_codes, probe_codes)

    out: Relation = {}
    drop = set(build_on)
    for column, values in probe.items():
        out[column] = values[probe_rows]
    for column, values in build.items():
        if column in drop or column in out:
            continue
        out[column] = values[build_rows]
    # Re-expose the join keys under the left side's names.
    for left_col in left_on:
        if left_col not in out:
            rows_idx = probe_rows if not swap else build_rows
            out[left_col] = left_arr[left_col][rows_idx]
    return out


_AGGREGATES = ("sum", "count", "avg", "min", "max")


def group_by(
    ctx: QueryContext,
    rel: Relation,
    keys: "Sequence[str]",
    aggregates: "Dict[str, Tuple[str, Optional[str]]]",
) -> Relation:
    """Hash aggregation.

    ``aggregates`` maps output names to ``(op, column)``; ``op`` is one of
    sum/count/avg/min/max (count ignores its column, which may be None).
    An empty ``keys`` produces a single global group (even over zero rows
    for count, mirroring SQL's scalar aggregates over empty inputs).
    Groups come out in order of first appearance.
    """
    _columns_or_raise(rel, keys)
    for out_name, (op, column) in aggregates.items():
        if op not in _AGGREGATES:
            raise ExecError(f"unknown aggregate {op!r} for {out_name!r}")
        if op != "count" and column is None:
            raise ExecError(f"aggregate {out_name!r} needs a column")
        if column is not None:
            _columns_or_raise(rel, [column])
    count = n_rows(rel)
    ctx.cpu.charge(_GROUP_OPS * count * max(1, len(aggregates)))
    arrays = _vectors(rel)
    if keys:
        codes, first_rows = vec.group_keys([arrays[k] for k in keys])
        n_groups = len(first_rows)
        out: Relation = {k: arrays[k][first_rows] for k in keys}
    else:
        codes = np.zeros(count, dtype=np.int64)
        n_groups = 1
        out = {}
    counts = vec.group_count(codes, n_groups)
    for out_name, (op, column) in aggregates.items():
        values = arrays[column] if column is not None else None
        if op == "count":
            out[out_name] = counts.copy()
            continue
        assert values is not None
        if count == 0:
            # Only reachable for the single global group over zero rows:
            # sums start at 0.0, min/max at None.
            if op in ("sum", "avg"):
                out[out_name] = np.zeros(n_groups)
            else:
                empty = np.empty(n_groups, dtype=object)
                empty[:] = None
                out[out_name] = empty
            continue
        if op == "sum":
            out[out_name] = vec.group_sum(codes, values, n_groups)
        elif op == "avg":
            sums = vec.group_sum(codes, values, n_groups)
            out[out_name] = np.divide(
                sums,
                counts,
                out=np.zeros(n_groups),
                where=counts > 0,
            )
        else:
            out[out_name] = vec.group_minmax(
                codes, values, n_groups, want_max=(op == "max")
            )
    return out


def order_by(
    ctx: QueryContext,
    rel: Relation,
    keys: "Sequence[Tuple[str, bool]]",
    limit: "Optional[int]" = None,
) -> Relation:
    """Sort by ``(column, descending)`` keys; optionally truncate."""
    _columns_or_raise(rel, [k for k, __ in keys])
    count = n_rows(rel)
    if count:
        ctx.cpu.charge(_SORT_OPS * count * max(1.0, math.log2(count)))
    arrays = _vectors(rel)
    indexes = np.arange(count, dtype=np.int64)
    # Stable sorts composed right-to-left, on integer ranks so that
    # descending keys negate cleanly for any dtype while keeping
    # list.sort(reverse=True)'s tie order.
    for column, descending in reversed(list(keys)):
        ranks = vec.sort_codes(arrays[column][indexes])
        if descending:
            ranks = -ranks
        indexes = indexes[np.argsort(ranks, kind="stable")]
    if limit is not None:
        indexes = indexes[:limit]
    return {column: values[indexes] for column, values in arrays.items()}


def concat(left: Relation, right: Relation) -> Relation:
    """Union-all of two relations with identical columns."""
    if set(left) != set(right):
        raise ExecError("concat requires identical column sets")
    return {
        column: vec.concatenate(
            vec.asarray(left[column]), vec.asarray(right[column])
        )
        for column in left
    }


def distinct(ctx: QueryContext, rel: Relation,
             columns: "Sequence[str]") -> Relation:
    """Distinct projection, in order of first appearance."""
    _columns_or_raise(rel, columns)
    count = n_rows(rel)
    ctx.cpu.charge(_GROUP_OPS * count)
    arrays = [vec.asarray(rel[c]) for c in columns]
    if count == 0:
        return dict(zip(columns, arrays))
    __, first_rows = vec.group_keys(arrays)
    return {c: arr[first_rows] for c, arr in zip(columns, arrays)}


def rows(rel: Relation, columns: "Optional[Sequence[str]]" = None):
    """Iterate a relation as tuples of python values (testing/report helper)."""
    columns = list(columns or sorted(rel))
    series = [vec.to_list(rel[c]) for c in columns]
    return list(zip(*series)) if series and len(series[0]) else []
