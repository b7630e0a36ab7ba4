"""Row-at-a-time reference implementations of the relational operators.

These are the pure-python operator bodies the numpy executor in
:mod:`repro.columnar.exec` replaced.  They stay here as the oracle for the
operator-equivalence property tests: for any input the executor must
return the same rows in the same order with the same float bits, and
charge the context's CPU model the same ``ops`` in the same sequence.
Inputs are assumed valid (the executor owns argument checking).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.exec import (
    _FILTER_OPS,
    _GROUP_OPS,
    _JOIN_BUILD_OPS,
    _JOIN_PROBE_OPS,
    _MAP_OPS,
    _SORT_OPS,
)
from repro.columnar.query import Relation, n_rows


def extend(ctx, rel: Relation, name: str, fn, inputs: "Sequence[str]"):
    count = n_rows(rel)
    ctx.cpu.charge(_MAP_OPS * count)
    series = [rel[column] for column in inputs]
    rel = dict(rel)
    rel[name] = [fn(*values) for values in zip(*series)] if count else []
    return rel


def filter_rows(ctx, rel: Relation, fn, inputs: "Sequence[str]"):
    count = n_rows(rel)
    ctx.cpu.charge(_FILTER_OPS * count)
    series = [rel[column] for column in inputs]
    mask = [bool(fn(*values)) for values in zip(*series)] if count else []
    return {
        column: [v for v, keep in zip(values, mask) if keep]
        for column, values in rel.items()
    }


def hash_join(ctx, left: Relation, right: Relation,
              left_on: "Sequence[str]", right_on: "Sequence[str]",
              semi: bool = False, anti: bool = False) -> Relation:
    if semi or anti:
        keys = set(zip(*(right[c] for c in right_on))) if n_rows(right) else set()
        ctx.cpu.charge(_JOIN_BUILD_OPS * n_rows(right))
        ctx.cpu.charge(_JOIN_PROBE_OPS * n_rows(left))
        left_keys = list(zip(*(left[c] for c in left_on))) if n_rows(left) else []
        if anti:
            mask = [key not in keys for key in left_keys]
        else:
            mask = [key in keys for key in left_keys]
        return {
            column: [v for v, keep in zip(values, mask) if keep]
            for column, values in left.items()
        }

    # Inner join: build on the smaller side.
    swap = n_rows(right) > n_rows(left)
    build, probe = (left, right) if swap else (right, left)
    build_on, probe_on = (left_on, right_on) if swap else (right_on, left_on)

    ctx.cpu.charge(_JOIN_BUILD_OPS * n_rows(build))
    table: Dict[Tuple[object, ...], List[int]] = {}
    build_keys = (
        list(zip(*(build[c] for c in build_on))) if n_rows(build) else []
    )
    for row, key in enumerate(build_keys):
        table.setdefault(key, []).append(row)

    ctx.cpu.charge(_JOIN_PROBE_OPS * n_rows(probe))
    probe_keys = (
        list(zip(*(probe[c] for c in probe_on))) if n_rows(probe) else []
    )
    probe_rows: List[int] = []
    build_rows: List[int] = []
    for row, key in enumerate(probe_keys):
        for match in table.get(key, ()):
            probe_rows.append(row)
            build_rows.append(match)

    out: Relation = {}
    drop = set(build_on)
    for column, values in probe.items():
        out[column] = [values[i] for i in probe_rows]
    for column, values in build.items():
        if column in drop or column in out:
            continue
        out[column] = [values[i] for i in build_rows]
    # Re-expose the join keys under the left side's names.
    for left_col in left_on:
        if left_col not in out:
            rows = probe_rows if not swap else build_rows
            out[left_col] = [left[left_col][i] for i in rows]
    return out


def group_by(ctx, rel: Relation, keys: "Sequence[str]",
             aggregates: "Dict[str, Tuple[str, Optional[str]]]") -> Relation:
    count = n_rows(rel)
    ctx.cpu.charge(_GROUP_OPS * count * max(1, len(aggregates)))
    key_series = [rel[k] for k in keys]
    groups: "Dict[Tuple[object, ...], int]" = {}
    order: List[Tuple[object, ...]] = []
    assignments: List[int] = []
    if keys:
        for key in zip(*key_series):
            index = groups.get(key)
            if index is None:
                index = len(order)
                groups[key] = index
                order.append(key)
            assignments.append(index)
    else:
        order.append(())
        assignments = [0] * count

    out: Relation = {k: [key[i] for key in order] for i, k in enumerate(keys)}
    for out_name, (op, column) in aggregates.items():
        values = rel[column] if column is not None else None
        sums = [0.0] * len(order)
        counts = [0] * len(order)
        mins: "List[object]" = [None] * len(order)
        maxs: "List[object]" = [None] * len(order)
        for row, group in enumerate(assignments):
            counts[group] += 1
            if values is not None:
                value = values[row]
                if op in ("sum", "avg"):
                    sums[group] += value
                elif op == "min":
                    if mins[group] is None or value < mins[group]:
                        mins[group] = value
                elif op == "max":
                    if maxs[group] is None or value > maxs[group]:
                        maxs[group] = value
        if op == "sum":
            out[out_name] = list(sums)
        elif op == "count":
            out[out_name] = list(counts)
        elif op == "avg":
            out[out_name] = [
                (s / c if c else 0.0) for s, c in zip(sums, counts)
            ]
        elif op == "min":
            out[out_name] = list(mins)
        else:
            out[out_name] = list(maxs)
    return out


def order_by(ctx, rel: Relation, keys: "Sequence[Tuple[str, bool]]",
             limit: "Optional[int]" = None) -> Relation:
    count = n_rows(rel)
    if count:
        ctx.cpu.charge(_SORT_OPS * count * max(1.0, math.log2(count)))
    indexes = list(range(count))
    # Stable sorts composed right-to-left implement multi-key ordering.
    for column, descending in reversed(list(keys)):
        values = rel[column]
        indexes.sort(key=lambda i: values[i], reverse=descending)
    if limit is not None:
        indexes = indexes[:limit]
    return {
        column: [values[i] for i in indexes] for column, values in rel.items()
    }


def concat(left: Relation, right: Relation) -> Relation:
    return {column: list(left[column]) + list(right[column]) for column in left}


def distinct(ctx, rel: Relation, columns: "Sequence[str]") -> Relation:
    count = n_rows(rel)
    ctx.cpu.charge(_GROUP_OPS * count)
    seen = set()
    keep: List[int] = []
    series = [rel[c] for c in columns]
    for i, key in enumerate(zip(*series)):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return {c: [rel[c][i] for i in keep] for c in columns}
