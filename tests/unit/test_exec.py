"""Unit tests for relational operators."""

import pytest

from repro.columnar.exec import (
    ExecError,
    concat,
    distinct,
    extend,
    filter_rows,
    group_by,
    hash_join,
    order_by,
    rows,
    select,
)
from repro.columnar.query import QueryContext, n_rows
from repro.columnar.vec import to_list
from tests.conftest import make_db


@pytest.fixture
def ctx():
    db = make_db()
    context = QueryContext(db)
    yield context
    context.close()


LEFT = {
    "id": [1, 2, 3, 4],
    "value": [10.0, 20.0, 30.0, 40.0],
}
RIGHT = {
    "rid": [2, 3, 3, 5],
    "label": ["b", "c1", "c2", "e"],
}


def test_select_projects(ctx):
    assert select(LEFT, ["id"]) == {"id": [1, 2, 3, 4]}
    with pytest.raises(ExecError):
        select(LEFT, ["missing"])


def test_extend_adds_column(ctx):
    rel = extend(ctx, LEFT, "double", lambda v: v * 2, ["value"])
    assert to_list(rel["double"]) == [20.0, 40.0, 60.0, 80.0]
    assert "double" not in LEFT  # original untouched


def test_filter_rows_keeps_alignment(ctx):
    rel = filter_rows(ctx, LEFT, lambda v: v > 15, ["value"])
    assert to_list(rel["id"]) == [2, 3, 4]
    assert to_list(rel["value"]) == [20.0, 30.0, 40.0]


def test_inner_join_duplicates_matches(ctx):
    joined = hash_join(ctx, LEFT, RIGHT, ["id"], ["rid"])
    assert sorted(zip(joined["id"], joined["label"])) == [
        (2, "b"), (3, "c1"), (3, "c2")
    ]
    # The right-side key column is dropped, left's kept.
    assert "rid" not in joined
    assert "value" in joined


def test_semi_join(ctx):
    joined = hash_join(ctx, LEFT, RIGHT, ["id"], ["rid"], semi=True)
    assert to_list(joined["id"]) == [2, 3]
    assert set(joined) == set(LEFT)


def test_anti_join(ctx):
    joined = hash_join(ctx, LEFT, RIGHT, ["id"], ["rid"], anti=True)
    assert to_list(joined["id"]) == [1, 4]


def test_join_on_multiple_keys(ctx):
    left = {"a": [1, 1, 2], "b": ["x", "y", "x"], "v": [1, 2, 3]}
    right = {"a2": [1, 2], "b2": ["y", "x"], "w": [10, 20]}
    joined = hash_join(ctx, left, right, ["a", "b"], ["a2", "b2"])
    assert sorted(zip(joined["v"], joined["w"])) == [(2, 10), (3, 20)]


def test_join_swapped_build_side_preserves_keys(ctx):
    """When the left side is larger it becomes the probe side; the left
    key column must still appear in the output."""
    big_left = {"k": list(range(100)), "lv": list(range(100))}
    small_right = {"rk": [5, 50], "rv": ["a", "b"]}
    joined = hash_join(ctx, big_left, small_right, ["k"], ["rk"])
    assert sorted(joined["k"]) == [5, 50]


def test_join_validation(ctx):
    with pytest.raises(ExecError):
        hash_join(ctx, LEFT, RIGHT, ["id"], ["rid", "label"])
    with pytest.raises(ExecError):
        hash_join(ctx, LEFT, RIGHT, ["id"], ["rid"], semi=True, anti=True)


def test_group_by_aggregates(ctx):
    rel = {
        "k": ["a", "b", "a", "a"],
        "v": [1.0, 2.0, 3.0, 5.0],
    }
    agg = group_by(ctx, rel, ["k"], {
        "total": ("sum", "v"),
        "n": ("count", None),
        "lo": ("min", "v"),
        "hi": ("max", "v"),
        "mean": ("avg", "v"),
    })
    by_key = {k: i for i, k in enumerate(agg["k"])}
    a = by_key["a"]
    assert agg["total"][a] == 9.0
    assert agg["n"][a] == 3
    assert agg["lo"][a] == 1.0
    assert agg["hi"][a] == 5.0
    assert agg["mean"][a] == pytest.approx(3.0)


def test_group_by_empty_keys_gives_scalar(ctx):
    agg = group_by(ctx, {"v": [1.0, 2.0]}, [], {"s": ("sum", "v")})
    assert to_list(agg["s"]) == [3.0]


def test_group_by_scalar_over_empty_input(ctx):
    agg = group_by(ctx, {"v": []}, [], {"n": ("count", None)})
    assert to_list(agg["n"]) == [0]


def test_group_by_validation(ctx):
    with pytest.raises(ExecError):
        group_by(ctx, LEFT, [], {"x": ("median", "value")})
    with pytest.raises(ExecError):
        group_by(ctx, LEFT, [], {"x": ("sum", None)})
    with pytest.raises(ExecError):
        group_by(ctx, LEFT, [], {"x": ("sum", "missing")})


def test_order_by_multi_key(ctx):
    rel = {"a": [1, 2, 1, 2], "b": [9, 8, 7, 6]}
    out = order_by(ctx, rel, [("a", False), ("b", True)])
    assert list(zip(out["a"], out["b"])) == [(1, 9), (1, 7), (2, 8), (2, 6)]


def test_order_by_limit(ctx):
    out = order_by(ctx, LEFT, [("value", True)], limit=2)
    assert to_list(out["id"]) == [4, 3]


def test_concat(ctx):
    merged = concat({"a": [1]}, {"a": [2]})
    assert to_list(merged["a"]) == [1, 2]
    with pytest.raises(ExecError):
        concat({"a": [1]}, {"b": [2]})


def test_distinct(ctx):
    rel = {"a": [1, 1, 2, 2, 2], "b": ["x", "x", "y", "y", "z"]}
    out = distinct(ctx, rel, ["a", "b"])
    assert sorted(zip(out["a"], out["b"])) == [(1, "x"), (2, "y"), (2, "z")]


def test_rows_helper(ctx):
    assert rows({"a": [1, 2], "b": ["x", "y"]}, ["a", "b"]) == [
        (1, "x"), (2, "y")
    ]
    assert rows({"a": []}) == []


def test_n_rows():
    assert n_rows({}) == 0
    assert n_rows({"a": [1, 2]}) == 2


def test_operators_charge_cpu(ctx):
    before = ctx.cpu.total_ops
    group_by(ctx, {"v": list(range(1000))}, [], {"s": ("sum", "v")})
    assert ctx.cpu.total_ops > before
