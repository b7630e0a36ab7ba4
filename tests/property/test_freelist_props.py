"""Property tests: freelist allocate/free invariants under random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockstore.freelist import Freelist, FreelistError


@st.composite
def alloc_free_script(draw):
    """A random interleaving of allocations and frees."""
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 16)),
            st.tuples(st.just("free"), st.integers(0, 50)),
        ),
        max_size=60,
    ))
    return steps


@given(alloc_free_script())
def test_allocations_never_overlap_and_accounting_holds(script):
    freelist = Freelist(512)
    live = []  # (start, count)
    for action, arg in script:
        if action == "alloc":
            try:
                start = freelist.allocate(arg)
            except FreelistError:
                continue
            # No overlap with any live allocation.
            for other_start, other_count in live:
                assert start + arg <= other_start or other_start + other_count <= start
            live.append((start, arg))
        elif live:
            index = arg % len(live)
            start, count = live.pop(index)
            freelist.free(start, count)
    assert freelist.used_blocks == sum(count for __, count in live)
    # Every live block is marked used; everything else is free.
    used = set()
    for start, count in live:
        used.update(range(start, start + count))
    for block in range(512):
        assert freelist.is_used(block) == (block in used)


@given(alloc_free_script())
def test_serialization_preserves_state(script):
    freelist = Freelist(256)
    live = []
    for action, arg in script:
        if action == "alloc":
            try:
                live.append((freelist.allocate(arg), arg))
            except FreelistError:
                pass
        elif live:
            start, count = live.pop(arg % len(live))
            freelist.free(start, count)
    restored = Freelist.from_bytes(freelist.to_bytes())
    assert restored.used_blocks == freelist.used_blocks
    assert list(restored.used_ranges()) == list(freelist.used_ranges())


@given(st.integers(1, 300).flatmap(
    lambda total: st.tuples(
        st.just(total), st.sets(st.integers(0, total - 1), max_size=total)
    )
))
def test_used_blocks_roundtrip_through_bytes(case):
    """The decoded used-block count equals the live one for any total,
    including totals that leave a partial last byte."""
    total, blocks = case
    freelist = Freelist(total)
    for block in blocks:
        freelist.mark_used(block)
    restored = Freelist.from_bytes(freelist.to_bytes())
    assert restored.used_blocks == freelist.used_blocks == len(blocks)
    assert restored.total_blocks == total
    assert all(restored.is_used(b) == (b in blocks) for b in range(total))
