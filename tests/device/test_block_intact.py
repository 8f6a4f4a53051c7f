"""``BlockStore.intact_blocks``: the written blocks ``verify`` accepts.

The chaos harness aims bit rot at these.  The one-pass scan must name
exactly what the per-block form names, in the same order, so a seeded
``rng.choice`` over the targets picks the same one.
"""

from hypothesis import given, settings, strategies as st

from repro.device import BlockStore

NUM_BLOCKS, BLOCK_SIZE = 8, 4

STEPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "corrupt", "corrupt_same", "quarantine"]),
        st.integers(0, NUM_BLOCKS - 1),
        st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    ),
    max_size=40,
)


def _per_block(store):
    return [i for i, _d, _v in store.written_blocks() if store.verify(i)]


@settings(max_examples=200)
@given(STEPS)
def test_intact_blocks_is_the_verified_written_set(steps):
    store = BlockStore(NUM_BLOCKS, BLOCK_SIZE)
    for version, (step, index, data) in enumerate(steps, 1):
        held = {i: d for i, d, _v in store.written_blocks()}
        if step == "write":  # a first write or a rewrite
            store.write(index, data, version)
        elif step == "quarantine":
            store.quarantine(index)
        elif index in held:
            store.inject_corruption(
                index, data if step == "corrupt" else held[index]
            )
        intact = store.intact_blocks()
        assert intact == _per_block(store)
        assert not set(intact) & set(store.corrupt_blocks())


def test_unchanged_bytes_stay_intact_by_checksum():
    store = BlockStore(NUM_BLOCKS, BLOCK_SIZE)
    store.write(5, b"keep", 1)
    store.write(2, b"lose", 1)
    store.write(6, b"gone", 1)
    store.inject_corruption(5, b"keep")
    store.inject_corruption(2, b"LOSE")
    store.quarantine(6)
    assert store.intact_blocks() == [5]
    store.write(2, b"heal", 2)
    assert store.intact_blocks() == [2, 5]
