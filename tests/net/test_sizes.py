"""Message-size model tests."""

import pytest

from repro.core import VersionVector
from repro.net import MessageCategory, SizeModel
from repro.net.message import VectorReply

M = MessageCategory
BLOCK = bytes(512)
VECTOR = VersionVector({0: 1, 1: 2})

#: Every category priced on one canonical payload, at the default sizes
#: (header 32, vote 8, vector entry 8, block 512).
PRICES = {
    M.VOTE_REQUEST: (3, 32 + 8),
    M.VOTE_REPLY: (2, 32 + 8),
    M.BLOCK_TRANSFER: ((3, BLOCK, 2), 32 + 8 + 512),
    M.WRITE_UPDATE: ((3, BLOCK, 2), 32 + 8 + 512),
    M.WRITE_ACK: (True, 32),
    M.RECOVERY_PROBE: (None, 32),
    M.RECOVERY_PROBE_REPLY: (("available", {0, 1, 2}, 7), 32 + 8 + 3 * 8 + 8),
    M.VERSION_VECTOR_REQUEST: (VECTOR, 32 + 2 * 8),
    M.VERSION_VECTOR_REPLY: (
        VectorReply(VECTOR, {1: (BLOCK, 2)}, ()), 32 + 2 * 8 + (8 + 512),
    ),
    M.BLOCK_REPAIR_REQUEST: ((3, 1), 32 + 8),
    M.BATCH_VOTE_REQUEST: ((0, 1, 2), 32 + 3 * 8),
    M.BATCH_VOTE_REPLY: ({0: 1, 1: 2}, 32 + 2 * 8),
    M.BATCH_WRITE_UPDATE: (
        {0: (BLOCK, 1), 1: (BLOCK, 1)}, 32 + 2 * (8 + 512),
    ),
    M.BATCH_WRITE_ACK: (True, 32),
    M.BATCH_BLOCK_TRANSFER: ({5: (BLOCK, 2)}, 32 + 8 + 512),
    M.STATE_TRANSFER_REQUEST: ((VECTOR, 16), 32 + 2 * 8 + 8),
    M.STATE_TRANSFER_REPLY: (
        (VECTOR, {0: (BLOCK, 1)}), 32 + 2 * 8 + (8 + 512),
    ),
    M.HINT: ((4, 3, BLOCK, 2), 32 + 8 + 8 + 512),
    M.READ_REPAIR: ((3, BLOCK, 2), 32 + 8 + 512),
}


@pytest.mark.parametrize("category", list(M), ids=lambda c: c.value)
def test_each_category_priced_on_its_canonical_payload(category):
    payload, size = PRICES[category]
    assert SizeModel().bytes_of(category, payload) == size


def test_price_table_covers_every_category():
    assert set(PRICES) == set(M)


def test_defaults_are_sane():
    sizes = SizeModel()
    assert sizes.block_bytes == 512
    assert sizes.header_bytes == 32


def test_votes_are_small_blocks_are_big():
    sizes = SizeModel()
    vote = sizes.bytes_of(M.VOTE_REPLY, 2)
    block = sizes.bytes_of(M.BLOCK_TRANSFER, (3, BLOCK, 2))
    assert vote == 40
    assert block == 32 + 8 + 512
    assert block > 10 * vote


def test_write_update_carries_a_block():
    sizes = SizeModel(block_bytes=1024)
    assert sizes.bytes_of(M.WRITE_UPDATE, (0, bytes(1024), 1)) == \
        32 + 8 + 1024


def test_ack_and_probe_are_header_only():
    sizes = SizeModel()
    assert sizes.bytes_of(M.WRITE_ACK, True) == 32
    assert sizes.bytes_of(M.RECOVERY_PROBE, None) == 32


def test_probe_reply_scales_with_was_available_set():
    sizes = SizeModel()
    small = sizes.bytes_of(M.RECOVERY_PROBE_REPLY, ("available", {0}, 5))
    large = sizes.bytes_of(
        M.RECOVERY_PROBE_REPLY, ("available", {0, 1, 2, 3}, 5)
    )
    assert large == small + 3 * sizes.vv_entry_bytes


def test_vv_request_scales_with_vector_entries():
    sizes = SizeModel()
    empty = sizes.bytes_of(M.VERSION_VECTOR_REQUEST, VersionVector())
    three = sizes.bytes_of(
        M.VERSION_VECTOR_REQUEST, VersionVector({0: 1, 1: 2, 2: 3})
    )
    assert empty == 32
    assert three == 32 + 3 * 8


def test_vv_reply_carries_one_block_per_stale_entry():
    sizes = SizeModel()
    vector = VersionVector({0: 1})
    no_blocks = sizes.bytes_of(
        M.VERSION_VECTOR_REPLY, VectorReply(vector, {}, ())
    )
    two_blocks = sizes.bytes_of(
        M.VERSION_VECTOR_REPLY,
        VectorReply(vector, {0: (b"x", 1), 1: (b"y", 1)}, ()),
    )
    assert two_blocks - no_blocks == 2 * (8 + 512)
    # a scrub audit's corrupt indexes cost one vector entry each
    audit = sizes.bytes_of(
        M.VERSION_VECTOR_REPLY, VectorReply(vector, {}, [3, 4])
    )
    assert audit - no_blocks == 2 * 8


def test_expected_bytes_prices_fractional_entries():
    """The analytic form: entry counts are expectations."""
    sizes = SizeModel()
    reply = M.VERSION_VECTOR_REPLY
    assert sizes.expected_bytes(reply, {"vector": 2, "blocks": 1}) == \
        sizes.bytes_of(reply, PRICES[reply][0])
    assert sizes.expected_bytes(reply, {"blocks": 0.5}) == 32 + 0.5 * 520
    assert sizes.expected_bytes(M.VOTE_REPLY, {}) == 40


def test_negative_sizes_rejected():
    with pytest.raises(ValueError):
        SizeModel(header_bytes=-1)


def test_meter_accumulates_bytes_through_network():
    from repro.net import Network
    from repro.types import AddressingMode

    class Node:
        def __init__(self, site_id):
            self.site_id = site_id
            self.is_reachable = True

    net = Network(mode=AddressingMode.MULTICAST,
                  size_model=SizeModel(block_bytes=100))
    for i in range(3):
        net.attach(Node(i))
    net.broadcast_oneway(
        0, M.WRITE_UPDATE, handler=lambda n, p: None
    )
    # one multicast write update: header 32 + entry 8 + block 100
    assert net.meter.total_bytes == 140
    assert net.meter.category_bytes(M.WRITE_UPDATE) == 140


def test_unique_mode_multiplies_bytes_by_destinations():
    from repro.net import Network
    from repro.types import AddressingMode

    class Node:
        def __init__(self, site_id):
            self.site_id = site_id
            self.is_reachable = True

    net = Network(mode=AddressingMode.UNIQUE,
                  size_model=SizeModel(block_bytes=100))
    for i in range(4):
        net.attach(Node(i))
    net.broadcast_oneway(
        0, M.WRITE_UPDATE, handler=lambda n, p: None
    )
    assert net.meter.total_bytes == 3 * 140


def test_batch_vote_messages_scale_with_batch_size():
    sizes = SizeModel()
    request = sizes.bytes_of(M.BATCH_VOTE_REQUEST, (0, 1, 2))
    reply = sizes.bytes_of(M.BATCH_VOTE_REPLY, {0: 1, 1: 2})
    assert request == 32 + 3 * sizes.vote_bytes
    assert reply == 32 + 2 * sizes.vote_bytes
    # a batched vote round is far cheaper than per-block block traffic
    assert request < sizes.bytes_of(M.BLOCK_TRANSFER, (0, BLOCK, 1))


def test_batch_write_update_carries_one_block_per_entry():
    sizes = SizeModel(block_bytes=256)
    updates = {b: (bytes(256), 1) for b in range(4)}
    assert sizes.bytes_of(M.BATCH_WRITE_UPDATE, updates) == \
        32 + 4 * (sizes.vv_entry_bytes + 256)
    # one entry costs what the single-block update costs
    assert sizes.bytes_of(M.BATCH_WRITE_UPDATE, {0: (bytes(256), 1)}) == \
        sizes.bytes_of(M.WRITE_UPDATE, (0, bytes(256), 1))


def test_batch_ack_is_header_only_and_transfer_scales():
    sizes = SizeModel()
    assert sizes.bytes_of(M.BATCH_WRITE_ACK, True) == 32
    transfer = sizes.bytes_of(
        M.BATCH_BLOCK_TRANSFER, {0: (BLOCK, 1), 5: (BLOCK, 2)}
    )
    assert transfer == 32 + 2 * (sizes.vv_entry_bytes + 512)


def test_payload_without_its_shape_is_refused():
    """A per-entry field must have entries to count: no silent 0."""
    sizes = SizeModel()
    with pytest.raises(TypeError):
        sizes.bytes_of(M.BATCH_VOTE_REQUEST, None)
    # the bare block map voting's eager refresh used to reply with, also
    # when its keys could pass for the reply's field positions
    for blocks in ({5: (BLOCK, 1)}, {0: (BLOCK, 1), 1: (BLOCK, 1)},
                   {b: (BLOCK, 1) for b in range(3)}):
        with pytest.raises(TypeError):
            sizes.bytes_of(M.VERSION_VECTOR_REPLY, blocks)
    with pytest.raises(TypeError):
        sizes.bytes_of(M.STATE_TRANSFER_REPLY, {0: (BLOCK, 1), 1: (BLOCK, 1)})


def test_hint_carries_vote_and_block():
    # A hint is (owner, block, data, version): header + owner tag
    # (vote-sized) + version entry + the block payload.
    sizes = SizeModel()
    assert sizes.bytes_of(M.HINT, (4, 3, BLOCK, 2)) == 32 + 8 + 8 + 512


def test_read_repair_carries_a_block():
    # (block, data, version): header + version entry + block payload.
    sizes = SizeModel()
    assert sizes.bytes_of(M.READ_REPAIR, (3, BLOCK, 2)) == 32 + 8 + 512


def test_every_category_is_priced():
    sizes = SizeModel()
    for category in M:
        payload, _size = PRICES[category]
        assert sizes.bytes_of(category, payload) >= 32, category
