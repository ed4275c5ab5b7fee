import numpy as np
import pytest

from chronoseq.model.supervision import AttSupervision
from chronoseq.training.packing import BLOCK_SPLIT, EncodedExample, pack


def make_example(n, pid="p"):
    ids = np.arange(1, n + 1, dtype=np.int64)
    sup = AttSupervision(
        att_positions=np.array([], dtype=np.int64),
        year_target=np.array([], dtype=np.int64),
        month_target=np.array([], dtype=np.int64),
        day_target=np.array([], dtype=np.int64),
        tte_t=np.array([], dtype=np.float64),
    )
    return EncodedExample(pid, ids, sup)


def test_ffd_hand_case():
    batches = pack([make_example(10), make_example(10), make_example(10)], tokens_per_batch=25)
    sizes = [[hi - lo for lo, hi in row.segment_bounds] for b in batches for row in b.rows]
    assert sizes == [[10, 10], [10]]


def test_single_sequence_single_batch():
    batches = pack([make_example(7)], tokens_per_batch=25)
    assert len(batches) == 1 and batches[0].n_tokens == 7


def test_token_conservation_and_membership():
    rng = np.random.default_rng(0)
    lengths = [int(rng.integers(2, 40)) for _ in range(60)]
    examples = [make_example(n, pid=str(i)) for i, n in enumerate(lengths)]
    batches = pack(examples, tokens_per_batch=128)
    assert sum(b.n_tokens for b in batches) == sum(lengths)
    seen = []
    for b in batches:
        for row in b.rows:
            assert row.n_tokens <= 128
            for lo, hi in row.segment_bounds:
                seen.append(hi - lo)
    assert sorted(seen) == sorted(lengths)


def test_row_capacity_bounds_rows():
    examples = [make_example(30) for _ in range(10)]
    batches = pack(examples, tokens_per_batch=300, row_capacity=64)
    for b in batches:
        assert b.n_tokens <= 300
        for row in b.rows:
            assert row.n_tokens <= 64


def test_overlong_sequence_rejected():
    with pytest.raises(ValueError):
        pack([make_example(100)], tokens_per_batch=50)


def test_block_diagonal_mask_structure():
    batches = pack([make_example(4), make_example(3)], tokens_per_batch=7)
    row = batches[0].rows[0]
    mask = row.attention_mask()
    (l0, h0), (l1, h1) = row.segment_bounds
    for i in range(row.n_tokens):
        for j in range(row.n_tokens):
            same_seg = (l0 <= i < h0 and l0 <= j < h0) or (l1 <= i < h1 and l1 <= j < h1)
            allowed = same_seg and j <= i
            assert (mask[i, j] == 0.0) == allowed


def test_length_blocks_cut_sorted_lengths_at_the_split_share():
    lengths = [20, 9, 18, 14, 8, 12, 2]
    examples = [make_example(n, pid=str(i)) for i, n in enumerate(lengths)]
    (batch,) = pack(examples, tokens_per_batch=128, row_capacity=32)
    assert [b.lengths.tolist() for b in batch.blocks] == [[20, 18], [14, 12], [9, 8], [2]]
    prev_longest = None
    for block in batch.blocks:
        longest = int(block.lengths[0])
        assert block.token_ids.shape == (len(block.lengths), longest)
        assert block.lengths.min() >= BLOCK_SPLIT * longest
        if prev_longest is not None:
            assert longest < BLOCK_SPLIT * prev_longest
        prev_longest = longest
    in_rows = sorted(hi - lo for row in batch.rows for lo, hi in row.segment_bounds)
    assert sorted(n for b in batch.blocks for n in b.lengths.tolist()) == in_rows == sorted(lengths)


def test_length_block_positions_index_the_flat_padded_block():
    examples = [make_example(n, pid=str(n)) for n in (6, 5, 1)]
    examples[0].sup = AttSupervision(
        att_positions=np.array([2, 4]),
        year_target=np.array([1, 2]),
        month_target=np.array([3, 4]),
        day_target=np.array([5, 6]),
        tte_t=np.array([7.5, 8.5]),
    )
    examples[1].token_ids = examples[1].token_ids + 10
    (batch,) = pack(examples, tokens_per_batch=16)
    (block, single) = batch.blocks
    assert block.token_ids.tolist() == [[1, 2, 3, 4, 5, 6], [11, 12, 13, 14, 15, 0]]
    flat = block.token_ids.reshape(-1)
    assert block.ntp_positions.tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9]  # no target past a sequence's end
    assert np.array_equal(block.ntp_targets, flat[block.ntp_positions + 1])
    assert block.att_positions.tolist() == [2, 4]
    assert block.year_target.tolist() == [1, 2] and block.tte_t.tolist() == [7.5, 8.5]
    assert single.token_ids.shape == (1, 1) and len(single.ntp_positions) == 0
    assert sum(len(b.ntp_positions) for b in batch.blocks) == sum(len(e) - 1 for e in examples)
