"""The write side's entropy stage costs one pass per run.

Three things changed under ``huffman.encode_many`` and none may move a
byte: the code lengths come from the two-queue Huffman build
(``huffman._tree_lengths``) instead of a binary heap, and the canonical
codes of every member of a run come from one pass
(``huffman._canonical_codes``). ``_oracle_lengths`` is the heap build the
two-queue one replaced, kept here as the oracle. A run holds up to 64 k
cells instead of 8 k; since a run shares one codebook, the cut moves bytes
but never a decoded value.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.amr.io import write_sharded_series
from repro.compression import amr_codec, huffman
from repro.sims import NyxConfig, nyx_step_stream

from tests.strategies import fibonacci, frequency_vectors

#: Heap keys were ``freq << 20 | node_id``: 2**16 leaves make 2**17 - 1 nodes.
_ID_MASK = (1 << 20) - 1


def _oracle_lengths(freqs: np.ndarray) -> np.ndarray:
    """The heap tree build the two-queue ``huffman._tree_lengths`` replaced,
    verbatim (it was ``huffman._heap_lengths``)."""
    n = freqs.size
    heap = [(f << 20) | i for i, f in enumerate(freqs.tolist())]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    parent = [0] * (2 * n - 1)
    for next_id in range(n, 2 * n - 1):
        a = pop(heap)
        b = pop(heap)
        ia = a & _ID_MASK
        ib = b & _ID_MASK
        parent[ia] = parent[ib] = next_id
        push(heap, a - ia + b - ib + next_id)
    depths = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depths[node] = depths[parent[node]] + 1
    return np.array(depths[:n], dtype=np.uint8)


def _oracle_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """``huffman.code_lengths``'s length-limiting loop over the oracle."""
    if freqs.size == 1:
        return np.array([1], dtype=np.uint8)
    work = freqs.copy()
    while True:
        lengths = _oracle_lengths(work)
        if lengths.max() <= huffman.MAX_CODE_LENGTH:
            return lengths
        work = (work + 1) // 2


@settings(max_examples=60, deadline=None)
@given(frequency_vectors())
def test_lengths_are_the_heap_builds(freqs):
    capped = huffman.code_lengths(freqs)
    assert capped.dtype == np.uint8
    assert np.array_equal(capped, _oracle_code_lengths(freqs))
    if freqs.size >= 2:
        assert np.array_equal(huffman._tree_lengths(freqs), _oracle_lengths(freqs))


def test_fibonacci_counts_go_through_the_limiting_loop():
    freqs = np.array(fibonacci(60), dtype=np.int64)
    assert huffman._tree_lengths(freqs).max() > huffman.MAX_CODE_LENGTH
    capped = huffman.code_lengths(freqs)
    assert capped.max() == huffman.MAX_CODE_LENGTH
    assert np.array_equal(capped, _oracle_code_lengths(freqs))


@settings(max_examples=40, deadline=None)
@given(st.lists(frequency_vectors(widest=False), min_size=1, max_size=24))
def test_one_canonical_pass_is_the_per_member_codes(members):
    lengths = [huffman.code_lengths(f) for f in members]
    run = huffman._canonical_codes(
        np.concatenate(lengths).astype(np.int64), [x.size for x in lengths])
    assert run.dtype == np.uint32
    assert np.array_equal(run, np.concatenate([huffman._canonical_codes(x) for x in lengths]))


def test_a_campaign_decodes_the_same_at_8k_and_64k_cell_runs(tmp_path, monkeypatch):
    """The benchmark's campaign: two Nyx steps of six fields (64^3 fine
    level), two shards and a parity shard, written on one thread lane. A
    cut decides which patches share a codebook, never a decoded value."""
    steps = list(nyx_step_stream(2, NyxConfig(coarse_n=32), growth_range=(0.93, 0.97)))
    real, runs = huffman.encode_batch, []
    monkeypatch.setattr(huffman, "encode_batch",
                        lambda codes, *a, **kw: runs.append(len(codes)) or real(codes, *a, **kw))
    decoded = {}
    for budget in (1 << 13, 1 << 16):
        monkeypatch.setattr(amr_codec, "RUN_CELL_BUDGET", budget)
        runs.clear()
        out = tmp_path / str(budget)
        out.mkdir()
        write_sharded_series(out / "campaign.rphm", steps, "sz-lr", 1e-3, mode="rel",
                             n_shards=2, parity=1, durability="step", parallel="thread")
        assert len(list(out.iterdir())) == 4
        with repro.open(out / "campaign.rphm") as reader:
            decoded[budget] = (len(runs), reader.select())
    (runs_8k, arrays_8k), (runs_64k, arrays_64k) = decoded.values()
    assert runs_64k < runs_8k  # the budgets did cut different runs
    assert arrays_8k.keys() == arrays_64k.keys()
    assert all(np.array_equal(arrays_8k[k], arrays_64k[k]) for k in arrays_8k)
