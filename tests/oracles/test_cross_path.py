"""The cross-path oracle, first slice: four ``sz-lr`` write paths, one read
path, one answer.

Pins ``compress_hierarchy`` (one snapshot per step), ``StreamingWriter``
(a series), ``ShardedSeriesWriter`` over two shards, and the same with one
parity shard, each read back through ``repro.open(...).select``. For one
to two steps drawn from ``tests/strategies.py``'s hierarchies
(``exclude_covered`` off, an absolute or relative bound, with or without a
``field_bounds`` override), every path must return the same keys
and the same bytes under the same drawn selector — or refuse it with the
same error — and every decoded value must be within its patch's resolved
bound of the original. The sample is derandomised, so tier-1 runs the same
examples every time.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro
from repro.compression.amr_codec import compress_hierarchy
from repro.insitu import StreamingWriter
from repro.insitu.sharded import ShardedSeriesWriter

from tests.oracles.common import outcome, same_arrays, same_outcome
from tests.strategies import (
    ERROR_BOUNDS,
    FIELD_BOUNDS,
    FIELDS,
    LEVELS,
    MODES,
    PATCHES,
    hierarchies,
    small_hierarchy,
)

CODEC = "sz-lr"


def _write_every_path(root: Path, steps, **options) -> dict:
    """Each write path's readable target: a list of per-step snapshot
    bytes, or the path of a series or campaign."""
    targets = {"snapshots": [compress_hierarchy(h, CODEC, **options).tobytes() for h in steps]}
    writers = {
        "series": lambda path: StreamingWriter.create(path, CODEC, **options),
        "sharded": lambda path: ShardedSeriesWriter.create(path, CODEC, n_shards=2, **options),
        "parity": lambda path: ShardedSeriesWriter.create(path, CODEC, n_shards=2, parity=1,
                                                          **options),
    }
    for name, create in writers.items():
        targets[name] = root / f"{name}.dat"
        with create(targets[name]) as writer:
            for h in steps:
                writer.append_step(h)
    return targets


def _select(target, **selectors) -> dict:
    """``(step, level, field, patch) -> array`` for ``selectors``."""
    if isinstance(target, list):  # snapshots: step s is the s-th snapshot
        out = {}
        for step, raw in enumerate(target):
            with repro.open(raw) as reader:
                out.update({(step, *key): arr for key, arr in reader.select(**selectors).items()})
        return out
    with repro.open(target) as reader:
        return reader.select(**selectors)


def _bound(data: np.ndarray, error_bound: float, mode: str) -> float:
    """The absolute bound a patch is held to: ``error_bound`` itself, or
    that share of the patch's value range."""
    return error_bound if mode == "abs" else error_bound * float(data.max() - data.min())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    steps=st.lists(hierarchies(), min_size=1, max_size=2),
    error_bound=ERROR_BOUNDS,
    mode=MODES,
    field_bounds=FIELD_BOUNDS,
    selectors=st.tuples(LEVELS, FIELDS, PATCHES),
)
@example(  # two steps of different layouts: one shard holds each
    steps=[small_hierarchy(1, {}, 1), small_hierarchy(3, {0: True, 2: False}, 2)],
    error_bound=1e-3, mode="rel", field_bounds={"a": 5e-4}, selectors=(1, None, [0, 2]),
)
def test_every_write_path_reads_back_the_same_bounded_values(
    steps, error_bound, mode, field_bounds, selectors
):
    levels, fields, patches = selectors
    with tempfile.TemporaryDirectory() as tmp:
        targets = _write_every_path(Path(tmp), steps, error_bound=error_bound, mode=mode,
                                    field_bounds=field_bounds)
        full = {path: _select(target) for path, target in targets.items()}
        chosen = {
            path: outcome(lambda: _select(target, levels=levels, fields=fields, patches=patches))
            for path, target in targets.items()
        }
    want_full, want = full.pop("snapshots"), chosen.pop("snapshots")
    for path in full:
        same_arrays(full[path], want_full)
        same_outcome(chosen[path], want)
    # every patch of every step is read back, within its bound
    originals = {
        (s, level.index, name, p): patch.data
        for s, h in enumerate(steps) for level in h for name in h.field_names
        for p, patch in enumerate(level.patches(name))
    }
    assert sorted(want_full) == sorted(originals)
    for key, data in originals.items():
        bound = (field_bounds or {}).get(key[2], error_bound)
        err = np.abs(want_full[key] - data).max()
        assert err <= _bound(data, bound, mode) * (1 + 1e-12), key
    # a selection is a subset of the full read, byte for byte
    if not isinstance(want, tuple):
        same_arrays(want, {key: want_full[key] for key in want})
