#!/usr/bin/env python
"""Parallel compression of an AMR hierarchy, and random access into a stream.

AMR patches are independent (paper §3.3), so a hierarchy compresses as a
pure map over runs of patches. This example shows:

* ``compress_hierarchy(..., pool=WorkerPool("process", N))`` — N worker
  processes, writing the same container bytes as the inline run (a
  ``"thread"`` pool is one background lane: it frees the caller, it adds
  no core); one pool serves the compress and the decode;
* random access: decode one 6^3 block out of a compressed stream.

Usage::

    python examples/parallel_insitu.py [--workers 4] [--scale 0.5]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.compression import SZLR, compress_hierarchy, decompress_selection
from repro.experiments.datasets import load_app
from repro.parallel import WorkerPool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args()

    ds = load_app("warpx", args.scale)
    data = ds.uniform_field()
    eb = 1e-3 * float(data.max() - data.min())

    # 1. Per-patch hierarchy compression: inline vs N processes.
    spec = dict(codec="sz-lr", error_bound=eb, mode="abs", fields=[ds.field])
    with WorkerPool("process", args.workers) as pool:
        raw = compress_hierarchy(ds.hierarchy, **spec, pool=pool)
        same = raw.tobytes() == compress_hierarchy(ds.hierarchy, **spec).tobytes()
        print(f"WarpX {ds.field}: CR={raw.ratio:.1f} on {pool.workers} processes, "
              f"same container bytes as serial: {same}")
        decoded = decompress_selection(raw.tobytes(), pool=pool)
    worst = max(
        float(np.abs(decoded[(lev_idx, ds.field, p_idx)] - patch.data).max())
        for lev_idx, level in enumerate(ds.hierarchy)
        for p_idx, patch in enumerate(level.patches(ds.field))
    )
    print(f"  {len(decoded)} patches decoded, bound holds: {worst <= eb * (1 + 1e-12)}")

    # 2. Random access into a block-based stream.
    codec = SZLR()
    blob = codec.compress(data, 1e-3, mode="rel")
    block = codec.decompress_block(blob, 0)
    print(f"  random access: block 0 of the stream -> {block.shape} cube, "
          f"mean {block.mean():.4f} (no full-array decode of the prediction stage)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
