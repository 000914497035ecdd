"""The synthetic Nyx and WarpX generators' bytes, pinned.

Their fields come from FFT synthesis (``repro.sims.spectral``), whose
buffers are freed and multiplied in place to bound memory: every change of
that kind must leave each hierarchy the same bit for bit. ``DIGESTS[case]``
holds the sha256 of a case's boxes and patch arrays, level by level."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sims.nyx import NyxConfig, nyx_hierarchy
from repro.sims.streams import warpx_step_stream
from repro.sims.warpx import WarpXConfig

DIGESTS = {
    "nyx-16": "7b10fd4a361a9a6e1ff4b1eae22df7b54a58e2a55bc0d8770835429982b1e732",
    "nyx-32": "f10d6f891bdcec066078400c3b69554f4242a71ed97a8f7615386e0067fd2aac",
    "warpx-stream": "127cf2f375bfcc6c6d1daf4d6d5d98ebe42c95cce86458382143c7e3d812b1b2",
}


def _digest(hierarchies) -> str:
    sha = hashlib.sha256()
    for h in hierarchies:
        for lev in h:
            for name in h.field_names:
                for p in lev.patches(name):
                    arr = np.ascontiguousarray(p.data)
                    head = (lev.index, name, tuple(p.box.lo), tuple(p.box.hi),
                            arr.dtype.str, arr.shape)
                    sha.update(repr(head).encode())
                    sha.update(arr.tobytes())
    return sha.hexdigest()


def _case(case: str) -> list:
    if case.startswith("nyx-"):
        return [nyx_hierarchy(NyxConfig(coarse_n=int(case[4:])))]
    return [s.hierarchy for s in warpx_step_stream(2, WarpXConfig(nx=16, nz=128))]


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_synthesis_bytes_are_pinned(case):
    assert _digest(_case(case)) == DIGESTS[case]
