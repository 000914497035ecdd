"""Shared fixtures: small deterministic fields and hierarchies (the
builders behind them live in ``tests/strategies.py``), and the loader of
the fault simulator the crash tests drive."""

from __future__ import annotations

import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch

from tests.strategies import make_sphere_hierarchy


def load_faultsim():
    """``tools/faultsim.py`` as module ``faultsim``, executed once."""
    if "faultsim" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "tools" / "faultsim.py"
        spec = importlib.util.spec_from_file_location("faultsim", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["faultsim"] = module  # dataclasses resolves cls.__module__
        spec.loader.exec_module(module)
    return sys.modules["faultsim"]


class CountingBytesIO(io.BytesIO):
    """BytesIO that tallies how many payload bytes are actually read."""

    def __init__(self, raw: bytes):
        super().__init__(raw)
        self.bytes_read = 0

    def read(self, size=-1):
        out = super().read(size)
        self.bytes_read += len(out)
        return out


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(1234)


@pytest.fixture
def smooth_field() -> np.ndarray:
    """A 24^3 smooth trigonometric field."""
    ax = np.linspace(0.0, 1.0, 24)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.sin(5 * x) * np.cos(4 * y) * np.sin(3 * z) + 0.5 * x


@pytest.fixture
def rough_field(rng: np.random.Generator, smooth_field: np.ndarray) -> np.ndarray:
    """Smooth field plus strong noise (Nyx-like irregularity)."""
    return smooth_field + 0.3 * rng.normal(size=smooth_field.shape)


@pytest.fixture
def sphere_hierarchy() -> AMRHierarchy:
    """Two-level sphere-distance hierarchy (see make_sphere_hierarchy)."""
    return make_sphere_hierarchy()


@pytest.fixture
def multi_field_hierarchy(rng: np.random.Generator) -> AMRHierarchy:
    """Two-level, two-field, multi-patch hierarchy with random data."""
    dom = Box.from_shape((12, 12, 12))
    level0 = AMRLevel(0, BoxArray([dom]), (1.0,) * 3)
    for name in ("a", "b"):
        level0.add_field(name, [Patch(dom, rng.normal(size=dom.shape))])
    fine = BoxArray([Box((0, 0, 0), (11, 11, 11)), Box((12, 12, 12), (23, 23, 23))])
    level1 = AMRLevel(1, fine, (0.5,) * 3)
    for name in ("a", "b"):
        level1.add_field(name, [Patch(b, rng.normal(size=b.shape)) for b in fine])
    return AMRHierarchy(dom, [level0, level1], 2)
