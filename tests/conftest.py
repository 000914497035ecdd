"""Shared fixtures: small deterministic fields and hierarchies."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch


def load_faultsim():
    """``tools/faultsim.py`` as module ``faultsim``, executed once."""
    if "faultsim" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "tools" / "faultsim.py"
        spec = importlib.util.spec_from_file_location("faultsim", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["faultsim"] = module  # dataclasses resolves cls.__module__
        spec.loader.exec_module(module)
    return sys.modules["faultsim"]


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


def make_sphere_hierarchy(n: int = 16, radius: float = 0.55) -> AMRHierarchy:
    """Two-level hierarchy holding the distance field of a sphere.

    Level 1 refines the +x half of the domain; the field is the distance to
    the domain center, so the ``radius`` iso-surface is a sphere crossing
    the level interface.
    """

    def dist_cells(box: Box, dx: float) -> np.ndarray:
        axes = [(np.arange(box.lo[d], box.hi[d] + 1) + 0.5) * dx for d in range(3)]
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        return np.sqrt((xx - 1.0) ** 2 + (yy - 1.0) ** 2 + (zz - 1.0) ** 2)

    dom = Box.from_shape((n, n, n))
    dx0 = 2.0 / n
    level0 = AMRLevel(
        0, BoxArray([dom]), (dx0,) * 3, {"f": [Patch(dom, dist_cells(dom, dx0))]}
    )
    fine_boxes = BoxArray([Box((n, 0, 0), (2 * n - 1, 2 * n - 1, 2 * n - 1))])
    level1 = AMRLevel(
        1,
        fine_boxes,
        (dx0 / 2,) * 3,
        {"f": [Patch(b, dist_cells(b, dx0 / 2)) for b in fine_boxes]},
    )
    return AMRHierarchy(dom, [level0, level1], 2)


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
