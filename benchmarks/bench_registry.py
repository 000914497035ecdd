"""The whole experiment registry as one parametrized benchmark module.

One test per registry entry (figures, tables, ablations, scenarios), each
running at ``REPRO_BENCH_SCALE`` and recording its declared metrics so the
session hook emits ``BENCH_<name>.json`` per entry — the pytest-side twin
of ``python -m repro.experiments run all --out <dir>``. Run a single
figure with ``-k <name>`` (``bench_registry.py -k fig01``).
"""

from __future__ import annotations

import pytest
from conftest import registry_entry

from repro.experiments.registry import load_all


@pytest.mark.parametrize("name", sorted(load_all()))
def test_registry_entry(benchmark, name, scale):
    """Run one registry experiment; its paper-shape checks gate the test."""
    registry_entry(benchmark, name, scale)
