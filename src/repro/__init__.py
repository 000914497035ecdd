"""repro — reproduction of "Analyzing Impact of Data Reduction Techniques on
Visualization for AMR Applications Using AMReX Framework" (SC-W 2023).

The package provides, from scratch:

* a patch-based AMR substrate (:mod:`repro.amr`),
* synthetic Nyx / WarpX workload generators (:mod:`repro.sims`),
* SZ-style error-bounded lossy compressors (:mod:`repro.compression`),
* AMR iso-surface visualization pipelines (:mod:`repro.viz`),
* quality metrics incl. SSIM / R-SSIM (:mod:`repro.metrics`),
* the paper's experiment harness (:mod:`repro.experiments`).

``repro.open(path_or_bytes_or_file)`` opens whatever the writers produced
for selective decompression (:mod:`repro.door`, resolved on first use so
that ``import repro`` stays as light as its error classes).
"""

__version__ = "1.0.0"

from repro.errors import (
    ReproError,
    BoxError,
    HierarchyError,
    CompressionError,
    DecompressionError,
    FormatError,
    VisualizationError,
    MetricError,
    ExperimentError,
)

__all__ = [
    "__version__",
    "ReproError",
    "BoxError",
    "HierarchyError",
    "CompressionError",
    "DecompressionError",
    "FormatError",
    "VisualizationError",
    "MetricError",
    "ExperimentError",
]


def __getattr__(name: str):
    if name == "open":
        from repro.door import open

        return open
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
