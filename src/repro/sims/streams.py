"""Step generators: lazily evolving synthetic campaigns for in-situ runs.

The in-situ writer (:mod:`repro.insitu`) consumes timesteps one at a time;
these generators play the role of the solver, yielding one
:class:`SimStep` per iteration and materializing **only the current
hierarchy** — the property that keeps a streaming campaign's peak memory
at O(snapshot) instead of O(campaign).

Evolution follows the physics each generator already models:

* :func:`nyx_step_stream` sweeps the linear growth factor, so structure
  sharpens and the refined region tracks it (paper Figure 2);
* :func:`warpx_step_stream` sweeps the smooth broadband perturbation
  (texture accumulating over the run) while the wakefield morphology
  stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.amr.hierarchy import AMRHierarchy
from repro.errors import ReproError
from repro.sims.nyx import NyxConfig, nyx_hierarchy
from repro.sims.warpx import WarpXConfig, warpx_hierarchy

__all__ = ["SimStep", "nyx_step_stream", "warpx_step_stream"]


@dataclass(frozen=True)
class SimStep:
    """One timestep emitted by a (simulated) solver."""

    #: Monotonically increasing step number.
    index: int
    #: Simulation time (the growth factor for Nyx; step phase for WarpX).
    time: float
    #: The hierarchy for this step; not retained by the generator.
    hierarchy: AMRHierarchy


def _step_fractions(n_steps: int) -> list[float]:
    if n_steps < 1:
        raise ReproError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps == 1:
        return [1.0]
    return [i / (n_steps - 1) for i in range(n_steps)]


def nyx_step_stream(
    n_steps: int,
    config: NyxConfig | None = None,
    growth_range: tuple[float, float] = (0.3, 1.0),
) -> Iterator[SimStep]:
    """Yield ``n_steps`` Nyx-like snapshots with rising growth factor.

    Same random phases every step (the universe evolves, the realization
    does not), growth swept linearly over ``growth_range`` — the Figure 2
    campaign generalized to arbitrary length. Lazy: each hierarchy is
    built when its step is requested and dropped when the caller drops it.
    """
    base = config if config is not None else NyxConfig()
    g0, g1 = float(growth_range[0]), float(growth_range[1])
    for i, frac in enumerate(_step_fractions(n_steps)):
        growth = g0 + (g1 - g0) * frac
        cfg = NyxConfig(
            coarse_n=base.coarse_n,
            ref_ratio=base.ref_ratio,
            seed=base.seed,
            fine_fraction=base.fine_fraction,
            bias=base.bias,
            growth=growth,
            spectral_index=base.spectral_index,
        )
        yield SimStep(index=i, time=growth, hierarchy=nyx_hierarchy(cfg))


def warpx_step_stream(
    n_steps: int,
    config: WarpXConfig | None = None,
    noise_range: tuple[float, float] = (0.005, 0.02),
) -> Iterator[SimStep]:
    """Yield ``n_steps`` WarpX-like snapshots with accumulating texture.

    The analytic wakefield stays fixed while the smooth broadband
    perturbation grows over ``noise_range`` and re-seeds per step — a
    smooth-data campaign whose compressibility slowly degrades.
    """
    base = config if config is not None else WarpXConfig()
    lo, hi = float(noise_range[0]), float(noise_range[1])
    for i, frac in enumerate(_step_fractions(n_steps)):
        cfg = WarpXConfig(
            nx=base.nx,
            nz=base.nz,
            ref_ratio=base.ref_ratio,
            seed=base.seed + i,
            fine_fraction=base.fine_fraction,
            laser_cells=base.laser_cells,
            plasma_cells=base.plasma_cells,
            noise_level=lo + (hi - lo) * frac,
        )
        yield SimStep(index=i, time=float(i), hierarchy=warpx_hierarchy(cfg))
