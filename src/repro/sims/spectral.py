"""Spectral field synthesis (FFT-based Gaussian random fields).

Substrate for the synthetic Nyx/WarpX generators: periodic Gaussian random
fields with a prescribed isotropic power spectrum, plus Fourier-space
helpers (Gaussian smoothing, inverse-Laplacian for Zel'dovich velocities).
All functions are deterministic in the seed. They multiply spectra in place
and drop each buffer before the next FFT, and return real copies (a
``.real`` view would keep its complex buffer alive), so a field costs a
few full-size arrays at a time; ``tests/oracles/test_synthesis_digest.py``
pins the bytes that this must not change.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.util.rng import make_rng

__all__ = ["wavenumber_grid", "gaussian_random_field", "smooth_field", "zeldovich_velocity"]


def _k_grids(shape: tuple[int, ...], box_size: float) -> tuple[list[np.ndarray], np.ndarray]:
    """The FFT lattice's per-axis angular wavenumbers as sparse
    (broadcastable) ``ij`` grids, and ``|k|**2`` over the full lattice."""
    axes = [np.fft.fftfreq(n, d=box_size / n) * 2.0 * np.pi for n in shape]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    k2 = np.zeros(shape, dtype=np.float64)
    for g in grids:
        k2 += g * g
    return grids, k2


def wavenumber_grid(shape: tuple[int, ...], box_size: float = 1.0) -> np.ndarray:
    """Isotropic wavenumber magnitude |k| on the FFT lattice."""
    if any(s < 2 for s in shape):
        raise ReproError(f"shape {shape} too small for spectral synthesis")
    _, k = _k_grids(shape, box_size)
    return np.sqrt(k, out=k)


def gaussian_random_field(
    shape: tuple[int, ...],
    spectral_index: float = -2.5,
    seed: int | np.random.Generator | None = 0,
    box_size: float = 1.0,
) -> np.ndarray:
    """Periodic GRF with power spectrum ``P(k) ~ k**spectral_index``.

    Normalized to zero mean, unit variance. Negative spectral indices give
    large-scale-dominated fields (CDM-like for indices around -2.5).
    """
    rng = make_rng(seed)
    fourier = np.fft.fftn(rng.normal(size=shape))
    amp = wavenumber_grid(shape, box_size)
    nonzero = amp > 0
    amp[nonzero] = amp[nonzero] ** (spectral_index / 2.0)
    fourier *= amp
    del amp, nonzero
    field = np.fft.ifftn(fourier).real.copy()
    del fourier
    std = field.std()
    if std == 0.0:
        raise ReproError("degenerate random field (zero variance)")
    field -= field.mean()
    field /= std
    return field


def smooth_field(field: np.ndarray, sigma_cells: float) -> np.ndarray:
    """Gaussian smoothing with periodic boundaries (Fourier multiplier)."""
    if sigma_cells <= 0:
        return np.asarray(field, dtype=np.float64).copy()
    shape = field.shape
    fourier = np.fft.fftn(field)
    kernel = wavenumber_grid(shape, box_size=float(shape[0]))  # cell units
    kernel *= sigma_cells
    kernel **= 2
    kernel *= -0.5
    fourier *= np.exp(kernel, out=kernel)
    del kernel
    return np.fft.ifftn(fourier).real.copy()


def zeldovich_velocity(delta: np.ndarray, box_size: float = 1.0) -> list[np.ndarray]:
    """Zel'dovich-approximation velocity components from an overdensity.

    Solves ``laplacian(phi) = delta`` spectrally and returns ``-grad(phi)``
    per axis — the standard way cosmology initial-condition generators
    produce velocities consistent with a density field.
    """
    shape = delta.shape
    grids, k2 = _k_grids(shape, box_size)
    k2[k2 == 0.0] = np.inf  # kill the DC mode
    phi_hat = np.fft.fftn(delta)
    np.negative(phi_hat, out=phi_hat)
    phi_hat /= k2
    del k2
    return [np.fft.ifftn(-1j * g * phi_hat).real.copy() for g in grids]
