"""Quality metrics: point-wise error, PSNR, SSIM / R-SSIM, artifacts, spectra."""

from repro.metrics.error import max_abs_error, mse, psnr, verify_error_bound
from repro.metrics.ssim import ssim, ssim_map, r_ssim
from repro.metrics.artifacts import blockiness, hausdorff_distance
from repro.metrics.spectrum import power_spectrum, spectrum_distortion

__all__ = [
    "max_abs_error",
    "mse",
    "psnr",
    "verify_error_bound",
    "ssim",
    "ssim_map",
    "r_ssim",
    "blockiness",
    "hausdorff_distance",
    "power_spectrum",
    "spectrum_distortion",
]
