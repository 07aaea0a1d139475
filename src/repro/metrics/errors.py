"""Point-wise and average compression-error metrics (Metrics 1-2).

Implements the paper's Eqs. (1)-(3): RMSE, NRMSE and PSNR, plus the
point-wise maxima used for bound verification.  All comparisons happen in
float64 regardless of the input dtypes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "max_abs_error",
    "max_rel_error",
    "rmse",
    "nrmse",
    "psnr",
    "value_range",
    "verify_bound",
]


def _as64(original: np.ndarray, reconstructed: np.ndarray):
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def value_range(original: np.ndarray) -> float:
    """``R_X = x_max - x_min`` over finite values."""
    a = np.asarray(original, dtype=np.float64)
    finite = a[np.isfinite(a)]
    if finite.size == 0:
        return 0.0
    return float(finite.max() - finite.min())


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """``max_i |x_i - x~_i|`` over finite pairs (Metric 1)."""
    a, b = _as64(original, reconstructed)
    mask = np.isfinite(a) & np.isfinite(b)
    if not mask.any():
        return 0.0
    return float(np.abs(a[mask] - b[mask]).max())


def max_rel_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Value-range-based relative error max (Metric 1)."""
    r = value_range(original)
    if r == 0.0:
        return 0.0
    return max_abs_error(original, reconstructed) / r


def rmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Root mean squared error, Eq. (1)."""
    a, b = _as64(original, reconstructed)
    mask = np.isfinite(a) & np.isfinite(b)
    if not mask.any():
        return 0.0
    err = a[mask] - b[mask]
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.mean(err**2)))
        if value == float("inf"):
            # Errors past ~1e154 square to inf; scale by the largest
            # first (only here, so ordinary inputs round as before).
            peak = float(np.abs(err).max())
            value = peak * float(np.sqrt(np.mean((err / peak) ** 2)))
    return value


def nrmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Normalized RMSE, Eq. (2)."""
    r = value_range(original)
    if r == 0.0:
        return 0.0
    return rmse(original, reconstructed) / r


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, Eq. (3).

    ``+inf`` for an exact reconstruction.
    """
    e = rmse(original, reconstructed)
    r = value_range(original)
    if e == 0.0:
        return float("inf")
    if r == 0.0:
        return float("-inf")
    return float(20.0 * np.log10(r / e))


def verify_bound(
    original: np.ndarray,
    reconstructed: np.ndarray,
    mode: str,
    bound: float,
) -> dict:
    """Machine-check an error-bound mode's guarantee on a round-trip.

    Returns a dict with ``ok`` plus the maximum and mean *violation*
    (how far beyond the allowance an error strays; 0.0 where the bound
    holds) and the count of violating points:

    * ``abs`` — allowance ``bound`` per point.
    * ``rel`` — allowance ``bound * (max - min)`` per point.
    * ``pw_rel`` — allowance ``bound * |x_i|`` per finite point; exact
      zeros must reconstruct as zeros.
    * ``psnr`` — scalar check ``psnr(x, x') >= bound`` dB; the violation
      is the dB shortfall.

    Non-finite originals must round-trip to non-finite values in every
    mode (they are outside the numeric guarantee but must not be
    silently replaced); each mismatch counts as an ``inf`` violation.
    """
    a, b = _as64(original, reconstructed)
    if mode == "psnr":
        actual = psnr(a, b)
        shortfall = 0.0 if actual >= bound else float(bound - actual)
        return {
            "mode": mode,
            "bound": float(bound),
            "ok": shortfall == 0.0,
            "max_violation": shortfall,
            "mean_violation": shortfall,
            "n_violations": 0 if shortfall == 0.0 else 1,
        }
    finite = np.isfinite(a)
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(a - b)
    if mode == "abs":
        allowance = np.full(a.shape, float(bound))
    elif mode == "rel":
        allowance = np.full(a.shape, float(bound) * value_range(a))
    elif mode == "pw_rel":
        allowance = float(bound) * np.abs(a)
    else:
        raise ValueError(f"unknown error-bound mode {mode!r}")
    excess = np.zeros(a.shape)
    excess[finite] = np.maximum(0.0, err[finite] - allowance[finite])
    # A finite original reconstructed as NaN/Inf yields a NaN/Inf error;
    # force those to inf so they cannot hide in the max/mean.
    excess[finite & ~np.isfinite(b)] = np.inf
    # Non-finite originals must round-trip: NaN -> NaN, +-Inf -> same Inf.
    mismatch = ~finite & ~((np.isnan(a) & np.isnan(b)) | (a == b))
    excess[mismatch] = np.inf
    n_viol = int((excess > 0).sum())
    return {
        "mode": mode,
        "bound": float(bound),
        "ok": n_viol == 0,
        "max_violation": float(excess.max()) if excess.size else 0.0,
        "mean_violation": float(excess.mean()) if excess.size else 0.0,
        "n_violations": n_viol,
    }
