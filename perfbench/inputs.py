"""Seeded input generators for the benchmark workloads.

The ATM-like fields mimic the structure of :mod:`repro.datasets`
(multi-scale climate fields) but synthesise their Gaussian random fields
with a real-to-complex FFT, about three times cheaper than
``repro.datasets.fields.gaussian_random_field`` at these sizes.  Input
generation is excluded from every metric; it only has to be fast
enough that a run stays inside its time budget.

Every array is a pure function of ``(name, shape, seed)``.
"""

from __future__ import annotations

import numpy as np

ATM_SHAPE = (1800, 3600)
SERIES_POINTS = 1 << 18
SERIES_COUNT = 4
K0 = 8.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _grf(shape: tuple[int, ...], beta: float, seed: int, stream: int) -> np.ndarray:
    """Zero-mean unit-variance field with isotropic spectrum ``k^-beta``."""
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    k2 = np.zeros(half)
    for axis, n in enumerate(shape):
        freq = (
            np.fft.rfftfreq(n) if axis == len(shape) - 1 else np.fft.fftfreq(n)
        ) * n
        view = [1] * len(shape)
        view[axis] = -1
        k2 = k2 + freq.reshape(view) ** 2
    # The spectrum flattens below wavenumber K0, so the largest features
    # are K0 per axis rather than one: every field holds many independent
    # large-scale features, and its statistics vary little by seed.
    amplitude = (k2 + K0 * K0) ** (-beta / 4.0)
    amplitude.flat[0] = 0.0
    # Random phases over a fixed amplitude spectrum: the seed moves the
    # features but not the spectrum (random amplitudes would let the
    # dominant modes swing ratio and PSNR by several percent).
    phase = _rng(seed, stream).uniform(0.0, 2.0 * np.pi, half)
    spectrum = amplitude * np.exp(1j * phase)
    field = np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))
    field -= field.mean()
    field /= field.std()
    return field


def atm_fields(seed: int) -> dict[str, np.ndarray]:
    """ATM-like ``CDNUMC`` and ``FREQSH`` on the 1800x3600 grid.

    ``CDNUMC`` spans seven decades, so it holds most of the unpredictable
    points; ``FREQSH`` is a bounded fraction with plateaus at 0 and 1.
    ``CDNUMC`` comes first: the cold and memory passes use the first
    input, and its tiles' statistics vary little from seed to seed
    (the plateaus of ``FREQSH`` move its memory peaks by 10-20%).
    """
    shape = ATM_SHAPE
    mask_field = _grf(shape, 4.0, seed, 3)
    rough = _grf(shape, 2.8, seed, 2)
    rough *= mask_field > np.quantile(mask_field, 0.9)
    freqsh = (
        0.5
        + 0.3 * _grf(shape, 5.5, seed, 0)
        + 0.12 * np.tanh(2.0 * _grf(shape, 5.0, seed, 1))
        + 0.03 * rough
    )
    exponents = 4.0 + 3.5 * np.clip(_grf(shape, 3.0, seed, 4), -2, 2)
    return {
        "CDNUMC": (10.0**exponents).astype(np.float32),
        "FREQSH": np.clip(freqsh, 0.0, 1.0).astype(np.float32),
    }


def series_fields(seed: int) -> dict[str, np.ndarray]:
    """Positive log-normal random walks of ``SERIES_POINTS`` float32 points.

    The log follows a mean-reverting walk (correlation length 4096
    steps, stationary standard deviation 0.5), so every series spans a
    similar range of magnitudes whatever the seed.
    """
    from scipy.signal import lfilter

    phi = 1.0 - 1.0 / 4096
    out = {}
    for i in range(SERIES_COUNT):
        steps = _rng(seed, 100 + i).standard_normal(SERIES_POINTS)
        log = lfilter([np.sqrt(1.0 - phi * phi)], [1.0, -phi], steps)
        out[f"series{i}"] = (100.0 * np.exp(0.5 * log)).astype(np.float32)
    return out
