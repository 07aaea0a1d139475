"""Deterministic sampling: the data-acquisition half of `repro.tuning`.

An estimate is only as trustworthy as its sample.  This module draws
**deterministic** block samples — the same ``(source, fraction, seed,
block shape)`` request always selects the same elements, so estimates
are reproducible, tuner trials on one source are comparable to each
other, and tests can pin exact predictions.

Three source kinds are supported through one entry point,
:func:`draw_sample`:

* **in-memory arrays** — the array is decomposed into near-isotropic
  blocks (the :class:`~repro.chunked.format.TileGrid` geometry) and a
  seeded permutation picks the sampled subset;
* **``.npy`` files** — identical, but through a memory map, so sampling
  a larger-than-RAM file only faults in the selected blocks;
* **tiled containers** — the sample unit is the container's own tile:
  only the sampled tiles are decompressed, and the per-tile footer
  features (hit rate, mode share, effective alphabet — see
  :func:`repro.chunked.format.footer_features`) ride along for *every*
  tile, since the index makes them free.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.core.compressor import _value_range

__all__ = [
    "DEFAULT_BLOCK_VALUES",
    "Sample",
    "draw_sample",
    "sample_array",
    "sample_container",
    "sample_npy",
]

#: Target element count of one sample block.  Small enough that a few
#: percent of a bench-scale array spans several blocks (variance
#: estimation needs k >= 2), large enough that the block-boundary
#: prediction penalty stays a small correction.
DEFAULT_BLOCK_VALUES = 4096


class Sample:
    """A deterministic block sample plus the source's global facts.

    ``blocks`` are contiguous copies in the source dtype; ``value_range``
    is the finite global range when the source allowed a cheap full pass
    (arrays, ``.npy`` maps), else the range over the sampled blocks with
    ``range_exact`` False.
    """

    def __init__(
        self,
        blocks: list[np.ndarray],
        block_indices: list[int],
        n_blocks_total: int,
        shape: tuple[int, ...],
        dtype: np.dtype,
        value_range: float,
        range_exact: bool,
        fraction: float,
        seed: int,
        source_kind: str,
        tile_features: dict[str, np.ndarray] | None = None,
        container_info: dict[str, Any] | None = None,
    ) -> None:
        self.blocks = blocks
        self.block_indices = block_indices
        self.n_blocks_total = n_blocks_total
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.value_range = value_range
        self.range_exact = range_exact
        self.fraction = fraction
        self.seed = seed
        self.source_kind = source_kind
        self.tile_features = tile_features
        self.container_info = container_info

    @property
    def n_values_total(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def n_values_sampled(self) -> int:
        return sum(int(b.size) for b in self.blocks)

    @property
    def sampled_fraction(self) -> float:
        """The fraction actually drawn (block granularity rounds up)."""
        return self.n_values_sampled / max(1, self.n_values_total)

    def __repr__(self) -> str:
        return (
            f"Sample({self.source_kind}, {len(self.blocks)}/"
            f"{self.n_blocks_total} blocks, "
            f"{self.sampled_fraction:.2%} of {self.shape})"
        )


def _chosen_indices(n_total: int, fraction: float, seed: int) -> list[int]:
    """Deterministic sorted subset of ``range(n_total)`` covering ~fraction."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    # At least two blocks whenever the grid allows it: a single block
    # cannot estimate across-block variance (degenerate CI).
    k = min(n_total, max(2, int(np.ceil(n_total * fraction))))
    # The caller-supplied seed is part of the determinism contract
    # (same seed => same blocks), not an unseeded generator.
    rng = np.random.default_rng(seed)  # szlint: ignore[SZ102]
    chosen = rng.permutation(n_total)[:k]
    chosen.sort()
    return [int(i) for i in chosen]


def sample_array(
    data: np.ndarray,
    fraction: float = 0.05,
    seed: int = 0,
    block_values: int | None = None,
    source_kind: str = "array",
) -> Sample:
    """Sample an in-memory (or memory-mapped) array block-wise."""
    from repro.chunked.format import TileGrid
    from repro.chunked.streams import default_tile_shape

    data = np.asarray(data) if not isinstance(data, np.memmap) else data
    if data.ndim < 1 or data.size == 0:
        raise ValueError("cannot sample an empty or scalar source")
    block_shape = default_tile_shape(
        tuple(int(s) for s in data.shape),
        target_values=block_values or DEFAULT_BLOCK_VALUES,
    )
    grid = TileGrid(tuple(int(s) for s in data.shape), block_shape)
    chosen = _chosen_indices(grid.n_tiles, fraction, seed)
    blocks = [
        np.ascontiguousarray(data[grid.tile_slices(i)]) for i in chosen
    ]
    return Sample(
        blocks=blocks,
        block_indices=chosen,
        n_blocks_total=grid.n_tiles,
        shape=tuple(int(s) for s in data.shape),
        dtype=data.dtype,
        value_range=_value_range(np.asarray(data)),
        range_exact=True,
        fraction=fraction,
        seed=seed,
        source_kind=source_kind,
    )


def sample_npy(
    path: str | Path,
    fraction: float = 0.05,
    seed: int = 0,
    block_values: int | None = None,
) -> Sample:
    """Sample a ``.npy`` file through a memory map.

    Only the selected blocks are materialized; the global value range
    does stream the whole map once (a max/min pass is orders of
    magnitude cheaper than compression).
    """
    data = np.load(path, mmap_mode="r")
    return sample_array(
        data, fraction=fraction, seed=seed, block_values=block_values,
        source_kind="npy",
    )


def sample_container(
    src: Any,
    fraction: float = 0.05,
    seed: int = 0,
) -> Sample:
    """Sample a tiled (SZRT) container tile-wise.

    Decompresses only the sampled tiles; the footer features of *all*
    tiles are attached (``tile_features``) because the index already
    holds them — a ratio model over the container itself never touches a
    payload byte (see :func:`repro.tuning.estimator.estimate`).
    """
    from repro.chunked.format import footer_features
    from repro.chunked.streams import TiledReader

    with TiledReader(src) as reader:
        chosen = _chosen_indices(reader.n_tiles, fraction, seed)
        blocks = reader.read_tiles(chosen)
        features = footer_features(
            reader.entries, itemsize=reader.dtype.itemsize
        )
        info = {
            "format": f"tiled-v{reader.header.version}",
            "shape": reader.shape,
            "tile_shape": reader.tile_shape,
            "n_tiles": reader.n_tiles,
            "dtype": str(reader.dtype),
            "mode": reader.header.mode,
            "mode_param": reader.header.mode_param,
            "abs_bound": reader.header.abs_bound,
            "rel_bound": reader.header.rel_bound,
            "compressed_bytes": reader._src.size,
        }
        shape = reader.shape
        dtype = reader.dtype
    vrange = max((_value_range(b) for b in blocks), default=0.0)
    return Sample(
        blocks=blocks,
        block_indices=chosen,
        n_blocks_total=info["n_tiles"],
        shape=shape,
        dtype=dtype,
        value_range=vrange,
        range_exact=False,
        fraction=fraction,
        seed=seed,
        source_kind="container",
        tile_features=features,
        container_info=info,
    )


def _leading_magic(source: str | Path) -> bytes:
    with open(source, "rb") as fh:
        return fh.read(6)


def draw_sample(
    source: Any,
    fraction: float = 0.05,
    seed: int = 0,
    block_values: int | None = None,
) -> Sample:
    """Dispatching sampler: array, ``.npy`` path, or container.

    ``source`` may be an ``np.ndarray``, a path (``.npy`` file, tiled
    container, or v1 container), or container bytes.  v1 containers have
    no tile index, so sampling one decompresses it fully first — cheap
    for inspection, but prefer tiled containers for estimation at scale.
    """
    from repro.chunked.format import is_tiled

    if isinstance(source, np.ndarray):
        return sample_array(
            source, fraction=fraction, seed=seed, block_values=block_values
        )
    if isinstance(source, (bytes, bytearray, memoryview)):
        if is_tiled(source):
            return sample_container(source, fraction=fraction, seed=seed)
        from repro.core.compressor import decompress

        return sample_array(
            decompress(source), fraction=fraction, seed=seed,
            block_values=block_values, source_kind="v1-container",
        )
    if isinstance(source, (str, Path)):
        magic = _leading_magic(source)
        if magic[:4] == b"SZRT":
            return sample_container(source, fraction=fraction, seed=seed)
        if magic[:6] == b"\x93NUMPY":
            return sample_npy(
                source, fraction=fraction, seed=seed,
                block_values=block_values,
            )
        from repro.core.compressor import decompress

        return sample_array(
            decompress(Path(source).read_bytes()), fraction=fraction,
            seed=seed, block_values=block_values, source_kind="v1-container",
        )
    raise TypeError(
        f"cannot sample {type(source).__name__}: pass an ndarray, a path "
        "to a .npy file or container, or container bytes"
    )
