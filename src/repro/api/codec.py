"""`Codec` — one object, every access pattern.

A :class:`Codec` binds an :class:`~repro.api.config.SZConfig` to the
whole pipeline: buffer-in/buffer-out ``encode``/``decode`` (the
numcodecs filter contract, so zarr/h5py-style chunk stacks can consume
it), tiled containers (``encode_tiled``/``decode_tiled``/
``decode_region``), streaming writers and readers
(``open_writer``/``open_reader``), and larger-than-RAM file compression
(``encode_file``).

``encode`` accepts any object exporting the buffer protocol — an
``ndarray``, a ``memoryview``, a typed ``array.array`` or an ``mmap``
view — without copying it; ``decode`` likewise reads straight out of the
caller's buffer and can place its output into a caller-provided ``out``
buffer (the zarr chunk-reuse pattern).

>>> import numpy as np
>>> from repro.api import Codec
>>> codec = Codec(mode="rel", bound=1e-4)
>>> data = np.linspace(0, 1, 256, dtype=np.float32).reshape(16, 16)
>>> out = codec.decode(codec.encode(data))
>>> bool(np.max(np.abs(out - data)) <= 1e-4 * (data.max() - data.min()))
True

When the ``numcodecs`` package is installed, the codec is registered
under ``codec_id = "sz14-repro"`` so ``numcodecs.get_codec({"id":
"sz14-repro", ...})`` (and therefore zarr metadata) resolves to it; the
local :func:`get_codec` works identically without the dependency.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.config import SZConfig

if TYPE_CHECKING:
    from repro.chunked.io import ByteAccountant
    from repro.chunked.streams import TiledReader, TiledWriter
    from repro.core.compressor import CompressionStats
    from repro.obs.tracer import Collector

    # The optional numcodecs base class is opaque to the type checker;
    # the adapter only relies on the methods it defines itself.
    _NumcodecsBase = object
    _numcodecs_register: Callable[..., Any] | None = None
else:
    try:  # pragma: no cover - exercised only when numcodecs is installed
        from numcodecs.abc import Codec as _NumcodecsBase
        from numcodecs.registry import register_codec as _numcodecs_register
    except ImportError:  # the adapter is self-contained; numcodecs is optional
        _NumcodecsBase = object
        _numcodecs_register = None

__all__ = ["Codec", "get_codec", "register_codec"]


def _as_float_array(buf: Any) -> np.ndarray:
    """View ``buf`` as an ndarray without copying.

    ``ndarray`` passes through; anything else goes through
    ``memoryview`` so a typed buffer (``memoryview`` of floats,
    ``array.array('f')``, a NumPy-backed ``mmap`` view) keeps its shape
    and dtype.  Raw byte buffers have no element type and are rejected
    by the compressor's dtype check downstream.
    """
    if isinstance(buf, np.ndarray):
        return buf
    return np.asarray(memoryview(buf))


class Codec(_NumcodecsBase):
    """numcodecs-compatible facade over the SZ-1.4 pipeline.

    Construct from an :class:`SZConfig` (or anything coercible to one)
    or directly from the keyword surface::

        Codec(SZConfig.from_kwargs(mode="abs", bound=1e-3))
        Codec(mode="abs", bound=1e-3, layers=2)
        Codec.from_config({"id": "sz14-repro", "mode": "abs", "bound": 1e-3})
    """

    codec_id = "sz14-repro"

    def __init__(
        self,
        config: SZConfig | dict[str, Any] | None = None,
        collector: "Collector | None" = None,
        **kwargs: Any,
    ) -> None:
        if config is not None and kwargs:
            raise ValueError("pass either a config object or keywords, not both")
        if config is None:
            config = SZConfig.from_kwargs(**kwargs)
        elif isinstance(config, dict):
            config = SZConfig.from_dict(config)
        elif not isinstance(config, SZConfig):
            raise ValueError(
                f"config must be an SZConfig or a dict, got {config!r}"
            )
        self.config = config
        #: optional :class:`repro.obs.Collector` activated around every
        #: encode/decode call — runtime state, excluded from equality
        #: and :meth:`get_config` (it is not part of the codec identity).
        self.collector = collector

    def _collecting(self) -> Any:
        """Context manager activating this codec's collector (if any).

        An ambient collector (one already activated by the caller) wins
        implicitly: activation nests, and the innermost active collector
        receives the telemetry.
        """
        return self.collector if self.collector is not None else nullcontext()

    # -- numcodecs contract ------------------------------------------------

    def encode(self, buf: Any) -> bytes:
        """Compress a float32/float64 buffer into container bytes."""
        from repro.core.compressor import compress_array

        with self._collecting():
            blob, _ = compress_array(_as_float_array(buf), self.config)
        return blob

    def encode_with_stats(self, buf: Any) -> tuple[bytes, CompressionStats]:
        """:meth:`encode` plus the :class:`CompressionStats` diagnostics."""
        from repro.core.compressor import compress_array

        with self._collecting():
            return compress_array(_as_float_array(buf), self.config)

    def decode(self, buf: Any, out: Any = None) -> np.ndarray:
        """Decompress container bytes (any buffer-protocol object).

        With ``out`` (a writable ndarray or buffer of matching size) the
        decoded values are placed there and the filled ndarray view is
        returned — no fresh output allocation for the caller to copy
        from, matching the numcodecs ``decode(buf, out=chunk)`` pattern.
        """
        from repro.core.compressor import decompress

        with self._collecting():
            return decompress(buf, out=out)

    def get_config(self) -> dict[str, Any]:
        """numcodecs-style config dict: ``{"id": codec_id, **knobs}``."""
        return {"id": self.codec_id, **self.config.to_dict()}

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "Codec":
        """Rebuild a codec from :meth:`get_config` output."""
        return cls(SZConfig.from_dict(config))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Codec) and other.config == self.config

    def __hash__(self) -> int:
        return hash((self.codec_id, self.config.to_json()))

    def __repr__(self) -> str:
        knobs = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.config.to_dict().items())
        )
        return f"Codec({knobs})"

    # -- estimation --------------------------------------------------------

    def estimate(
        self,
        source: Any,
        *,
        fraction: float | None = None,
        seed: int | None = None,
        block_values: int | None = None,
    ) -> Any:
        """Predict what :meth:`encode` would achieve, from a small sample.

        Runs the real quantize+entropy model over a deterministic block
        sample of ``source`` (an array, ``.npy`` path, or container) and
        returns the :class:`repro.tuning.Estimate` — predicted ratio
        with a confidence interval, bit rate and expected quality —
        without compressing the whole input.  ``fraction``/``seed``/
        ``block_values`` override the codec config's sampling knobs
        (``sample_fraction``/``sample_seed``/``sample_block``).
        """
        from repro.tuning import estimate as _estimate

        with self._collecting():
            return _estimate(
                source,
                self.config,
                fraction=fraction,
                seed=seed,
                block_values=block_values,
            )

    # -- tiled / streaming access -----------------------------------------

    def encode_tiled(
        self,
        data: np.ndarray,
        tile_shape: int | tuple[int, ...] | None = None,
        out: Any = None,
    ) -> bytes | None:
        """Compress into a tiled (block-indexed) container.

        ``tile_shape`` falls back to ``config.tile_shape``; with ``out``
        (a path or binary handle) the container is written there.
        """
        from repro.chunked.tiled import compress_tiled

        with self._collecting():
            return compress_tiled(
                data,
                tile_shape=tile_shape if tile_shape is not None
                else self.config.tile_shape,
                out=out,
                config=self.config,
            )

    def decode_tiled(self, src: Any) -> np.ndarray:
        """Decompress a tiled container (bytes, path or handle)."""
        from repro.chunked.tiled import decompress_tiled

        with self._collecting():
            return decompress_tiled(src)

    def decode_region(
        self, src: Any, region: Any, accountant: ByteAccountant | None = None
    ) -> np.ndarray:
        """Decode only the tiles of ``src`` intersecting ``region``."""
        from repro.chunked.tiled import decompress_region

        with self._collecting():
            return decompress_region(src, region, accountant=accountant)

    def open_writer(
        self,
        dest: Any,
        shape: tuple[int, ...],
        dtype: Any = np.float32,
        tile_shape: int | tuple[int, ...] | None = None,
    ) -> "TiledWriter":
        """Streaming tile writer bound to this codec's configuration."""
        from repro.chunked.streams import TiledWriter

        return TiledWriter(
            dest,
            shape,
            tile_shape if tile_shape is not None else self.config.tile_shape,
            dtype=dtype,
            config=self.config,
        )

    def open_reader(
        self, src: Any, accountant: ByteAccountant | None = None
    ) -> "TiledReader":
        """Random-access reader over a tiled container."""
        from repro.chunked.streams import TiledReader

        return TiledReader(src, accountant=accountant)

    def encode_file(
        self,
        npy_path: Any,
        out: Any,
        tile_shape: int | tuple[int, ...] | None = None,
    ) -> dict[str, Any]:
        """Compress an ``.npy`` file slab by slab (larger-than-RAM safe)."""
        from repro.chunked.tiled import compress_file_tiled

        with self._collecting():
            return compress_file_tiled(
                npy_path,
                out,
                tile_shape=tile_shape if tile_shape is not None
                else self.config.tile_shape,
                config=self.config,
            )


_REGISTRY: dict[str, type[Codec]] = {}


def register_codec(cls: type[Codec], codec_id: str | None = None) -> None:
    """Register a codec class for :func:`get_codec` lookup.

    When numcodecs is installed the class is registered there too, so
    zarr's own ``get_codec`` resolves the same id.
    """
    _REGISTRY[codec_id or cls.codec_id] = cls
    if _numcodecs_register is not None:  # pragma: no cover - optional dep
        _numcodecs_register(cls, codec_id)


def get_codec(config: dict[str, Any]) -> "Codec":
    """numcodecs-style factory: ``get_codec({"id": "sz14-repro", ...})``."""
    if not isinstance(config, dict):
        raise ValueError(f"codec config must be a dict, got {config!r}")
    codec_id = config.get("id")
    if codec_id not in _REGISTRY:
        raise ValueError(
            f"unknown codec id {codec_id!r}; registered: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[codec_id].from_config(config)


register_codec(Codec)
