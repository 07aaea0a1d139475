"""Anti-diagonal wavefront execution of the prediction/quantization loop.

The paper's Algorithm 1 processes points in raster order; each prediction
must use *preceding decompressed* values so the decompressor can replay
it.  Every stencil offset ``(k1..kd)`` of the multilayer model satisfies
``k1 + ... + kd >= 1``, so a point on the coordinate-sum hyperplane
``s = i1 + ... + id`` depends only on hyperplanes ``< s``.  Processing
hyperplanes in ascending order therefore produces *bit-identical* results
to the sequential scan, while the work inside each hyperplane is a plain
vectorized NumPy kernel — the idiomatic way to make a data-dependent scan
fast in pure Python (vectorize the inner loop; keep the short loop
outside).

Kernel-level optimizations, each pinned byte-identical by
``tests/test_wavefront_identity.py`` against the scalar reference:

* **wavefront-order storage + grouped flat-index tables** — instead of a
  padded d-dimensional working array (which forces a fancy-index scatter
  per plane), reconstructions live in a flat array in wavefront order
  with one extra leading slot holding the padding zero.  Writing a
  finished plane is then a contiguous slice store, and
  :class:`WavefrontPlan` precomputes one contiguous ``(arms, plane)``
  int64 gather table per hyperplane so the hot loop issues a single
  ``take`` per plane.  The tables persist with the plan in the
  compressor's plan cache.
* **reduced-footprint interior** — the working array stores ``float32``
  when :func:`repro.core.quantizer.resolve_interior_dtype` decides the
  input dtype allows it.  Every stored value has already been rounded
  through the output dtype, so the float32 store is exact and the
  float64 upcast on gather reproduces the full-precision arithmetic bit
  for bit; anything else falls back to float64.
* **scratch-buffer reuse** — per-plane temporaries are preallocated at
  the maximum plane size and every ufunc writes through ``out=``; the
  accumulation *order* of the prediction sum is preserved exactly
  (including the ``+0.0`` start that normalizes signed zeros).
* **batched replay** — :func:`wavefront_decompress_batch` replays ``B``
  same-shape streams (the tiles of a tiled read) in one sweep: the
  working array is ``(point, stream)`` and each stream's bound is a
  column, so every per-plane ufunc covers all ``B``.  Whole-array
  decode is the same kernel at ``B = 1``.

The kernels run in the calling process; parallel work is split by
tiles and files (:func:`repro.parallel.pool.pool_map`), never inside one
sweep.  One-dimensional arrays have singleton hyperplanes, so a
dedicated tight scalar loop handles ``d == 1``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from repro.core.predictor import prediction_stencil, unit_coeff_signs
from repro.core.quantizer import UNPREDICTABLE, resolve_interior_dtype
from repro.core.unpredictable import truncate_to_bound
from repro.perf import stage

__all__ = [
    "WavefrontPlan",
    "wavefront_compress",
    "wavefront_decompress",
    "wavefront_decompress_batch",
]

#: Upper bound on precomputed gather-table memory per plan.  Beyond this
#: the kernels rebuild each plane's indices on the fly (identical output,
#: slightly slower) instead of pinning hundreds of MB in the plan cache.
_TABLE_BYTES_MAX = 128 * 1024 * 1024


class WavefrontResult:
    """Everything the container needs, plus compression diagnostics.

    ``decompressed`` — the exact array a decompressor will reconstruct —
    is materialized lazily from the wavefront-order working array: the
    plain ``abs``/``rel`` encode path never reads it, while ``pw_rel`` /
    ``psnr`` verification does.
    """

    __slots__ = (
        "codes", "unpredictable", "hit_rate",
        "_decompressed", "_dec_wf", "_plan", "_out_dtype",
    )

    def __init__(
        self,
        codes: np.ndarray,
        unpredictable: np.ndarray,
        decompressed: np.ndarray | None,
        hit_rate: float,
        *,
        dec_wf: np.ndarray | None = None,
        plan: WavefrontPlan | None = None,
        out_dtype: np.dtype | None = None,
    ) -> None:
        self.codes = codes
        self.unpredictable = unpredictable
        self.hit_rate = hit_rate
        self._decompressed = decompressed
        self._dec_wf = dec_wf
        self._plan = plan
        self._out_dtype = out_dtype

    @property
    def decompressed(self) -> np.ndarray:
        if self._decompressed is None:
            self._decompressed = _wavefront_to_raster(
                self._dec_wf, self._plan, self._out_dtype
            )
            self._dec_wf = None  # free the working copy
        return self._decompressed


def _wavefront_to_raster(
    dec_wf: np.ndarray, plan: WavefrontPlan, out_dtype: np.dtype
) -> np.ndarray:
    """Scatter the wavefront-order reconstruction back to raster order."""
    out = np.empty(plan.order.size, dtype=dec_wf.dtype)
    out[plan.order] = dec_wf[1:]
    return out.reshape(plan.shape).astype(out_dtype)


class WavefrontPlan:
    """Precomputed traversal order and stencil geometry for one shape.

    Plans are cheap relative to compression and cacheable per
    ``(shape, n, dtype)`` — the dtype is part of the identity because the
    plan fixes the working array's ``interior_dtype``; the compressor
    keeps a small cache keyed accordingly.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        n: int,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if any(s <= 0 for s in shape):
            raise ValueError(f"degenerate shape: {shape}")
        self.shape = tuple(int(s) for s in shape)
        self.n = int(n)
        self.ndim = len(self.shape)
        self.dtype = np.dtype(dtype)
        self.interior_dtype = resolve_interior_dtype(self.dtype)
        offsets, coeffs = prediction_stencil(self.n, self.ndim)
        self.coeffs = coeffs
        self.signs = unit_coeff_signs(coeffs)
        self.padded_shape = tuple(s + self.n for s in self.shape)
        self.gather_tables: list[np.ndarray] | None = None
        self.table_bytes = 0
        if self.ndim == 1:
            # 1-D uses the dedicated scalar kernels; no traversal tables.
            self.deltas = np.zeros(0, dtype=np.int64)
            self.order = np.arange(self.shape[0], dtype=np.int64)
            self.groups: list[tuple[int, int]] = []
            self.pad_flat = np.zeros(0, dtype=np.int64)
            self.wf_pos = np.zeros(0, dtype=np.int64)
            self.max_group = 0
            return
        # C-order element strides of the padded index space.
        pad_strides = np.ones(self.ndim, dtype=np.int64)
        for axis in range(self.ndim - 2, -1, -1):
            pad_strides[axis] = pad_strides[axis + 1] * self.padded_shape[axis + 1]
        # Flat-index displacement in padded space for each stencil arm.
        self.deltas = offsets @ pad_strides
        # Traversal: stable sort of flat indices by coordinate sum.
        coord_sum = reduce(
            np.add.outer, [np.arange(s, dtype=np.int32) for s in self.shape]
        ).ravel()
        self.order = np.argsort(coord_sum, kind="stable")
        sums = coord_sum[self.order]
        max_sum = int(sums[-1])
        bounds = np.searchsorted(sums, np.arange(max_sum + 2))
        self.groups = [
            (int(bounds[s]), int(bounds[s + 1])) for s in range(max_sum + 1)
        ]
        self.max_group = max(e - s for s, e in self.groups)
        # Padded flat index of every point, in wavefront order.
        coords = np.unravel_index(self.order, self.shape)
        n_points = self.order.size
        pad_flat = np.zeros(n_points, dtype=np.int64)
        for axis in range(self.ndim):
            pad_flat += (coords[axis].astype(np.int64) + self.n) * pad_strides[axis]
        self.pad_flat = pad_flat
        # Map padded flat index -> wavefront storage slot.  Slot 0 of the
        # working array is the permanent padding zero; data points live at
        # wavefront position + 1.
        padded_size = 1
        for s in self.padded_shape:
            padded_size *= s
        wf_pos = np.zeros(padded_size, dtype=np.int64)
        wf_pos[pad_flat] = np.arange(1, n_points + 1, dtype=np.int64)
        self.wf_pos = wf_pos
        self._build_gather_tables()

    def _build_gather_tables(self) -> None:
        """Precompute one contiguous gather table per hyperplane.

        ``gather_tables[g][k, i]`` is the wavefront-storage slot of
        stencil arm ``k`` for the ``i``-th point of hyperplane ``g`` —
        int64 indices ``take`` consumes directly (int64 *is* the fast
        path: smaller index dtypes get converted per call).  Skipped when
        the tables would exceed the memory budget; the kernels then fall
        back to :meth:`plane_table` per plane.
        """
        arms = int(self.deltas.size)
        total = arms * self.pad_flat.size * 8
        if total > _TABLE_BYTES_MAX:
            return
        neighbour_flat = self.pad_flat[None, :] - self.deltas[:, None]
        slots = self.wf_pos[neighbour_flat]
        self.gather_tables = [
            np.ascontiguousarray(slots[:, s:e]) for s, e in self.groups
        ]
        self.table_bytes = total

    def plane_table(self, start: int, end: int) -> np.ndarray:
        """Gather table for one hyperplane, built on the fly (fallback)."""
        return self.wf_pos[self.pad_flat[start:end] - self.deltas[:, None]]


def wavefront_compress(
    data: np.ndarray,
    eb: float,
    plan: WavefrontPlan,
    radius: int,
) -> WavefrontResult:
    """Run prediction + error-controlled quantization over ``data``.

    Returns codes and unpredictable originals in wavefront order, plus
    (lazily) the exact array a decompressor will reconstruct.
    """
    with stage("quantize", nbytes=data.nbytes):
        return _wavefront_compress(data, eb, plan, radius)


def _effective_interior(plan: WavefrontPlan, out_dtype: np.dtype) -> np.dtype:
    """Interior dtype actually used by a kernel run.

    The plan's ``interior_dtype`` applies only when the plan was built
    for this output dtype; a mismatched plan (possible when callers
    construct plans directly) falls back to float64, which is always
    byte-identical.
    """
    want = resolve_interior_dtype(out_dtype)
    return want if plan.interior_dtype == want else np.dtype(np.float64)


def _wavefront_compress(
    data: np.ndarray,
    eb: float,
    plan: WavefrontPlan,
    radius: int,
) -> WavefrontResult:
    if data.ndim == 1:
        return _compress_1d(data, eb, plan.n, radius)
    out_dtype = data.dtype
    idt = _effective_interior(plan, out_dtype)
    store_f32 = idt == np.float32
    f32_out = out_dtype == np.float32
    values_orig_wf = data.reshape(-1).take(plan.order)
    values_wf = (
        values_orig_wf
        if out_dtype == np.float64
        else values_orig_wf.astype(np.float64)
    )
    n_points = values_wf.size
    dec_wf = np.zeros(n_points + 1, dtype=idt)  # slot 0: padding zero
    # Deferred code materialization: raw quantization offsets and the
    # predictable mask accumulate per plane; one vectorized epilogue
    # turns them into codes (cheaper than per-plane int casts).
    qall = np.empty(n_points, dtype=np.float64)
    ok_all = np.empty(n_points, dtype=bool)
    unpred_chunks: list[np.ndarray] = []
    coeffs, signs, tables = plan.coeffs, plan.signs, plan.gather_tables
    # Finiteness of the whole field in two reductions (min/max are NaN-
    # and Inf-poisoning), avoiding the full isfinite mask when clean.
    vmin, vmax = values_wf.min(), values_wf.max()
    all_finite = bool(np.isfinite(vmin)) and bool(np.isfinite(vmax))
    finite_wf = None if all_finite else np.isfinite(values_wf)
    two_eb = 2.0 * eb
    fradius = float(radius)
    # Scratch buffers at the maximum plane size; every per-plane ufunc
    # writes through out= into contiguous views of these.
    msize = plan.max_group
    pred_s = np.empty(msize, dtype=np.float64)
    tmp_s = np.empty(msize, dtype=np.float64)
    diff_s = np.empty(msize, dtype=np.float64)
    mask_s = np.empty(msize, dtype=bool)
    rc_s = np.empty(msize, dtype=np.float32) if f32_out else None
    with np.errstate(invalid="ignore", over="ignore"):
        for gi, (start, end) in enumerate(plan.groups):
            m = end - start
            tab = tables[gi] if tables is not None else plan.plane_table(start, end)
            gathered = dec_wf.take(tab)
            nbr = gathered.astype(np.float64) if store_f32 else gathered
            pred = pred_s[:m]
            pred.fill(0.0)
            if signs is not None:
                # All-±1 stencil (n == 1): pure adds/subtracts, starting
                # from true zero — bit-identical to `pred += c * arm`.
                for k in range(len(signs)):
                    if signs[k] > 0:
                        np.add(pred, nbr[k], out=pred)
                    else:
                        np.subtract(pred, nbr[k], out=pred)
            else:
                tmp = tmp_s[:m]
                for k in range(len(coeffs)):
                    np.multiply(nbr[k], coeffs[k], out=tmp)
                    np.add(pred, tmp, out=pred)
            # Inlined error-controlled quantization (same operations, in
            # the same order, as repro.core.quantizer.quantize — kept
            # bit-identical; pinned by tests/test_wavefront_identity.py).
            x = values_wf[start:end]
            qoff = qall[start:end]
            diff = diff_s[:m]
            np.subtract(x, pred, out=diff)
            np.divide(diff, two_eb, out=diff)
            np.rint(diff, out=qoff)
            ok = ok_all[start:end]
            np.abs(qoff, out=diff)
            np.less(diff, fradius, out=ok)  # ok = within the code range
            np.multiply(qoff, two_eb, out=diff)
            np.add(pred, diff, out=diff)  # diff = recon, pre-rounding
            if f32_out:
                rc = rc_s[:m]
                rc[...] = diff  # round through the output dtype
                recon = rc
            else:
                recon = diff  # float64 out: rounding is the identity
            err = tmp_s[:m]
            np.subtract(x, recon, out=err)  # f32 operand upcasts exactly
            np.abs(err, out=err)
            bounded = mask_s[:m]
            np.less_equal(err, eb, out=bounded)
            np.logical_and(ok, bounded, out=ok)
            # |x - recon| <= eb already implies recon (and x) finite; only
            # a field with non-finite values needs the explicit mask.
            if finite_wf is not None:
                np.logical_and(ok, finite_wf[start:end], out=ok)
            if f32_out and not store_f32:
                # Fallback (plan built for another dtype): float64 working
                # array holding values rounded through float32.
                recon = diff
                recon[...] = rc
            if not ok.all():
                miss = mask_s[:m]
                np.logical_not(ok, out=miss)
                originals = values_orig_wf[start:end][miss]
                unpred_chunks.append(originals)
                recon[miss] = truncate_to_bound(originals, eb)
            dec_wf[1 + start : 1 + end] = recon

    codes, unpredictable = _materialize_codes(
        qall, ok_all, unpred_chunks, fradius, out_dtype
    )
    hit_rate = 1.0 - unpredictable.size / max(1, n_points)
    return WavefrontResult(
        codes, unpredictable, None, hit_rate,
        dec_wf=dec_wf, plan=plan, out_dtype=out_dtype,
    )


def _materialize_codes(
    qall: np.ndarray,
    ok_all: np.ndarray,
    unpred_chunks: list[np.ndarray],
    fradius: float,
    out_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Turn accumulated offsets + predictable mask into final codes."""
    if unpred_chunks:
        miss_all = np.logical_not(ok_all)
        # Wild offsets (outside the code range) sit at miss positions;
        # zero them before the int cast to avoid undefined conversions.
        np.copyto(qall, 0.0, where=miss_all)
        codes = np.add(qall, fradius, out=qall).astype(np.int64)
        codes[miss_all] = UNPREDICTABLE
        unpredictable = np.concatenate(unpred_chunks)
    else:
        codes = np.add(qall, fradius, out=qall).astype(np.int64)
        unpredictable = np.zeros(0, dtype=out_dtype)
    return codes, unpredictable


def wavefront_decompress(
    codes: np.ndarray,
    unpred_recon: np.ndarray,
    plan: WavefrontPlan,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Replay prediction from codes; inverse of :func:`wavefront_compress`."""
    n_out = 1
    for s in plan.shape:
        n_out *= s
    with stage("dequantize", nbytes=n_out * np.dtype(out_dtype).itemsize):
        return _wavefront_decompress(
            codes, unpred_recon, plan, eb, radius, out_dtype
        )


def wavefront_decompress_batch(
    codes: np.ndarray,
    unpred_recon: list[np.ndarray],
    plan: WavefrontPlan,
    ebs: list[float],
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Replay ``B`` same-shape streams in one sweep; returns ``(B, *shape)``.

    ``codes`` is ``(B, n)`` in wavefront order, one row per stream;
    ``unpred_recon[b]`` and ``ebs[b]`` are stream ``b``'s unpredictable
    reconstructions and absolute bound.  Every stream shares the plan
    (shape, layers, dtype) and ``radius``.  Row ``b`` of the result is
    bit-identical to :func:`wavefront_decompress` of stream ``b`` alone:
    the arithmetic per element is the same, and the bound rides along
    as a column.
    """
    n_out = int(codes.size)
    with stage("dequantize", nbytes=n_out * np.dtype(out_dtype).itemsize):
        return _replay(codes, unpred_recon, plan, ebs, radius, out_dtype)


def _wavefront_decompress(
    codes: np.ndarray,
    unpred_recon: np.ndarray,
    plan: WavefrontPlan,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    """Serial replay of one stream: the batch kernel at ``B = 1``."""
    return _replay(
        codes.reshape(1, -1), [unpred_recon], plan, [eb], radius, out_dtype
    )[0]


def _replay(
    codes: np.ndarray,
    unpred_recon: list[np.ndarray],
    plan: WavefrontPlan,
    ebs: list[float],
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    """The one dequantize kernel: ``(B, n)`` codes to ``(B, *shape)``."""
    batch = codes.shape[0]
    if len(plan.shape) == 1:
        out = np.empty((batch,) + plan.shape, dtype=out_dtype)
        for b in range(batch):
            out[b] = _decompress_1d(
                codes[b], unpred_recon[b], plan.shape[0], plan.n, ebs[b],
                radius, out_dtype,
            )
        return out
    # The working array is (point, stream): each hyperplane is a
    # contiguous block of rows, so gathers and stores stay row slices
    # and every per-plane ufunc covers all B streams at once.  A single
    # stream runs on 1-D views (batch shape ``()``), the exact
    # whole-array kernel.
    out_dtype = np.dtype(out_dtype)
    idt = _effective_interior(plan, out_dtype)
    store_f32 = idt == np.float32
    f32_out = out_dtype == np.float32
    lanes: tuple[int, ...] = () if batch == 1 else (batch,)
    n_points = plan.order.size
    dec_wf = np.zeros((n_points + 1,) + lanes, dtype=idt)
    codes_pb = codes.reshape(-1) if batch == 1 else codes.T
    coeffs, signs, tables = plan.coeffs, plan.signs, plan.gather_tables
    miss_all = codes == UNPREDICTABLE
    counts = miss_all.sum(axis=1, dtype=np.int64)
    for b in range(batch):
        if int(counts[b]) != unpred_recon[b].size:
            raise ValueError(
                "corrupt stream: unpredictable-value count mismatch "
                f"({int(counts[b])} coded, {unpred_recon[b].size} stored)"
            )
    total_miss = int(counts.sum(dtype=np.int64))
    plane_miss = None
    if total_miss:
        # Unpredictable values go straight to their slots; a plane with
        # misses then keeps them over its predicted values.
        rows, pts = np.nonzero(miss_all)
        vals = np.concatenate(unpred_recon).astype(idt, copy=False)
        if batch == 1:
            dec_wf[1 + pts] = vals
            miss_pb = miss_all.reshape(-1)
            any_miss = miss_pb
        else:
            dec_wf[1 + pts, rows] = vals
            miss_pb = miss_all.T
            any_miss = miss_all.any(axis=0)
        starts = np.fromiter(
            (g[0] for g in plan.groups), dtype=np.int64, count=len(plan.groups)
        )
        plane_miss = np.add.reduceat(
            any_miss.astype(np.int64), starts, dtype=np.int64
        )
    if batch == 1:
        two_eb = 2.0 * float(ebs[0])
    else:
        two_eb = 2.0 * np.asarray(ebs, dtype=np.float64)
    fradius = float(radius)
    msize = (plan.max_group,) + lanes
    pred_s = np.empty(msize, dtype=np.float64)
    tmp_s = np.empty(msize, dtype=np.float64)
    work_s = np.empty(msize, dtype=np.float64)
    rc_s = np.empty(msize, dtype=np.float32) if f32_out else None
    # Rounding float64 recon through float32 may overflow to inf for
    # extreme fields; that inf is the value the encoder stored too.
    with np.errstate(over="ignore", invalid="ignore"):
        for gi, (start, end) in enumerate(plan.groups):
            m = end - start
            tab = (
                tables[gi] if tables is not None
                else plan.plane_table(start, end)
            )
            gathered = dec_wf.take(tab, axis=0)
            nbr = gathered.astype(np.float64) if store_f32 else gathered
            pred = pred_s[:m]
            pred.fill(0.0)
            if signs is not None:
                for k in range(len(signs)):
                    if signs[k] > 0:
                        np.add(pred, nbr[k], out=pred)
                    else:
                        np.subtract(pred, nbr[k], out=pred)
            else:
                tmp = tmp_s[:m]
                for k in range(len(coeffs)):
                    np.multiply(nbr[k], coeffs[k], out=tmp)
                    np.add(pred, tmp, out=pred)
            work = work_s[:m]
            work[...] = codes_pb[start:end]  # int64 -> float64 cast
            np.subtract(work, fradius, out=work)
            np.multiply(work, two_eb, out=work)
            np.add(pred, work, out=work)  # work = recon, pre-rounding
            if f32_out:
                rc = rc_s[:m]
                rc[...] = work  # round through the output dtype
                recon = rc
            else:
                recon = work
            if f32_out and not store_f32:
                recon = work
                recon[...] = rc
            dst = dec_wf[1 + start : 1 + end]
            if plane_miss is not None and plane_miss[gi]:
                np.copyto(recon, dst, where=miss_pb[start:end])
            dst[...] = recon
    out = np.empty((batch, n_points), dtype=out_dtype)
    for b in range(batch):
        out[b][plan.order] = dec_wf[1:] if batch == 1 else dec_wf[1:, b]
    return out.reshape((batch,) + plan.shape)


def _compress_1d(
    data: np.ndarray, eb: float, n: int, radius: int
) -> WavefrontResult:
    """Sequential scalar kernel for 1-D arrays (singleton hyperplanes)."""
    out_dtype = data.dtype
    coeffs = prediction_stencil(n, 1)[1].tolist()
    x64 = data.astype(np.float64)
    N = x64.size
    dec = np.zeros(N + n, dtype=np.float64)  # n-element zero prologue
    codes = np.zeros(N, dtype=np.int64)
    unpred_idx: list[int] = []
    two_eb = 2.0 * eb
    xs = x64.tolist()
    cast = out_dtype.type
    # Extreme finite inputs overflow the float64 residual; the range
    # gate below routes them to the unpredictable path, as in the N-d
    # kernel.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N):
            pred = 0.0
            for k in range(n):
                pred += coeffs[k] * dec[i + n - 1 - k]
            x = xs[i]
            d = (x - pred) / two_eb
            # The range gate is also the NaN/Inf guard: a non-finite x (or a
            # prediction poisoned by a raw-stored Inf neighbour) fails the
            # comparison and falls through to the unpredictable path, exactly
            # like the vectorized N-d kernel.
            if -radius < d < radius:
                q = round(d)
                if -radius < q < radius:
                    recon = float(cast(pred + q * two_eb))
                    if abs(x - recon) <= eb and np.isfinite(recon):
                        codes[i] = q + radius
                        dec[i + n] = recon
                        continue
            unpred_idx.append(i)
            dec[i + n] = float(
                truncate_to_bound(np.array([x], dtype=out_dtype), eb)[0]
            )
    unpredictable = data[np.array(unpred_idx, dtype=np.int64)] if unpred_idx else np.zeros(0, dtype=out_dtype)
    decompressed = dec[n:].astype(out_dtype)
    hit_rate = 1.0 - len(unpred_idx) / max(1, N)
    return WavefrontResult(codes, unpredictable, decompressed, hit_rate)


def _decompress_1d(
    codes: np.ndarray,
    unpred_recon: np.ndarray,
    N: int,
    n: int,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
) -> np.ndarray:
    coeffs = prediction_stencil(n, 1)[1].tolist()
    dec = np.zeros(N + n, dtype=np.float64)
    codes_l = codes.tolist()
    unpred64 = unpred_recon.astype(np.float64).tolist()
    upos = 0
    two_eb = 2.0 * eb
    cast = np.dtype(out_dtype).type
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N):
            code = codes_l[i]
            if code == UNPREDICTABLE:
                dec[i + n] = unpred64[upos]
                upos += 1
            else:
                pred = 0.0
                for k in range(n):
                    pred += coeffs[k] * dec[i + n - 1 - k]
                dec[i + n] = float(cast(pred + (code - radius) * two_eb))
    if upos != len(unpred64):
        raise ValueError("corrupt stream: unpredictable-value count mismatch")
    return dec[n:].astype(out_dtype)
