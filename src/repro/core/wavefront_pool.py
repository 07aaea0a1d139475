"""Multi-process hyperplane splitting of the wavefront loop.

The wavefront traversal (see :mod:`repro.core.wavefront`) already
exposes all of each hyperplane as independent elementwise work; this
module splits every hyperplane into ``W`` contiguous chunks and runs the
chunks in ``W`` worker processes.  The reconstruction array lives in
POSIX shared memory so workers see each other's finished planes; a
per-plane progress barrier (one int64 slot per worker, spin-waited)
enforces the only ordering the algorithm needs: *no chunk of plane*
``s`` *starts before every chunk of plane* ``s - 1`` *is stored*.

Because every per-plane operation is elementwise, chunking changes
nothing about the arithmetic — the differential harness
(``tests/test_wavefront_identity.py``) pins byte-for-byte equality with
the serial kernel for ``workers ∈ {1, 2, 4}``.

Workers are dispatched through :func:`repro.parallel.pool.pool_map`, so
the existing telemetry plumbing applies unchanged: with a
:class:`repro.perf.StageTimer` or :class:`repro.obs.Collector` active in
the parent, each worker records its own ``quantize_worker`` /
``dequantize_worker`` stage (distinct names — the parent's ``quantize``
stage already wraps the whole dispatch) and the parent merges the
records with one lane per worker process.

This path is *opt-in* (``workers > 1``) and gated on array size
(:data:`repro.core.wavefront._SPLIT_MIN_POINTS`): process startup, the
per-worker plan rebuild and the barrier spins only amortize on large
arrays.
"""

from __future__ import annotations

import time
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.core.quantizer import UNPREDICTABLE
from repro.core.unpredictable import truncate_to_bound
from repro.parallel.pool import pool_map
from repro.perf import stage

__all__ = ["pool_wavefront_compress", "pool_wavefront_decompress"]

#: Hard ceiling on the pool width; hyperplane chunks thinner than this
#: never pay for themselves.
_MAX_WORKERS = 8

#: Barrier timeout — generous, since a worker may legitimately wait for
#: the whole remaining runtime of the others on an oversubscribed box.
_BARRIER_TIMEOUT_S = 300.0


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory block without adopting it.

    Attaching would register the segment with the resource tracker,
    which then unlinks it when the worker exits — even though the parent
    still owns it (and several workers would race to unregister the same
    name).  Suppressing the registration keeps single-owner semantics:
    the parent created the block and is the only one to unlink it.
    """
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def _wait_for_plane(progress: np.ndarray, s: int) -> None:
    """Block until every worker has finished plane ``s``."""
    if int(progress.min()) >= s:
        return
    deadline = time.monotonic() + _BARRIER_TIMEOUT_S
    spins = 0
    while int(progress.min()) < s:
        spins += 1
        # Start with pure yields; back off to short sleeps so W spinning
        # processes don't starve the one doing work on small machines.
        time.sleep(0 if spins < 200 else 1e-4)
        if time.monotonic() > deadline:
            raise RuntimeError(
                f"wavefront pool barrier timed out waiting for plane {s}"
            )


def _chunk_bounds(start: int, end: int, w: int, n_workers: int) -> tuple[int, int]:
    """Contiguous chunk of plane ``[start, end)`` owned by worker ``w``."""
    m = end - start
    return start + (m * w) // n_workers, start + (m * (w + 1)) // n_workers


def _predict_into(
    pred: np.ndarray,
    nbr: np.ndarray,
    signs: np.ndarray | None,
    coeffs: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """Accumulate the stencil prediction exactly like the serial kernel."""
    pred.fill(0.0)
    if signs is not None:
        for k in range(len(signs)):
            if signs[k] > 0:
                np.add(pred, nbr[k], out=pred)
            else:
                np.subtract(pred, nbr[k], out=pred)
    else:
        for k in range(len(coeffs)):
            np.multiply(nbr[k], coeffs[k], out=tmp)
            np.add(pred, tmp, out=pred)


def _worker_plan(item: dict[str, Any]) -> Any:
    """Rebuild the traversal geometry inside a worker process.

    Tables are skipped — the worker gathers per plane through
    ``plane_table``-style on-the-fly indices restricted to its chunk.
    """
    from repro.core.wavefront import WavefrontPlan

    return WavefrontPlan(
        tuple(item["shape"]),
        int(item["n"]),
        np.dtype(item["out_dtype"]),
        with_tables=False,
    )


def _compress_chunk_worker(item: dict[str, Any]) -> None:
    """One worker's share of every hyperplane (compress direction)."""
    w = int(item["w"])
    n_workers = int(item["workers"])
    eb = float(item["eb"])
    fradius = float(item["radius"])
    two_eb = 2.0 * eb
    out_dtype = np.dtype(item["out_dtype"])
    idt = np.dtype(item["interior_dtype"])
    store_f32 = idt == np.float32
    f32_out = out_dtype == np.float32
    all_finite = bool(item["all_finite"])
    plan = _worker_plan(item)
    n_points = plan.order.size
    shms = [_attach(item[k]) for k in ("vals", "dec", "qall", "ok", "progress")]
    try:
        vals64 = np.ndarray(n_points, dtype=np.float64, buffer=shms[0].buf)
        dec = np.ndarray(n_points + 1, dtype=idt, buffer=shms[1].buf)
        qall = np.ndarray(n_points, dtype=np.float64, buffer=shms[2].buf)
        ok_all = np.ndarray(n_points, dtype=bool, buffer=shms[3].buf)
        progress = np.ndarray(n_workers, dtype=np.int64, buffer=shms[4].buf)
        coeffs, signs = plan.coeffs, plan.signs
        msize = (plan.max_group + n_workers - 1) // n_workers + 1
        pred_s = np.empty(msize, dtype=np.float64)
        tmp_s = np.empty(msize, dtype=np.float64)
        diff_s = np.empty(msize, dtype=np.float64)
        mask_s = np.empty(msize, dtype=bool)
        rc_s = np.empty(msize, dtype=np.float32) if f32_out else None
        chunk_points = sum(
            hi - lo
            for lo, hi in (
                _chunk_bounds(s, e, w, n_workers) for s, e in plan.groups
            )
        )
        with stage(
            "quantize_worker", nbytes=chunk_points * out_dtype.itemsize
        ), np.errstate(invalid="ignore", over="ignore"):
            for s, (start, end) in enumerate(plan.groups):
                _wait_for_plane(progress, s - 1)
                lo, hi = _chunk_bounds(start, end, w, n_workers)
                m = hi - lo
                if m > 0:
                    tab = plan.wf_pos[
                        plan.pad_flat[lo:hi] - plan.deltas[:, None]
                    ]
                    gathered = dec.take(tab)
                    nbr = (
                        gathered.astype(np.float64) if store_f32 else gathered
                    )
                    pred = pred_s[:m]
                    _predict_into(pred, nbr, signs, coeffs, tmp_s[:m])
                    x = vals64[lo:hi]
                    qoff = qall[lo:hi]
                    diff = diff_s[:m]
                    np.subtract(x, pred, out=diff)
                    np.divide(diff, two_eb, out=diff)
                    np.rint(diff, out=qoff)
                    ok = ok_all[lo:hi]
                    np.abs(qoff, out=diff)
                    np.less(diff, fradius, out=ok)
                    np.multiply(qoff, two_eb, out=diff)
                    np.add(pred, diff, out=diff)
                    if f32_out:
                        rc = rc_s[:m]
                        rc[...] = diff
                        recon: np.ndarray = rc
                    else:
                        recon = diff
                    err = tmp_s[:m]
                    np.subtract(x, recon, out=err)
                    np.abs(err, out=err)
                    bounded = mask_s[:m]
                    np.less_equal(err, eb, out=bounded)
                    np.logical_and(ok, bounded, out=ok)
                    if not all_finite:
                        np.logical_and(ok, np.isfinite(x), out=ok)
                    if f32_out and not store_f32:
                        recon = diff
                        recon[...] = rc
                    if not ok.all():
                        miss = mask_s[:m]
                        np.logical_not(ok, out=miss)
                        originals = x[miss].astype(out_dtype)
                        recon[miss] = truncate_to_bound(originals, eb)
                    dec[1 + lo : 1 + hi] = recon
                progress[w] = s
        # Drop every view into the shared buffers before closing them.
        x = qoff = ok = None  # noqa: F841 - release loop-local views
        del vals64, dec, qall, ok_all, progress
    finally:
        _close_all(shms)


def _decompress_chunk_worker(item: dict[str, Any]) -> None:
    """One worker's share of every hyperplane (decompress direction)."""
    w = int(item["w"])
    n_workers = int(item["workers"])
    eb = float(item["eb"])
    fradius = float(item["radius"])
    two_eb = 2.0 * eb
    out_dtype = np.dtype(item["out_dtype"])
    idt = np.dtype(item["interior_dtype"])
    store_f32 = idt == np.float32
    f32_out = out_dtype == np.float32
    n_unpred = int(item["n_unpred"])
    plan = _worker_plan(item)
    n_points = plan.order.size
    names = ["codes", "dec", "progress"]
    if n_unpred:
        names += ["unpred", "uidx"]
    shms = [_attach(item[k]) for k in names]
    try:
        codes = np.ndarray(n_points, dtype=np.int64, buffer=shms[0].buf)
        dec = np.ndarray(n_points + 1, dtype=idt, buffer=shms[1].buf)
        progress = np.ndarray(n_workers, dtype=np.int64, buffer=shms[2].buf)
        unpred_vals = (
            np.ndarray(n_unpred, dtype=idt, buffer=shms[3].buf)
            if n_unpred
            else None
        )
        uidx = (
            np.ndarray(n_points, dtype=np.int64, buffer=shms[4].buf)
            if n_unpred
            else None
        )
        coeffs, signs = plan.coeffs, plan.signs
        msize = (plan.max_group + n_workers - 1) // n_workers + 1
        pred_s = np.empty(msize, dtype=np.float64)
        tmp_s = np.empty(msize, dtype=np.float64)
        work_s = np.empty(msize, dtype=np.float64)
        rc_s = np.empty(msize, dtype=np.float32) if f32_out else None
        with stage(
            "dequantize_worker", nbytes=n_points * out_dtype.itemsize
        ), np.errstate(over="ignore", invalid="ignore"):
            for s, (start, end) in enumerate(plan.groups):
                _wait_for_plane(progress, s - 1)
                lo, hi = _chunk_bounds(start, end, w, n_workers)
                m = hi - lo
                if m > 0:
                    tab = plan.wf_pos[
                        plan.pad_flat[lo:hi] - plan.deltas[:, None]
                    ]
                    gathered = dec.take(tab)
                    nbr = (
                        gathered.astype(np.float64) if store_f32 else gathered
                    )
                    pred = pred_s[:m]
                    _predict_into(pred, nbr, signs, coeffs, tmp_s[:m])
                    work = work_s[:m]
                    work[...] = codes[lo:hi]
                    np.subtract(work, fradius, out=work)
                    np.multiply(work, two_eb, out=work)
                    np.add(pred, work, out=work)
                    if f32_out:
                        rc = rc_s[:m]
                        rc[...] = work
                        recon: np.ndarray = rc
                    else:
                        recon = work
                    if f32_out and not store_f32:
                        recon = work
                        recon[...] = rc
                    if unpred_vals is not None:
                        mask = codes[lo:hi] == UNPREDICTABLE
                        if mask.any():
                            assert uidx is not None
                            recon[mask] = unpred_vals[uidx[lo:hi][mask]]
                    dec[1 + lo : 1 + hi] = recon
                progress[w] = s
        del codes, dec, progress, unpred_vals, uidx
    finally:
        _close_all(shms)


class _ShmPool:
    """Parent-side owner of the run's shared-memory blocks."""

    def __init__(self) -> None:
        self._blocks: list[shared_memory.SharedMemory] = []
        self._views: list[np.ndarray] = []

    def array(
        self, n: int, dtype: np.dtype | type
    ) -> tuple[np.ndarray, str]:
        dt = np.dtype(dtype)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, n * dt.itemsize)
        )
        self._blocks.append(shm)
        view = np.ndarray(n, dtype=dt, buffer=shm.buf)
        self._views.append(view)
        return view, shm.name

    def release(self) -> None:
        self._views.clear()
        for shm in self._blocks:
            shm.close()
            shm.unlink()
        self._blocks.clear()


def _effective_workers(workers: int, max_group: int) -> int:
    return max(1, min(int(workers), _MAX_WORKERS, max_group))


def _close_all(shms: list[shared_memory.SharedMemory]) -> None:
    """Close worker-side attachments, tolerating lingering views.

    On the normal path every ndarray view has been dropped first; on
    error paths a view bound to a local may still pin the buffer, and a
    ``BufferError`` from ``close`` must not mask the real failure (the
    mapping is released when the worker process exits regardless).
    """
    for shm in shms:
        try:
            shm.close()
        except BufferError:
            pass


def pool_wavefront_compress(
    data: np.ndarray,
    eb: float,
    plan: Any,
    radius: int,
    workers: int,
) -> Any:
    """Pool-split twin of ``_wavefront_compress`` — byte-identical output."""
    from repro.core.wavefront import (
        WavefrontResult,
        _effective_interior,
        _materialize_codes,
    )

    out_dtype = data.dtype
    idt = _effective_interior(plan, out_dtype)
    n_workers = _effective_workers(workers, plan.max_group)
    values_orig_wf = data.reshape(-1).take(plan.order)
    n_points = values_orig_wf.size
    shm = _ShmPool()
    try:
        vals64, vals_name = shm.array(n_points, np.float64)
        vals64[...] = values_orig_wf  # exact upcast for f32, copy for f64
        vmin, vmax = vals64.min(), vals64.max()
        all_finite = bool(np.isfinite(vmin)) and bool(np.isfinite(vmax))
        dec, dec_name = shm.array(n_points + 1, idt)
        dec[...] = 0
        qall_sh, qall_name = shm.array(n_points, np.float64)
        ok_sh, ok_name = shm.array(n_points, bool)
        progress, prog_name = shm.array(n_workers, np.int64)
        progress[...] = -1
        base = {
            "shape": tuple(plan.shape),
            "n": int(plan.n),
            "out_dtype": out_dtype.str,
            "interior_dtype": idt.str,
            "eb": float(eb),
            "radius": float(radius),
            "workers": n_workers,
            "all_finite": all_finite,
            "vals": vals_name,
            "dec": dec_name,
            "qall": qall_name,
            "ok": ok_name,
            "progress": prog_name,
        }
        items = [dict(base, w=w) for w in range(n_workers)]
        # n_workers == len(items): the chunks synchronize per plane, so
        # every worker must run concurrently — a narrower pool deadlocks.
        pool_map(_compress_chunk_worker, items, n_workers=n_workers)
        qall = qall_sh.copy()
        ok_all = ok_sh.copy()
        dec_wf = dec.copy()
    finally:
        shm.release()
    if bool(ok_all.all()):
        unpred_chunks: list[np.ndarray] = []
    else:
        unpred_chunks = [values_orig_wf[np.logical_not(ok_all)]]
    codes, unpredictable = _materialize_codes(
        qall, ok_all, unpred_chunks, float(radius), out_dtype
    )
    hit_rate = 1.0 - unpredictable.size / max(1, n_points)
    return WavefrontResult(
        codes, unpredictable, None, hit_rate,
        dec_wf=dec_wf, plan=plan, out_dtype=out_dtype,
    )


def pool_wavefront_decompress(
    codes: np.ndarray,
    unpred_recon: np.ndarray,
    plan: Any,
    eb: float,
    radius: int,
    out_dtype: np.dtype,
    workers: int,
) -> np.ndarray:
    """Pool-split twin of ``_wavefront_decompress`` — byte-identical."""
    from repro.core.wavefront import (
        _effective_interior,
        _wavefront_to_raster,
    )

    out_dtype = np.dtype(out_dtype)
    idt = _effective_interior(plan, out_dtype)
    n_workers = _effective_workers(workers, plan.max_group)
    n_points = plan.order.size
    miss_all = codes == UNPREDICTABLE
    total_miss = int(miss_all.sum(dtype=np.int64))
    if total_miss != unpred_recon.size:
        raise ValueError(
            "corrupt stream: unpredictable-value count mismatch "
            f"({total_miss} consumed, {unpred_recon.size} stored)"
        )
    shm = _ShmPool()
    try:
        codes_sh, codes_name = shm.array(n_points, np.int64)
        codes_sh[...] = codes
        dec, dec_name = shm.array(n_points + 1, idt)
        dec[...] = 0
        progress, prog_name = shm.array(n_workers, np.int64)
        progress[...] = -1
        base = {
            "shape": tuple(plan.shape),
            "n": int(plan.n),
            "out_dtype": out_dtype.str,
            "interior_dtype": idt.str,
            "eb": float(eb),
            "radius": float(radius),
            "workers": n_workers,
            "n_unpred": total_miss,
            "codes": codes_name,
            "dec": dec_name,
            "progress": prog_name,
        }
        if total_miss:
            unpred_sh, unpred_name = shm.array(total_miss, idt)
            unpred_sh[...] = (
                unpred_recon
                if unpred_recon.dtype == idt
                else unpred_recon.astype(idt)
            )
            uidx_sh, uidx_name = shm.array(n_points, np.int64)
            np.cumsum(miss_all, dtype=np.int64, out=uidx_sh)
            np.subtract(uidx_sh, 1, out=uidx_sh)
            base["unpred"] = unpred_name
            base["uidx"] = uidx_name
        items = [dict(base, w=w) for w in range(n_workers)]
        pool_map(_decompress_chunk_worker, items, n_workers=n_workers)
        dec_wf = dec.copy()
    finally:
        shm.release()
    return _wavefront_to_raster(dec_wf, plan, out_dtype)
