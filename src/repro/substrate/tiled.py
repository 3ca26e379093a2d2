"""Tiled (out-of-core) dense Cholesky for contact blocks past the memory budget.

The factor-once direct engine of the eigenfunction solver is capped by
``max_direct_panels`` because a dense ``A_cc`` factor costs ``O(ncp^2)``
memory; beyond the cap every block used to fall back to the iterative path
even when a factorisation would win.  This module removes that wall: the
contact block is assembled **tile by tile** (rows gathered from the
operator's cosine-kernel table, never the whole matrix at once) into a
scratch buffer, factored by a blocked right-looking Cholesky whose in-core
working set is a few ``(tile, tile)`` panels, and served through blocked
forward/backward substitution.

Storage is adaptive: when the factor fits the process-wide factor-cache
budget the scratch buffer is an ordinary in-RAM array, otherwise it spills to
a memory-mapped scratch file (``tempfile`` directory, override with
``REPRO_TILED_SCRATCH_DIR``) and the factorisation streams tiles through the
page cache.  Only the lower triangle is ever written or read.

The engine is routed by :class:`~repro.substrate.dispatch.DispatchPolicy` as
the ``"tiled"`` path — chosen for blocks whose panel count exceeds
``max_direct_panels`` (up to ``max_tiled_panels``) when the crossover model
says a factorisation amortises over the block width.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from scipy.linalg import LinAlgError, solve_triangular

__all__ = [
    "TiledCholeskyFactor",
    "tiled_scratch_dir",
    "set_default_scratch_dir",
    "DEFAULT_TILE",
]

#: default tile edge (panels); 1024^2 doubles = 8 MiB per in-core tile
DEFAULT_TILE = 1024

#: programmatic scratch-dir default (the extraction service roots spilled
#: factors under its state dir); the env var still takes precedence
_DEFAULT_SCRATCH_DIR: str | None = None


def set_default_scratch_dir(path: str | os.PathLike | None) -> None:
    """Set (or clear, with ``None``) the process default for tiled scratch.

    ``REPRO_TILED_SCRATCH_DIR`` overrides this; with neither configured,
    scratch files land in the system temp directory as before.  The
    directory is created on demand by the callers.
    """
    global _DEFAULT_SCRATCH_DIR
    _DEFAULT_SCRATCH_DIR = None if path is None else str(path)


def tiled_scratch_dir() -> str:
    """Directory for spilled factor scratch files (env: REPRO_TILED_SCRATCH_DIR)."""
    configured = os.environ.get("REPRO_TILED_SCRATCH_DIR") or _DEFAULT_SCRATCH_DIR
    if configured:
        os.makedirs(configured, exist_ok=True)
        return configured
    return tempfile.gettempdir()


class TiledCholeskyFactor:
    """Blocked right-looking Cholesky ``A = L L^T`` over tiled storage.

    Parameters
    ----------
    n:
        Matrix dimension (number of contact panels).
    tile:
        Tile edge.  The factorisation's in-core working set is a handful of
        ``(tile, tile)`` blocks regardless of ``n``.
    spill_over_bytes:
        Spill threshold: when the ``n^2`` factor storage exceeds this many
        bytes the scratch buffer is a memory-mapped file instead of RAM.
        ``None`` uses the process-wide factor-cache budget
        (:func:`~repro.substrate.factor_cache.factor_cache`), tying "too big
        to hold" to the same knob that bounds every other cached factor.

    Use :meth:`factor` to fill and factor the storage from a row-block
    assembly callback, then :meth:`solve` for right-hand sides.  The factor
    is a context manager (``with TiledCholeskyFactor(...) as tf: ...``)
    whose exit releases the scratch storage; :meth:`close` is idempotent.

    A factor whose storage is *shared* (``shared=True``: adopted from the
    process-wide factor cache, or attached read-only through the
    shared-memory factor plane via :meth:`from_factored_array`) does not own
    its pages — :meth:`close` then only drops this consumer's reference and
    never releases or unlinks anything.
    """

    def __init__(
        self,
        n: int,
        tile: int = DEFAULT_TILE,
        spill_over_bytes: int | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        if tile < 1:
            raise ValueError("tile must be positive")
        self.n = int(n)
        self.tile = int(tile)
        if spill_over_bytes is None:
            from .factor_cache import factor_cache

            spill_over_bytes = factor_cache().max_bytes
        self.nbytes = self.n * self.n * 8
        self.spilled = self.nbytes > int(spill_over_bytes)
        self.scratch_path: str | None = None
        if self.spilled:
            # reprolint: owned-by(TiledCholeskyFactor)
            fd, path = tempfile.mkstemp(
                prefix="repro_tiled_", suffix=".factor", dir=tiled_scratch_dir()
            )
            os.close(fd)
            self.scratch_path = path
            try:
                # reprolint: owned-by(TiledCholeskyFactor)
                self._l = np.memmap(path, dtype=np.float64, mode="w+", shape=(n, n))
            except (OSError, ValueError):
                # mapping n*n*8 bytes can fail (full scratch disk, address
                # space); the mkstemp file would otherwise linger forever
                self.scratch_path = None
                try:
                    os.unlink(path)
                except OSError:
                    pass
                raise
        else:
            self._l = np.zeros((n, n))
        self._factored = False
        #: storage is shared with other consumers (factor cache / plane):
        #: close() must not release it from under them
        self.shared = False

    @classmethod
    def from_factored_array(
        cls, l_array: np.ndarray, tile: int = DEFAULT_TILE
    ) -> "TiledCholeskyFactor":
        """Wrap an already-factored (possibly read-only, shared) ``L`` array.

        Used by the shared-memory factor plane to reconstruct a published
        in-RAM tiled factor as zero-copy views in another process: no storage
        is allocated, the instance is marked factored and ``shared``, and
        :meth:`close` only drops the reference (the publisher owns the
        pages).  The blocked substitution never writes through ``L``, so a
        read-only buffer is fine.
        """
        l_array = np.asarray(l_array)
        if l_array.ndim != 2 or l_array.shape[0] != l_array.shape[1]:
            raise ValueError("factored storage must be a square (n, n) array")
        tf = cls.__new__(cls)
        tf.n = int(l_array.shape[0])
        tf.tile = int(tile)
        if tf.tile < 1:
            raise ValueError("tile must be positive")
        tf.nbytes = tf.n * tf.n * 8
        tf.spilled = False
        tf.scratch_path = None
        tf._l = l_array
        tf._factored = True
        tf.shared = True
        return tf

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the scratch storage (idempotent).

        On shared storage (``shared=True``) this is a no-op: the factor
        cache or the publishing process co-owns the object and its pages, so
        a consumer letting go must simply drop its reference.
        """
        if self.shared or self._l is None:
            return
        mm = self._l
        self._l = None
        self._factored = False
        if self.scratch_path is not None:
            try:
                del mm  # drop the mapping before unlinking the file
            except Exception:
                pass
            try:
                os.unlink(self.scratch_path)
            except OSError:
                pass
            self.scratch_path = None

    def __enter__(self) -> "TiledCholeskyFactor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    def _tiles(self) -> list[tuple[int, int]]:
        return [
            (i0, min(i0 + self.tile, self.n)) for i0 in range(0, self.n, self.tile)
        ]

    # --------------------------------------------------------------- factor
    def factor(self, assemble_rows) -> "TiledCholeskyFactor":
        """Assemble (lower triangle only) and factor in place.

        ``assemble_rows(start, stop)`` must return the dense rows
        ``A[start:stop, :]`` of the symmetric matrix (a ``(stop-start, n)``
        array); only the ``[:, :stop]`` lower part is stored, so the builder's
        peak allocation is one row block.  Raises
        :class:`~scipy.linalg.LinAlgError` if a diagonal tile is not positive
        definite (the caller decides how to fall back).
        """
        if self._l is None:
            raise RuntimeError("factor storage has been closed")
        lo = self._l
        tiles = self._tiles()
        for i0, i1 in tiles:
            lo[i0:i1, :i1] = np.asarray(assemble_rows(i0, i1))[:, :i1]
        for k0, k1 in tiles:
            try:
                lkk = np.linalg.cholesky(np.array(lo[k0:k1, k0:k1]))
            except np.linalg.LinAlgError as exc:
                raise LinAlgError(
                    f"tiled Cholesky failed on diagonal tile [{k0}:{k1}]"
                ) from exc
            lo[k0:k1, k0:k1] = lkk
            below = [(i0, i1) for i0, i1 in tiles if i0 >= k1]
            for i0, i1 in below:
                panel = np.array(lo[i0:i1, k0:k1])
                lo[i0:i1, k0:k1] = solve_triangular(lkk, panel.T, lower=True).T
            for j0, j1 in below:
                ljk = np.array(lo[j0:j1, k0:k1])
                for i0, i1 in below:
                    if i0 < j0:
                        continue
                    update = np.array(lo[i0:i1, k0:k1]) @ ljk.T
                    if i0 == j0:
                        update = np.tril(update)
                    lo[i0:i1, j0:j1] -= update
        if self.spilled:
            lo.flush()
        self._factored = True
        return self

    # ---------------------------------------------------------------- solve
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` by blocked forward/backward substitution.

        Accepts ``(n,)`` vectors or ``(n, k)`` blocks.  Tiles of ``L`` are
        staged through RAM one at a time, so the *factor* never needs more
        than ``O(tile^2)`` resident bytes; the right-hand-side working copy
        is held whole, making peak in-core memory ``O(n k + tile^2)`` —
        callers bound ``k`` (the eigenfunction solver chunks at
        ``max_batch``) to keep the RHS term small.
        """
        if not self._factored:
            raise RuntimeError("factor() has not completed")
        lo = self._l
        b = np.asarray(b, dtype=float)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        if b.shape[0] != self.n:
            raise ValueError("right-hand side has the wrong leading dimension")
        tiles = self._tiles()
        y = b.copy()
        for i0, i1 in tiles:
            for j0, j1 in tiles:
                if j0 >= i0:
                    break
                y[i0:i1] -= np.array(lo[i0:i1, j0:j1]) @ y[j0:j1]
            y[i0:i1] = solve_triangular(
                np.array(lo[i0:i1, i0:i1]), y[i0:i1], lower=True
            )
        x = y
        for i0, i1 in reversed(tiles):
            for j0, j1 in tiles:
                if j0 <= i0:
                    continue
                x[i0:i1] -= np.array(lo[j0:j1, i0:i1]).T @ x[j0:j1]
            x[i0:i1] = solve_triangular(
                np.array(lo[i0:i1, i0:i1]).T, x[i0:i1], lower=False
            )
        return x[:, 0] if squeeze else x
