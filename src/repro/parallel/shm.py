"""Zero-copy shared-memory transport for the ``process`` backend.

``ParallelMap`` ships work to process workers by pickling — fine for
seeds and index tuples, ruinous for the multi-megabyte feature matrices
that every tree fit, PFI permutation, and grid cell needs.  This module
publishes those arrays into POSIX shared memory **once per run** and
teaches them to pickle *by reference*:

* :class:`SharedDataset` — the owning registry.  ``publish(arr)`` copies
  an ndarray into a fresh :class:`multiprocessing.shared_memory`
  segment and returns a read-only :class:`SharedArray` view over it.
  ``close()`` unlinks every segment; the dataset is also closed by an
  ``atexit`` hook, and the stdlib resource tracker unlinks owned
  segments even if the owning process is SIGKILLed — a crashed run
  never leaks ``/dev/shm``.
* :class:`SharedArray` — an ``np.ndarray`` subclass whose ``__reduce__``
  emits ``(segment name, dtype, shape, strides, offset)`` instead of
  bytes whenever its memory still lives inside a live segment (views
  and slices included).  Unpickling attaches to the segment by name —
  zero bytes of array data cross the pipe — and falls back to an
  ordinary by-value copy when the segment is gone or the memory has
  been copied out of it.
* :func:`share_payload` — walks a ``functools.partial`` payload (args,
  kwargs, containers, ``__shm_share__`` protocol objects) and publishes
  every large ndarray it finds; :class:`~repro.parallel.ParallelMap`
  applies it automatically to the mapped function under the process
  backend.

Attaching to a segment that has been unlinked raises
:class:`SharedSegmentGone` — a structured error, never a segfault:
views are only handed out while the mapping is alive, and the owner
keeps every published segment mapped until ``close()``.

Determinism is untouched: ``publish`` stores a bit-exact copy and every
view is read-only, so a worker computes on exactly the bytes the serial
path would see.  Observability: ``parallel.shm_bytes`` counts bytes
published, ``parallel.shm_segments`` counts segments,
``parallel.shm_attach`` counts worker attachments; all flow into
``repro trace-summary``.

``REPRO_SHM=0`` disables the transport globally (everything falls back
to plain pickling); ``REPRO_SHM_MIN_BYTES`` tunes the size below which
arrays are cheaper to pickle than to publish (default 64 KiB).
"""

from __future__ import annotations

import atexit
import os
import weakref

import numpy as np

from ..obs import current_metrics, get_logger

__all__ = [
    "ENV_SHM",
    "ENV_SHM_MIN_BYTES",
    "SHM_MIN_BYTES",
    "SharedArray",
    "SharedDataset",
    "SharedMatrix",
    "SharedSegmentGone",
    "share_payload",
    "shm_enabled",
]

_log = get_logger("parallel")

ENV_SHM = "REPRO_SHM"
ENV_SHM_MIN_BYTES = "REPRO_SHM_MIN_BYTES"

#: Below this many bytes an array is cheaper to pickle than to publish.
SHM_MIN_BYTES = 64 * 1024

#: Attached (non-owned) segments cached per process, evicted FIFO.
_ATTACH_CAP = 256

#: Retired SharedMemory handles, parked so ``__del__`` never closes a
#: mapping some numpy view may still read (see SharedMatrix.retire).
_GRAVEYARD: list = []


def shm_enabled() -> bool:
    """True when the shared-memory transport is available and not
    disabled via ``REPRO_SHM=0`` (checked per call, so tests and the
    benchmark harness can flip it at runtime)."""
    flag = os.environ.get(ENV_SHM, "").strip().lower()
    if flag in ("0", "false", "no", "off"):
        return False
    return _shared_memory() is not None


def resolve_shm_min_bytes(min_bytes: int | None = None) -> int:
    """Publish threshold: arg → ``$REPRO_SHM_MIN_BYTES`` → 64 KiB."""
    if min_bytes is not None:
        return int(min_bytes)
    env = os.environ.get(ENV_SHM_MIN_BYTES, "").strip()
    if not env:
        return SHM_MIN_BYTES
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"{ENV_SHM_MIN_BYTES} must be an integer, got {env!r}"
        ) from None


def _shared_memory():
    """The ``multiprocessing.shared_memory`` module, or None."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without it
        return None
    return shared_memory


class SharedSegmentGone(RuntimeError):
    """Attaching to (or viewing) an unlinked shared-memory segment.

    Raised instead of handing out a view over dead memory: a stale
    by-reference pickle loaded after its :class:`SharedDataset` closed
    fails with this error, never a segfault.
    """

    def __init__(self, name: str, detail: str = "segment is gone"):
        super().__init__(
            f"shared-memory segment {name!r} cannot be attached: "
            f"{detail}; its SharedDataset was closed or its owner died"
        )
        self.name = name


class SharedMatrix:
    """One published shared-memory segment plus its array geometry.

    Process-local handle: the *owner* (the publishing process) holds the
    segment until :meth:`SharedDataset.close`; *attachers* (workers)
    hold a read-only mapping cached per process.  ``spec()`` is the
    picklable identity used to reattach by name.
    """

    __slots__ = ("name", "shape", "dtype_str", "order", "nbytes",
                 "owner", "retired", "_shm", "_base", "__weakref__")

    def __init__(self, shm, shape, dtype_str, order, nbytes, owner):
        self.name = shm.name
        self.shape = tuple(shape)
        self.dtype_str = dtype_str
        self.order = order
        self.nbytes = int(nbytes)
        self.owner = owner
        self.retired = False
        self._shm = shm
        raw = np.ndarray(self.shape, dtype=np.dtype(dtype_str),
                         buffer=shm.buf, order=order)
        self._base = raw.__array_interface__["data"][0]

    def spec(self) -> tuple:
        return (self.name, self.shape, self.dtype_str, self.order,
                self.nbytes)

    # ------------------------------------------------------------------
    def view(self) -> "SharedArray":
        """The canonical read-only full-array view."""
        if self.retired:
            raise SharedSegmentGone(self.name, "segment was retired")
        raw = np.ndarray(self.shape, dtype=np.dtype(self.dtype_str),
                         buffer=self._shm.buf, order=self.order)
        raw.flags.writeable = False
        out = raw.view(SharedArray)
        out._shm = self
        return out

    def view_at(self, dtype_str, shape, strides, offset) -> "SharedArray":
        """A read-only view at an explicit geometry (sliced pickles)."""
        if self.retired:
            raise SharedSegmentGone(self.name, "segment was retired")
        raw = np.ndarray(shape, dtype=np.dtype(dtype_str),
                         buffer=self._shm.buf, offset=offset,
                         strides=strides)
        raw.flags.writeable = False
        out = raw.view(SharedArray)
        out._shm = self
        return out

    def contains(self, arr: np.ndarray) -> bool:
        """True when ``arr``'s memory lies entirely inside this segment
        (negative strides included) — the precondition for pickling it
        by reference."""
        if self.retired or arr.size == 0:
            return False
        start = arr.__array_interface__["data"][0]
        lo = hi = start
        for extent, stride in zip(arr.shape, arr.strides):
            span = (extent - 1) * stride
            if span >= 0:
                hi += span
            else:
                lo += span
        hi += arr.dtype.itemsize
        return self._base <= lo and hi <= self._base + self.nbytes

    # ------------------------------------------------------------------
    def retire(self) -> None:
        """Detach and (for the owner) unlink the segment.

        After this every by-reference pickle of its views degrades to a
        by-value copy, and attaching its name raises
        :class:`SharedSegmentGone`.
        """
        if self.retired:
            return
        self.retired = True
        shm, self._shm = self._shm, None
        if shm is None:
            return
        if self.owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except OSError as exc:  # pragma: no cover - platform quirk
                _log.warning("shm.unlink_failed", segment=self.name,
                             error=str(exc))
        # Never shm.close() here: numpy views built over the mapping do
        # not keep a PEP-3118 export alive, so closing would unmap the
        # pages under any still-live view and turn its next read into a
        # segfault. Parking the handle keeps the mapping valid (views
        # copy out safely via the by-value pickle fallback); the name
        # is already unlinked, and the OS reclaims the pages when the
        # process exits.
        _GRAVEYARD.append(shm)


# ----------------------------------------------------------------------
# Per-process attachment registry.
# ----------------------------------------------------------------------
#: name -> SharedMatrix.  Owners register on publish (so unpickling a
#: by-reference spec inside the owning process reuses the original
#: mapping); workers register on first attach.
_ATTACHMENTS: dict[str, SharedMatrix] = {}


def _register(matrix: SharedMatrix) -> None:
    _ATTACHMENTS[matrix.name] = matrix
    if len(_ATTACHMENTS) > _ATTACH_CAP:
        for name in list(_ATTACHMENTS):
            entry = _ATTACHMENTS[name]
            if not entry.owner and not entry.retired:
                del _ATTACHMENTS[name]
                entry.retire()
                break


def attach(spec: tuple) -> SharedMatrix:
    """Attach to a published segment by spec, cached per process.

    Raises :class:`SharedSegmentGone` when the segment was unlinked
    (clean close, crash cleanup, or owner death).
    """
    name, shape, dtype_str, order, nbytes = spec
    cached = _ATTACHMENTS.get(name)
    if cached is not None:
        if cached.retired:
            raise SharedSegmentGone(name, "segment was retired")
        return cached
    shared_memory = _shared_memory()
    if shared_memory is None:  # pragma: no cover - platform without shm
        raise SharedSegmentGone(name, "shared memory unsupported here")
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError) as exc:
        raise SharedSegmentGone(name, str(exc)) from None
    _untrack(shm)
    if shm.size < nbytes:  # truncated segment: refuse to view it
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass
        raise SharedSegmentGone(
            name, f"segment holds {shm.size} bytes, expected {nbytes}"
        )
    matrix = SharedMatrix(shm, shape, dtype_str, order, nbytes,
                          owner=False)
    _register(matrix)
    current_metrics().counter("parallel.shm_attach").inc()
    return matrix


def _untrack(shm) -> None:
    """Deregister an *attached* segment from the resource tracker.

    Only the publishing process owns the unlink; without this, every
    worker's tracker would try to unlink the segment again at exit and
    spam ``KeyError`` / double-unlink warnings.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def _attach_view(spec, dtype_str, shape, strides, offset):
    """Unpickle hook for by-reference :class:`SharedArray` pickles."""
    return attach(spec).view_at(dtype_str, shape, strides, offset)


def _plain_array(arr: np.ndarray) -> np.ndarray:
    """Unpickle hook for the by-value fallback (plain ndarray)."""
    arr.flags.writeable = False
    return arr


class SharedArray(np.ndarray):
    """A read-only ndarray living in a shared-memory segment.

    Behaves exactly like the plain array it was published from — same
    dtype, shape, values, read-only flag — but pickles *by reference*
    (segment name + geometry) while its segment is alive, so shipping
    it to a worker costs a few hundred bytes regardless of size.
    Slices and transposes stay shared; fancy indexing and arithmetic
    produce ordinary arrays (new memory outside the segment) that
    pickle by value as usual.
    """

    def __array_finalize__(self, obj):
        src = getattr(obj, "_shm", None)
        if src is not None and not src.retired and src.contains(self):
            self._shm = src
        else:
            self._shm = None

    def __reduce__(self):
        src = getattr(self, "_shm", None)
        if src is not None and not src.retired and src.contains(self):
            offset = self.__array_interface__["data"][0] - src._base
            return (_attach_view, (src.spec(), self.dtype.str,
                                   self.shape, tuple(self.strides),
                                   int(offset)))
        return (_plain_array, (np.ascontiguousarray(self),))


# ----------------------------------------------------------------------
# The owning registry.
# ----------------------------------------------------------------------
_LIVE_DATASETS: "weakref.WeakSet[SharedDataset]" = weakref.WeakSet()


class SharedDataset:
    """Owns the shared-memory segments published for one run.

    ``publish`` copies an array in and returns the shared read-only
    view; repeated publishes of the same object are deduplicated.
    ``share`` is the soft variant used on hot paths: it publishes only
    when the transport is enabled, the array is large enough to pay for
    a segment, and the platform cooperates — otherwise it returns the
    array unchanged.  ``close`` unlinks everything (idempotent; also
    invoked from an ``atexit`` hook so a run that forgets is still
    clean, and the multiprocessing resource tracker unlinks owned
    segments even on SIGKILL).
    """

    def __init__(self, label: str = ""):
        self.label = label
        self.closed = False
        self._segments: list[SharedMatrix] = []
        self._published: dict[int, SharedArray] = {}
        self._pins: list = []  # keep id()-keyed sources alive
        _LIVE_DATASETS.add(self)

    # ------------------------------------------------------------------
    def publish(self, arr, key=None) -> SharedArray:
        """Copy ``arr`` into a fresh segment; return the shared view.

        The view is read-only and bit-exact.  Publishing the same
        object (by identity) twice returns the existing view.  Raises
        on platform failure — use :meth:`share` on paths that must
        degrade gracefully.
        """
        if self.closed:
            raise RuntimeError("SharedDataset is closed")
        if isinstance(arr, SharedArray):
            src = getattr(arr, "_shm", None)
            if src is not None and not src.retired:
                return arr
        arr = np.asarray(arr)
        ident = key if key is not None else id(arr)
        existing = self._published.get(ident)
        if existing is not None:
            return existing
        shared_memory = _shared_memory()
        if shared_memory is None:  # pragma: no cover
            raise RuntimeError("shared memory is unsupported here")
        if arr.nbytes == 0:
            raise ValueError("cannot publish an empty array")
        order = "F" if (arr.flags.f_contiguous
                        and not arr.flags.c_contiguous) else "C"
        shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        target = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                            order=order)
        np.copyto(target, arr)
        matrix = SharedMatrix(shm, arr.shape, arr.dtype.str, order,
                              arr.nbytes, owner=True)
        self._segments.append(matrix)
        _register(matrix)
        metrics = current_metrics()
        metrics.counter("parallel.shm_bytes").inc(arr.nbytes)
        metrics.counter("parallel.shm_segments").inc()
        view = matrix.view()
        self._published[ident] = view
        if key is None:
            self._pins.append(arr)  # id() stays valid while pinned
        return view

    def share(self, arr, min_bytes: int | None = None):
        """Publish ``arr`` when worthwhile, else return it unchanged.

        "Worthwhile" = transport enabled, real float/int/bool ndarray,
        at least ``min_bytes`` (default ``$REPRO_SHM_MIN_BYTES`` → 64
        KiB).  Platform errors degrade to the original array — callers
        on the hot path never have to guard.
        """
        if self.closed or not shm_enabled():
            return arr
        if isinstance(arr, SharedArray) or not isinstance(arr, np.ndarray):
            return arr
        if arr.dtype.kind not in "fiub" or arr.dtype.hasobject:
            return arr
        if arr.nbytes < resolve_shm_min_bytes(min_bytes):
            return arr
        try:
            return self.publish(arr)
        except (OSError, ValueError, RuntimeError) as exc:
            _log.warning("shm.publish_failed", error=str(exc),
                         nbytes=arr.nbytes, fallback="pickle")
            return arr

    # ------------------------------------------------------------------
    def metas(self) -> list[tuple]:
        """Specs of every live segment (for pool warm initializers)."""
        return [m.spec() for m in self._segments if not m.retired]

    @property
    def total_bytes(self) -> int:
        return sum(m.nbytes for m in self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment; idempotent."""
        if self.closed:
            return
        self.closed = True
        for matrix in self._segments:
            _ATTACHMENTS.pop(matrix.name, None)
            matrix.retire()
        self._published.clear()
        self._pins.clear()
        _LIVE_DATASETS.discard(self)

    def __enter__(self) -> "SharedDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass


@atexit.register
def _close_live_datasets() -> None:  # pragma: no cover - exit hook
    for dataset in list(_LIVE_DATASETS):
        try:
            dataset.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Payload transformation.
# ----------------------------------------------------------------------
_SHARE_DEPTH = 4


def share_payload(obj, share, _depth: int = 0):
    """Return ``obj`` with every large ndarray replaced by its shared
    view, recursing through ``functools.partial``, tuples, lists and
    dicts (shallowly, to a small depth).

    ``share`` is the replacement policy — typically
    :meth:`SharedDataset.share`, which applies the size threshold and
    degrades gracefully.  Objects exposing ``__shm_share__(share)``
    (e.g. :class:`repro.ml.tree.FeatureBins`,
    :class:`repro.ml.tree.FeatureRanks`,
    :class:`repro.ml.compiled.CompiledEnsemble`) return a copy of
    themselves with their internal arrays shared.
    """
    if _depth > _SHARE_DEPTH:
        return obj
    if isinstance(obj, SharedArray):
        return obj
    if isinstance(obj, np.ndarray):
        return share(obj)
    hook = getattr(obj, "__shm_share__", None)
    if hook is not None and not isinstance(obj, type):
        return hook(share)
    from functools import partial

    if isinstance(obj, partial):
        new_args = tuple(share_payload(a, share, _depth + 1)
                         for a in obj.args)
        new_kwargs = {k: share_payload(v, share, _depth + 1)
                      for k, v in obj.keywords.items()}
        return partial(obj.func, *new_args, **new_kwargs)
    if isinstance(obj, tuple):
        return tuple(share_payload(v, share, _depth + 1) for v in obj)
    if isinstance(obj, list):
        return [share_payload(v, share, _depth + 1) for v in obj]
    if isinstance(obj, dict):
        return {k: share_payload(v, share, _depth + 1)
                for k, v in obj.items()}
    return obj
