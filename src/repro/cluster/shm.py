"""Shared-memory NumPy arrays with a crash-robust lifecycle.

Process workers (:mod:`repro.cluster.process_pool`) receive weight
matrices through POSIX shared memory instead of pickling them over
pipes — a 64 MB fp32 matrix is mapped, not pushed through a pipe. The
hazard with ``multiprocessing.shared_memory`` is leakage: a segment
outlives the process that forgot to ``unlink`` it and squats in
``/dev/shm`` until reboot. :class:`SharedNDArray` makes
that impossible short of SIGKILL:

* every instance registers a :class:`weakref.finalize` that closes the
  mapping (and unlinks it, for the creating side) when the object is
  garbage collected — including via interpreter shutdown;
* an ``atexit`` sweep runs the finalizers of anything still alive at
  exit, so an exception anywhere in a run cannot leak the segment;
* attachments in workers never unlink (the creator owns the name), so
  double-unlink races cannot occur by construction.

The intended protocol is transient: the parent creates the array, the
worker attaches, *copies it out* and replies, and the parent unlinks on
the reply — shared memory is a transfer mechanism here, not a
long-lived mapping, which keeps lifetime reasoning trivial.
"""

from __future__ import annotations

import atexit
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

_LIVE: "weakref.WeakSet[SharedNDArray]" = weakref.WeakSet()


def _cleanup_segment(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Finalizer body: close (and, for the creator, unlink) a segment."""
    try:
        shm.close()
    except OSError:
        pass
    if owner:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


@atexit.register
def _sweep_at_exit() -> None:
    """Release every still-live segment at interpreter shutdown."""
    for array in list(_LIVE):
        array.release()


@dataclass(frozen=True)
class ShmSpec:
    """A picklable description of a shared array (sent over the pipe)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


class SharedNDArray:
    """A NumPy array view over a shared-memory segment.

    Build with :meth:`create` (allocating side) or :meth:`attach`
    (worker side); read/write through :attr:`array`; call
    :meth:`release` when done — or don't: the finalizer and the atexit
    sweep guarantee cleanup either way.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, spec: ShmSpec, owner: bool
    ):
        self._shm = shm
        self.spec = spec
        self.owner = owner
        self.array = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
        )
        self._finalizer = weakref.finalize(self, _cleanup_segment, shm, owner)
        _LIVE.add(self)

    @classmethod
    def create(cls, shape: Tuple[int, ...], dtype=np.float32) -> "SharedNDArray":
        """Allocate a new zero-initialized shared array (owning side)."""
        dt = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        if size <= 0:
            raise ConfigurationError(
                f"shared array of shape {shape} has no storage"
            )
        shm = shared_memory.SharedMemory(create=True, size=size)
        spec = ShmSpec(name=shm.name, shape=tuple(shape), dtype=dt.str)
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: ShmSpec) -> "SharedNDArray":
        """Map an existing segment by spec (non-owning side)."""
        shm = shared_memory.SharedMemory(name=spec.name)
        return cls(shm, spec, owner=False)

    def release(self) -> None:
        """Close the mapping now (and unlink it, if this side created
        it). Idempotent; the finalizer becomes a no-op afterwards."""
        # Drop the view first: closing a segment with exported buffer
        # views raises BufferError on CPython.
        self.array = None
        self._finalizer()

    @property
    def released(self) -> bool:
        """Whether :meth:`release` (or the finalizer) already ran."""
        return not self._finalizer.alive

    @staticmethod
    def live_segments() -> "list[SharedNDArray]":
        """Every still-unreleased instance in this process.

        Diagnostic hook: the leak tests assert this is empty after any
        transfer completes."""
        return [array for array in _LIVE if not array.released]

    def __enter__(self) -> "SharedNDArray":
        return self

    def __exit__(self, *exc) -> None:
        self.release()
