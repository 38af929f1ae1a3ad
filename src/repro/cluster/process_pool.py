"""Process workers: cluster members that each run in their own interpreter.

In-process cluster members time-slice one core, since the functional
datapath is CPU-bound Python/NumPy. A :class:`ProcessWorker` forwards
each call to one **spawned** interpreter, and
:class:`ProcessShardedCluster` is a
:class:`~repro.cluster.sharded.ShardedCluster` over N of them, adding
only their construction and an ``execution`` telemetry block. The
cluster starts every member's request before waiting on any reply, so
the workers compute in parallel, bit-identical to the in-process
cluster (``tests/cluster/test_process_pool.py``).

* **spawn, not fork**: no inherited locks or copy-on-write NumPy state.
  Everything a worker needs travels through its pipe, and every worker
  process starts before any start-up handshake is awaited.
* **shared-memory matrices**: a matrix to load or store travels in a
  :class:`~repro.cluster.shm.SharedNDArray` that the worker copies out
  and the parent releases when the reply arrives, or fails to.
* **worker-side handles**: a worker member's handle is the integer id
  of its backend's handle inside the worker; every other reply is what
  the backend returned.
* **deterministic workers**: worker *i* seeds ``random`` and NumPy's
  legacy generator from ``SeedSequence([seed, i])``.
* **bounded failure**: a remote exception is raised as
  :class:`~repro.errors.WorkerError` with the worker's traceback, and
  the worker keeps serving. A request the worker has not taken, or a
  reply it has not sent, after :data:`REPLY_DEADLINE_S` (a hung or
  stopped worker), or a closed pipe (a dead one), raises
  ``WorkerError`` and SIGKILLs the worker; the request's shared-memory
  segments are released either way.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import traceback
import weakref
from contextlib import ExitStack, suppress
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict

import numpy as np

from repro.backends.base import Backend
from repro.cluster.sharded import SHARD, ShardedCluster, check_mode
from repro.cluster.shm import SharedNDArray, ShmSpec
from repro.errors import ProtocolError, WorkerError

REPLY_DEADLINE_S = 300.0
"""Longest wait for a worker to take one request, or to send one reply,
before it is killed."""

JOIN_TIMEOUT_S = 10.0
"""Grace period for worker shutdown before the parent kills it."""

_HANDLE_METHODS = frozenset({"store_matrix", "gemv", "gemv_batch", "service_cycles"})
"""Backend methods whose first argument is a handle."""

_SHARED_METHODS = frozenset({"load_matrix", "store_matrix"})
"""Backend methods whose array argument, a matrix, travels in shared
memory; a vector is small enough to pickle."""


def derive_worker_seed(seed: int, worker_index: int) -> int:
    """The deterministic per-worker seed: ``SeedSequence([seed, i])``."""
    return int(
        np.random.SeedSequence([seed, worker_index]).generate_state(1)[0]
    )


def _copy_out(value):
    """Worker side: a shared array's contents (released at once), or
    ``value`` itself."""
    if not isinstance(value, ShmSpec):
        return value
    with SharedNDArray.attach(value) as shared:
        return np.array(shared.array)


def _worker_main(
    conn,
    worker_index: int,
    seed: int,
    backend_name: str,
    backend_kwargs: dict,
) -> None:
    """One worker: build a backend, serve pipe requests until told to
    close. Runs in a spawned child process."""
    worker_seed = derive_worker_seed(seed, worker_index)
    random.seed(worker_seed)
    np.random.seed(worker_seed % (2**32))

    from repro.backends.registry import make_backend

    backend = None
    handles: Dict[int, object] = {}
    try:
        try:
            backend = make_backend(backend_name, **backend_kwargs)
        except Exception:
            conn.send(("error", traceback.format_exc()))
            return
        conn.send(
            ("ok", (backend.name, backend.config, backend.timing, backend.functional))
        )
        while True:
            method, args, kwargs = conn.recv()
            if method == "close":
                break
            try:
                args = [_copy_out(arg) for arg in args]
                if method in _HANDLE_METHODS:
                    args[0] = handles[args[0]]
                result = getattr(backend, method)(*args, **kwargs)
                if method == "load_matrix":
                    handles[len(handles)] = result
                    result = len(handles) - 1
                conn.send(("ok", result))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        if backend is not None:
            backend.close()
        conn.close()


def _stop_worker(process, conn) -> None:
    """Finalizer body: close the pipe and SIGKILL the worker if it still
    runs (SIGKILL also ends a stopped process)."""
    conn.close()
    if process.is_alive():
        process.kill()
    process.join(timeout=JOIN_TIMEOUT_S)


def _forward(method: str):
    """A :class:`ProcessWorker` method that sends one request and waits
    for its reply."""

    def call(self, *args, **kwargs):
        return self.start(method, *args, **kwargs)()

    call.__name__ = method
    return call


class ProcessWorker(Backend):
    """One backend in a spawned worker process, behind the Backend
    protocol.

    Construction spawns the process and returns at once; :meth:`connect`
    awaits the start-up handshake, which carries the backend's ``name``,
    ``config``, ``timing`` and ``functional``. Every call goes through
    :meth:`start`, which returns once the request is sent.
    """

    def __init__(
        self, index: int, seed: int, backend: str, backend_kwargs: dict
    ):
        self.index = index
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, index, seed, backend, backend_kwargs),
            name=f"newton-shard-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._closed = False
        # Even an abandoned (never-closed) worker must not outlive its
        # owner: the finalizer kills it on GC or at exit.
        self._stop = weakref.finalize(
            self, _stop_worker, self.process, self._conn
        )

    def connect(self) -> "ProcessWorker":
        """Wait for the start-up handshake (raises :class:`WorkerError`
        if the backend could not be built)."""
        self.name, self.config, self.timing, self.functional = self._receive()
        return self

    # ------------------------------------------------------------------
    # pipe plumbing

    def _receive(self):
        try:
            if not self._conn.poll(REPLY_DEADLINE_S):
                self._stop()
                raise WorkerError(
                    f"worker {self.index} sent no reply within "
                    f"{REPLY_DEADLINE_S:g} s; killed it"
                )
            status, payload = self._conn.recv()
        except (EOFError, OSError):
            self._stop()
            raise WorkerError(
                f"worker {self.index} died mid-request (pipe closed)"
            ) from None
        if status != "ok":
            raise WorkerError(f"worker {self.index} failed:\n{payload}")
        return payload

    def _send(self, message: tuple) -> None:
        # Pickled here, so a pickling error is raised to the caller, and
        # written by a helper thread the caller waits on for at most
        # REPLY_DEADLINE_S: a worker that has stopped reading would
        # otherwise block a write larger than the pipe's buffer forever.
        payload = ForkingPickler.dumps(message)
        errors = []

        def write() -> None:
            try:
                self._conn.send_bytes(payload)
            except OSError as exc:
                errors.append(exc)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        writer.join(REPLY_DEADLINE_S)
        if writer.is_alive():
            # Killing the reader fails the blocked write; the pipe
            # closes only after the writer has let go of it.
            self.process.kill()
            writer.join(JOIN_TIMEOUT_S)
            self._stop()
            raise WorkerError(
                f"worker {self.index} took no request within "
                f"{REPLY_DEADLINE_S:g} s; killed it"
            )
        if errors:
            self._stop()
            raise WorkerError(f"worker {self.index} is gone ({errors[0]})") from None

    @staticmethod
    def _share(value, segments: ExitStack):
        """A matrix argument as the spec of a shared-memory copy (the
        segment joins ``segments``); anything else as itself."""
        if not isinstance(value, np.ndarray):
            return value
        shared = segments.enter_context(
            SharedNDArray.create(value.shape, value.dtype)
        )
        shared.array[...] = value
        return shared.spec

    def start(self, method: str, *args, **kwargs) -> Callable[[], Any]:
        """Send one request; the returned callable waits for its reply
        and then releases the request's shared-memory segments."""
        if method == "close":
            if not self._closed:
                self._closed = True
                with suppress(WorkerError):
                    self._send(("close", (), {}))
            return self._join
        if self._closed:
            raise ProtocolError("the cluster has been closed")
        segments = ExitStack()
        try:
            if method in _SHARED_METHODS:
                args = tuple(self._share(arg, segments) for arg in args)
            self._send((method, args, kwargs))
        except BaseException:
            segments.close()
            raise

        def wait():
            with segments:
                return self._receive()

        return wait

    def _join(self) -> None:
        self.process.join(timeout=JOIN_TIMEOUT_S)
        self._stop()

    # the Backend protocol: each method is one request and its reply
    load_matrix = _forward("load_matrix")
    store_matrix = _forward("store_matrix")
    gemv = _forward("gemv")
    gemv_batch = _forward("gemv_batch")
    service_cycles = _forward("service_cycles")
    collect_metrics = _forward("collect_metrics")
    close = _forward("close")


class ProcessShardedCluster(ShardedCluster):
    """A :class:`ShardedCluster` whose N members are process workers."""

    def __init__(
        self,
        devices: int,
        *,
        mode: str = SHARD,
        backend: str = "newton",
        seed: int = 0,
        **backend_kwargs,
    ):
        check_mode(mode)
        workers = [
            ProcessWorker(index, seed, backend, backend_kwargs)
            for index in range(devices)
        ]
        try:
            super().__init__([worker.connect() for worker in workers], mode=mode)
        except BaseException:
            for worker in workers:
                worker.close()
            raise
        self.seed = seed

    def collect_metrics(self) -> dict:
        """The cluster record plus an ``execution`` block recording the
        fleet shape (process workers, spawn start method, per-worker
        seeds)."""
        record = super().collect_metrics()
        record["execution"] = {
            "workers": "process",
            "start_method": "spawn",
            "seeds": [
                derive_worker_seed(self.seed, index)
                for index in range(self.devices)
            ],
        }
        return record
