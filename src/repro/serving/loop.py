"""A deterministic virtual-time async kernel for the serving gateway.

The gateway (:mod:`repro.serving.gateway`) is written as ordinary
``async def`` coroutines — a request source, a continuous batcher,
replica workers, an autoscaler — but it must run in *simulated
DRAM-cycle time*, not wall-clock time: service times come from backend
cycle counts, traces are replayed by seed, and the measured percentiles
have to be comparable with the offline
:class:`~repro.host.serving.ServingSimulator` cycle for cycle.

``asyncio``'s event loop is wall-clock-driven and nondeterministic under
scheduling jitter, so this module provides the minimal cooperative
kernel the gateway needs instead:

* :class:`VirtualLoop` — the scheduler. Ready tasks always run before
  time advances; when every task is blocked, the clock jumps straight
  to the earliest pending timer. A full million-request day of traffic
  simulates in milliseconds of wall time, identically on every run.
* :class:`SimFuture` — the only suspension point. Everything else
  (:meth:`VirtualLoop.sleep`, :class:`SimQueue`, :class:`SimEvent`,
  :func:`first_of`) is built from it.

Tasks interleave only at ``await`` boundaries, so gateway code can
check-then-wait without missed-wakeup races, and the whole simulation
is exactly reproducible from the trace seed alone.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Coroutine, Deque, List, Optional, Tuple

from repro.errors import ServingError


class SimFuture:
    """A one-shot awaitable value (the kernel's only suspension point).

    ``await``-ing an unresolved future suspends the task until
    :meth:`resolve` runs; a resolved future is awaited without
    suspending. :meth:`cancel` drops the future silently — a later
    :meth:`resolve` becomes a no-op and pending timers on it are
    discarded without advancing the clock (how :func:`first_of` abandons
    the losing branch of a timeout race).
    """

    __slots__ = ("loop", "done", "cancelled", "value", "_callbacks")

    def __init__(self, loop: "VirtualLoop"):
        self.loop = loop
        self.done = False
        self.cancelled = False
        self.value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    def resolve(self, value: Any = None) -> None:
        """Deliver the value and wake every waiter (idempotent only
        after :meth:`cancel`)."""
        if self.cancelled:
            return
        if self.done:
            raise ServingError("future resolved twice")
        self.done = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def cancel(self) -> None:
        """Abandon the future: waiters are dropped, resolve becomes a
        no-op, and a pending timer on it no longer advances the clock."""
        if not self.done:
            self.cancelled = True
            self._callbacks.clear()

    def add_done_callback(self, callback: Callable[[Any], None]) -> None:
        if self.done:
            callback(self.value)
        elif not self.cancelled:
            self._callbacks.append(callback)

    def __await__(self):
        if not self.done:
            yield self
        return self.value


class SimTask:
    """A coroutine scheduled on a :class:`VirtualLoop`.

    ``task.future`` resolves with the coroutine's return value; awaiting
    it is how one task joins another.
    """

    __slots__ = ("coro", "name", "future")

    def __init__(self, loop: "VirtualLoop", coro: Coroutine, name: str):
        self.coro = coro
        self.name = name
        self.future = SimFuture(loop)

    @property
    def done(self) -> bool:
        return self.future.done

    @property
    def result(self) -> Any:
        return self.future.value


class VirtualLoop:
    """The deterministic scheduler: ready tasks first, then time jumps.

    The run rule is exhaustive and deterministic: while any task is
    ready, step it (FIFO); when none is, pop the earliest timer, advance
    :attr:`now` to it, and fire. If neither exists and the main task is
    unfinished, the gateway has deadlocked — that is a bug, and it is
    reported as :class:`~repro.errors.ServingError` rather than a hang.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: List[Tuple[float, int, SimFuture]] = []
        self._ready: Deque[Tuple[SimTask, Any]] = deque()
        self._seq = 0

    # ------------------------------------------------------------------
    # primitives

    def create_task(self, coro: Coroutine, name: str = "task") -> SimTask:
        """Schedule a coroutine to start on the next scheduler pass."""
        task = SimTask(self, coro, name)
        self._ready.append((task, None))
        return task

    def sleep(self, delay: float) -> SimFuture:
        """A future that resolves ``delay`` cycles from now.

        ``delay <= 0`` still suspends for one scheduler pass (every
        already-ready task runs first), which is what makes
        ``window_cycles=0`` continuous batching well-defined.
        """
        return self.timer_at(self.now + max(0.0, float(delay)))

    def timer_at(self, when: float) -> SimFuture:
        """A future that resolves when the clock reaches ``when``."""
        future = SimFuture(self)
        self._seq += 1
        heapq.heappush(self._timers, (max(when, self.now), self._seq, future))
        return future

    # ------------------------------------------------------------------
    # scheduling

    def _step(self, task: SimTask, value: Any) -> None:
        try:
            awaited = task.coro.send(value)
        except StopIteration as stop:
            task.future.resolve(stop.value)
            return
        if not isinstance(awaited, SimFuture):
            raise ServingError(
                f"task {task.name!r} awaited {type(awaited).__name__}, "
                "which is not a kernel future — only virtual-time "
                "primitives may be awaited inside the gateway"
            )
        awaited.add_done_callback(
            lambda resolved: self._ready.append((task, resolved))
        )

    def run_until_complete(self, coro: Coroutine, name: str = "main") -> Any:
        """Drive the loop until ``coro`` returns; returns its value."""
        main = self.create_task(coro, name)
        while not main.done:
            if self._ready:
                task, value = self._ready.popleft()
                self._step(task, value)
                continue
            while self._timers:
                when, _, future = heapq.heappop(self._timers)
                if future.cancelled:
                    continue  # an abandoned race branch: no time advance
                self.now = max(self.now, when)
                future.resolve(None)
                break
            else:
                raise ServingError(
                    f"virtual-time deadlock at cycle {self.now}: task "
                    f"{name!r} is unfinished but no task is ready and no "
                    "timer is pending"
                )
        return main.result


class SimQueue:
    """An unbounded FIFO channel between tasks (virtual-time
    ``asyncio.Queue``). ``get`` suspends until an item arrives; getters
    are served in FIFO order, which is what keeps replica dispatch
    deterministic."""

    def __init__(self, loop: VirtualLoop):
        self._loop = loop
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimFuture] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put_nowait(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.cancelled:
                getter.resolve(item)
                return
        self._items.append(item)

    def get_nowait(self) -> Optional[Any]:
        """Pop the head without waiting (``None`` when empty)."""
        return self._items.popleft() if self._items else None

    async def get(self) -> Any:
        if self._items:
            return self._items.popleft()
        future = SimFuture(self._loop)
        self._getters.append(future)
        return await future


class SimEvent:
    """A level-triggered flag; each waiter gets its own future, so one
    waiter racing a timeout (:func:`first_of`) never cancels another's
    wakeup."""

    def __init__(self, loop: VirtualLoop):
        self._loop = loop
        self._set = False
        self._waiters: List[SimFuture] = []

    def set(self) -> None:
        self._set = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.cancelled:
                waiter.resolve(True)

    def clear(self) -> None:
        self._set = False

    def wait_future(self) -> SimFuture:
        """A fresh future resolved by the next :meth:`set` (immediately
        if already set)."""
        future = SimFuture(self._loop)
        if self._set:
            future.resolve(True)
        else:
            self._waiters.append(future)
        return future

    async def wait(self) -> None:
        await self.wait_future()


async def first_of(*futures: SimFuture) -> Tuple[int, Any]:
    """Race futures; returns ``(index, value)`` of the first resolved.

    The losing futures are cancelled — in particular a losing timer is
    discarded without ever advancing the virtual clock, so ``first_of(
    arrival, deadline_timer)`` is the batcher's deadline wait.
    """
    if not futures:
        raise ServingError("first_of needs at least one future")
    loop = futures[0].loop
    for index, future in enumerate(futures):
        if future.done:
            for loser in futures:
                if loser is not future:
                    loser.cancel()
            return index, future.value
    combined = SimFuture(loop)

    def make_callback(index: int) -> Callable[[Any], None]:
        def callback(value: Any) -> None:
            if not combined.done:
                combined.resolve((index, value))

        return callback

    for index, future in enumerate(futures):
        future.add_done_callback(make_callback(index))
    index, value = await combined
    for position, future in enumerate(futures):
        if position != index:
            future.cancel()
    return index, value
