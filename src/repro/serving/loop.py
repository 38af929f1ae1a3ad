"""A deterministic virtual-time async kernel for the serving gateway.

The gateway (:mod:`repro.serving.gateway`) runs in *simulated
DRAM-cycle time*, not wall-clock time: service times come from backend
cycle counts, traces are replayed by seed, and the measured percentiles
have to be comparable with the offline
:class:`~repro.host.serving.ServingSimulator` cycle for cycle.

``asyncio``'s event loop is wall-clock-driven and nondeterministic under
scheduling jitter, so this module provides the minimal cooperative
kernel the gateway needs instead:

* :class:`VirtualLoop` — the scheduler. Its ready queue holds task
  steps and plain callbacks; its timer heap holds futures and plain
  callbacks, each keyed ``(when, seq)`` with ``seq`` drawn when the
  timer is set. Everything ready runs (FIFO) before time advances;
  when nothing is ready, the clock jumps straight to the earliest
  pending timer. A full million-request day of traffic simulates in
  seconds of wall time, identically on every run.
* :class:`SimFuture` — the only suspension point of a coroutine. A
  task awaiting one is registered on it directly and stepped when it
  resolves. :meth:`VirtualLoop.sleep`, :class:`SimQueue`,
  :class:`SimEvent` and :func:`first_of` all hand out futures.

Callbacks cost no coroutine step: the gateway drives its arrivals and
batch services as callbacks and keeps coroutines for the logic that
waits in several places (the batcher, the autoscaler). A callback run
from the ready queue takes the slot a task step would have taken, and a
timer callback runs as its timer pops, so replacing a one-shot task by
a callback keeps the event order. Tasks interleave only at ``await``
boundaries, so gateway code can check-then-wait without missed-wakeup
races, and the whole simulation is exactly reproducible from the trace
seed alone.
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
    :meth:`resolve` becomes a no-op and a pending timer on it is
    discarded without advancing the clock (how :func:`first_of` abandons
    a losing future).
    """

    __slots__ = ("loop", "done", "cancelled", "value", "_waiters")

    def __init__(self, loop: "VirtualLoop"):
        self.loop = loop
        self.done = False
        self.cancelled = False
        self.value: Any = None
        self._waiters: List[Any] = []
        """Tasks to step and callbacks to call with the value."""

    def resolve(self, value: Any = None) -> None:
        """Deliver the value: wake every awaiting task (in the ready
        queue) and call every callback (at once). A no-op after
        :meth:`cancel`; resolving twice is an error."""
        if self.cancelled:
            return
        if self.done:
            raise ServingError("future resolved twice")
        self.done = True
        self.value = value
        waiters = self._waiters
        self._waiters = None  # no waiter registers on a resolved future
        ready = self.loop._ready
        for waiter in waiters:
            if waiter.__class__ is SimTask:
                ready.append((waiter, value))
            else:
                waiter(value)

    def cancel(self) -> None:
        """Abandon the future: waiters are dropped, resolve becomes a
        no-op, and a pending timer on it no longer advances the clock."""
        if not self.done:
            self.cancelled = True
            self._waiters.clear()

    def add_done_callback(self, callback: Callable[[Any], None]) -> None:
        if self.done:
            callback(self.value)
        elif not self.cancelled:
            self._waiters.append(callback)

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
    """The deterministic scheduler: ready entries first, then time jumps.

    The run rule is exhaustive and deterministic: while anything is
    ready, run it (FIFO) — step a task, or call a callback; when nothing
    is, pop the earliest timer, advance :attr:`now` to it, and fire it —
    resolve its future, or call its callback — so that a popped timer's
    consequences, and every task they make ready, run before the next
    timer pops. A timer whose future was cancelled or already resolved
    (the losing deadline of a :func:`first_of` race) is discarded
    without advancing the clock. If nothing is ready or pending and the
    main task is unfinished, the gateway has deadlocked — that is a bug,
    and it is reported as :class:`~repro.errors.ServingError` rather
    than a hang.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: List[Tuple[float, int, Any, Any]] = []
        """``(when, seq, future or callback, value or argument)``."""
        self._ready: Deque[Tuple[Any, Any]] = deque()
        """``(task, value to send)`` or ``(callback, argument)``."""
        self._seq = 0

    # ------------------------------------------------------------------
    # primitives

    def create_task(self, coro: Coroutine, name: str = "task") -> SimTask:
        """Schedule a coroutine to start on the next scheduler pass."""
        task = SimTask(self, coro, name)
        self._ready.append((task, None))
        return task

    def call_soon(self, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``callback(arg)`` from the ready queue, in the slot a task
        created now would take for its first step."""
        self._ready.append((callback, arg))

    def call_at(self, when: float, callback: Any, arg: Any = None) -> None:
        """Call ``callback(arg)`` as the clock reaches ``when``.

        ``callback`` may also be a :class:`SimFuture`: the timer then
        resolves it with ``arg``, unless it was cancelled or already
        resolved, in which case the timer is dropped without advancing
        the clock.
        """
        self._seq += 1
        heapq.heappush(self._timers, (max(when, self.now), self._seq, callback, arg))

    def call_later(
        self, delay: float, callback: Callable[[Any], None], arg: Any = None
    ) -> None:
        """Call ``callback(arg)`` ``delay`` cycles from now (as
        :meth:`sleep` times its future)."""
        self.call_at(self.now + max(0.0, float(delay)), callback, arg)

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
        self.call_at(when, future)
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
        awaited._waiters.append(task)  # __await__ yields only while pending

    def run_until_complete(self, coro: Coroutine, name: str = "main") -> Any:
        """Drive the loop until ``coro`` returns; returns its value."""
        main = self.create_task(coro, name).future
        ready = self._ready
        timers = self._timers
        while not main.done:
            if ready:
                item, value = ready.popleft()
                if item.__class__ is SimTask:
                    self._step(item, value)
                else:
                    item(value)
                continue
            while timers:
                when, _, target, value = heapq.heappop(timers)
                if target.__class__ is SimFuture:
                    if target.done or target.cancelled:
                        continue  # a race already decided: no time advance
                    self.now = when
                    target.resolve(value)
                else:
                    self.now = when
                    target(value)
                break
            else:
                raise ServingError(
                    f"virtual-time deadlock at cycle {self.now}: task "
                    f"{name!r} is unfinished but nothing is ready and no "
                    "timer is pending"
                )
        return main.value


class SimQueue:
    """An unbounded FIFO channel between tasks (virtual-time
    ``asyncio.Queue``). ``get`` hands out a future for the next item;
    getters are served in FIFO order, which is what keeps replica
    dispatch deterministic."""

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

    def get(self) -> SimFuture:
        """A future for the next item (already resolved when one waits)."""
        future = SimFuture(self._loop)
        if self._items:
            future.resolve(self._items.popleft())
        else:
            self._getters.append(future)
        return future


class SimEvent:
    """A level-triggered flag. Each waiter — a future of its own, or a
    :func:`first_of` race — is resolved by the next :meth:`set`, so one
    waiter racing a timeout never cancels another's wakeup."""

    def __init__(self, loop: VirtualLoop):
        self.loop = loop
        self._set = False
        self._waiters: List[Tuple[SimFuture, Any]] = []
        """``(future, value to resolve it with)``."""

    def set(self) -> None:
        self._set = True
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        for future, value in waiters:
            if not future.done:  # a race another arm won is dropped
                future.resolve(value)

    def clear(self) -> None:
        self._set = False

    def wait_future(self) -> SimFuture:
        """A fresh future resolved by the next :meth:`set` (immediately
        if already set)."""
        future = SimFuture(self.loop)
        if self._set:
            future.resolve(True)
        else:
            self._waiters.append((future, True))
        return future

    async def wait(self) -> None:
        await self.wait_future()


def first_of(*arms: Any) -> SimFuture:
    """Race ``arms``: a future resolved with ``(index, value)`` of the
    first arm to fire.

    An arm is a :class:`SimFuture` (fires as it resolves), a
    :class:`SimEvent` (fires with ``True`` at its next ``set``, at once
    if it is set) or a number, a virtual cycle (a deadline timer, fires
    with ``None``). Event and deadline arms cost nothing but the race's
    own future, registered with the event and pushed into the timer heap
    directly: whichever reaches it second finds it resolved and drops
    it, so a deadline that lost is discarded without advancing the
    virtual clock — ``first_of(arrival_event, deadline)`` is the
    batcher's window wait. Future arms that lose are cancelled. If an
    arm has fired already, the first such arm wins at once.
    """
    for arm in arms:
        if arm.__class__ is SimEvent or arm.__class__ is SimFuture:
            race = SimFuture(arm.loop)
            break
    else:
        raise ServingError("first_of needs at least one future or event")
    futures = [arm for arm in arms if arm.__class__ is SimFuture]
    if futures:

        def cancel_losers(_: Any) -> None:
            for future in futures:
                future.cancel()  # a no-op on the winner, which is done

        race.add_done_callback(cancel_losers)
    for index, arm in enumerate(arms):
        kind = arm.__class__
        if kind is SimEvent:
            if arm._set:
                race.resolve((index, True))
            else:
                arm._waiters.append((race, (index, True)))
        elif kind is SimFuture:

            def fire(value: Any, index: int = index) -> None:
                if not race.done:
                    race.resolve((index, value))

            arm.add_done_callback(fire)
        else:
            race.loop.call_at(arm, race, (index, None))
        if race.done:
            break
    return race
