"""The deterministic virtual-time kernel."""

import pytest

from repro.errors import ServingError
from repro.serving.loop import (
    SimEvent,
    SimFuture,
    SimQueue,
    VirtualLoop,
    first_of,
)


class TestVirtualLoop:
    def test_returns_coroutine_value(self):
        loop = VirtualLoop()

        async def main():
            return 42

        assert loop.run_until_complete(main()) == 42
        assert loop.now == 0.0

    def test_sleep_advances_virtual_time_only(self):
        loop = VirtualLoop()

        async def main():
            await loop.sleep(1000.0)
            return loop.now

        assert loop.run_until_complete(main()) == 1000.0

    def test_timers_fire_in_time_order(self):
        loop = VirtualLoop()
        fired = []

        async def sleeper(delay, tag):
            await loop.sleep(delay)
            fired.append((tag, loop.now))

        async def main():
            tasks = [
                loop.create_task(sleeper(delay, tag))
                for tag, delay in (("c", 30.0), ("a", 10.0), ("b", 20.0))
            ]
            for task in tasks:
                await task.future

        loop.run_until_complete(main())
        assert fired == [("a", 10.0), ("b", 20.0), ("c", 30.0)]

    def test_ready_tasks_run_before_time_advances(self):
        loop = VirtualLoop()
        order = []

        async def quick():
            order.append(("quick", loop.now))

        async def main():
            timer = loop.sleep(5.0)
            task = loop.create_task(quick())
            await timer
            await task.future
            order.append(("main", loop.now))

        loop.run_until_complete(main())
        assert order == [("quick", 0.0), ("main", 5.0)]

    def test_zero_sleep_still_suspends_once(self):
        loop = VirtualLoop()
        order = []

        async def other():
            order.append("other")

        async def main():
            loop.create_task(other())
            await loop.sleep(0.0)
            order.append("main")

        loop.run_until_complete(main())
        assert order == ["other", "main"]

    def test_deadlock_is_an_error_not_a_hang(self):
        loop = VirtualLoop()

        async def main():
            await SimFuture(loop)  # nothing will ever resolve this

        with pytest.raises(ServingError, match="deadlock"):
            loop.run_until_complete(main())

    def test_awaiting_foreign_awaitable_is_an_error(self):
        import asyncio

        loop = VirtualLoop()

        async def main():
            await asyncio.sleep(0)

        with pytest.raises(ServingError, match="not a kernel future"):
            loop.run_until_complete(main())


class TestSimFuture:
    def test_double_resolve_is_an_error(self):
        loop = VirtualLoop()
        future = SimFuture(loop)
        future.resolve(1)
        with pytest.raises(ServingError, match="twice"):
            future.resolve(2)

    def test_cancel_silences_resolve(self):
        loop = VirtualLoop()
        future = SimFuture(loop)
        future.cancel()
        future.resolve(1)  # no-op, no error
        assert not future.done

    def test_await_resolved_future_does_not_suspend(self):
        loop = VirtualLoop()
        future = SimFuture(loop)
        future.resolve("value")

        async def main():
            return await future

        assert loop.run_until_complete(main()) == "value"


class TestSimQueue:
    def test_fifo_order(self):
        loop = VirtualLoop()
        queue = SimQueue(loop)
        got = []

        async def consumer():
            for _ in range(3):
                got.append(await queue.get())

        async def main():
            task = loop.create_task(consumer())
            for item in (1, 2, 3):
                queue.put_nowait(item)
            await task.future

        loop.run_until_complete(main())
        assert got == [1, 2, 3]

    def test_getters_served_fifo(self):
        loop = VirtualLoop()
        queue = SimQueue(loop)
        got = []

        async def getter(tag):
            got.append((tag, await queue.get()))

        async def main():
            tasks = [loop.create_task(getter(tag)) for tag in "ab"]
            await loop.sleep(1.0)
            queue.put_nowait("first")
            queue.put_nowait("second")
            for task in tasks:
                await task.future

        loop.run_until_complete(main())
        assert got == [("a", "first"), ("b", "second")]

    def test_get_nowait_empty_returns_none(self):
        loop = VirtualLoop()
        queue = SimQueue(loop)
        assert queue.get_nowait() is None
        queue.put_nowait(7)
        assert len(queue) == 1
        assert queue.get_nowait() == 7


class TestFirstOf:
    def test_earlier_timer_wins_and_clock_stops_there(self):
        loop = VirtualLoop()

        async def main():
            index, _ = await first_of(loop.sleep(100.0), loop.sleep(10.0))
            return index, loop.now

        index, now = loop.run_until_complete(main())
        assert index == 1
        assert now == 10.0

    def test_losing_timer_never_advances_the_clock(self):
        """The abandoned branch of a race must not drag the makespan."""
        loop = VirtualLoop()

        async def main():
            await first_of(loop.sleep(1.0), loop.sleep(10_000.0))
            await loop.sleep(1.0)
            return loop.now

        assert loop.run_until_complete(main()) == 2.0

    def test_already_done_future_wins_immediately(self):
        loop = VirtualLoop()
        done = SimFuture(loop)
        done.resolve("x")

        async def main():
            return await first_of(loop.sleep(50.0), done)

        assert loop.run_until_complete(main()) == (1, "x")
        assert loop.now == 0.0

    def test_event_racing_timeout_leaves_other_waiters_intact(self):
        loop = VirtualLoop()
        event = SimEvent(loop)
        woken = []

        async def patient():
            await event.wait()
            woken.append("patient")

        async def racer():
            index, _ = await first_of(event.wait_future(), loop.sleep(5.0))
            return index

        async def main():
            task = loop.create_task(patient())
            index = await loop.create_task(racer()).future
            event.set()
            await task.future
            return index

        assert loop.run_until_complete(main()) == 1  # racer timed out
        assert woken == ["patient"]  # ...without killing this waiter

    def test_empty_race_is_an_error(self):
        loop = VirtualLoop()

        async def main():
            await first_of()

        with pytest.raises(ServingError, match="at least one"):
            loop.run_until_complete(main())


class TestTieOrder:
    """The event order the gateway's results depend on."""

    def test_equal_timers_fire_in_scheduling_order(self):
        """Futures and callbacks set for one cycle fire in the order they
        were set, whatever the mix."""
        loop = VirtualLoop()
        fired = []

        async def sleeper(tag):
            await loop.timer_at(10.0)
            fired.append(tag)

        async def main():
            tasks = []
            for tag in "abcdef":
                if tag in "ace":
                    loop.call_at(10.0, fired.append, tag)
                else:
                    # A task sets its timer on its first step, so step
                    # it now to keep the tags in scheduling order.
                    tasks.append(loop.create_task(sleeper(tag)))
                    await loop.sleep(0.0)
            for task in tasks:
                await task.future

        loop.run_until_complete(main())
        assert fired == list("abcdef")
        assert loop.now == 10.0

    def test_ready_callbacks_and_task_steps_share_one_fifo(self):
        loop = VirtualLoop()
        order = []

        async def step(tag):
            order.append(tag)

        async def main():
            loop.call_soon(order.append, "a")
            loop.create_task(step("b"))
            loop.call_soon(order.append, "c")
            loop.create_task(step("d"))
            future = SimFuture(loop)
            loop.call_soon(future.resolve, "e")
            order.append(await future)

        loop.run_until_complete(main())
        assert order == list("abcde")

    @pytest.mark.parametrize("arm", ["deadline", "timer future"])
    def test_event_win_leaves_the_race_timer_inert(self, arm):
        """A deadline that lost to an event is popped without moving the
        clock or waking the racer again: with nothing else pending, the
        run deadlocks at the cycle the event won, not at the deadline."""
        loop = VirtualLoop()
        event = SimEvent(loop)
        wakes = []

        async def main():
            timeout = 1_000.0 if arm == "deadline" else loop.timer_at(1_000.0)
            loop.call_at(10.0, lambda _: event.set())
            wakes.append(await first_of(event, timeout))
            await SimFuture(loop)  # never resolved

        with pytest.raises(ServingError, match="deadlock at cycle 10.0"):
            loop.run_until_complete(main())
        assert wakes == [(0, True)]
        assert loop.now == 10.0 and not loop._timers
