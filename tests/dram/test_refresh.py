"""Refresh scheduling and Newton's delay-the-op rule (Section III-E)."""

from repro.dram.refresh import RefreshScheduler


class TestRefreshScheduler:
    def test_no_refresh_before_first_interval(self):
        r = RefreshScheduler(t_refi=1000, t_rfc=100)
        assert r.stall_for_refresh(now=0, op_duration=500) == 0
        assert r.refreshes_issued == 0

    def test_op_delayed_when_refresh_would_mature_inside(self):
        """The paper's rule: wait for the pending refresh to mature, send
        it, then send the Newton command."""
        r = RefreshScheduler(t_refi=1000, t_rfc=100)
        start = r.stall_for_refresh(now=900, op_duration=200)
        # Refresh matures at 1000 (inside [900, 1100)); issue it at 1000,
        # done at 1100; the operation starts then.
        assert start == 1100
        assert r.refreshes_issued == 1
        assert r.log == [(1000, 1100)]

    def test_overdue_refresh_issued_immediately(self):
        r = RefreshScheduler(t_refi=1000, t_rfc=100)
        start = r.stall_for_refresh(now=1500, op_duration=10)
        assert start == 1600  # issued at 1500 (already due), done 1600
        assert r.next_due == 2000

    def test_disabled_scheduler_is_transparent(self):
        r = RefreshScheduler(t_refi=1000, t_rfc=100, enabled=False)
        assert r.stall_for_refresh(5000, 10_000) == 5000
        assert r.refreshes_issued == 0

    def test_long_op_protection_capped(self):
        """An op longer than tREFI can never be fully protected: the
        window is capped and the overflow refresh postponed (JEDEC), so
        this must terminate and preserve the average refresh rate."""
        r = RefreshScheduler(t_refi=1000, t_rfc=100)
        start = r.stall_for_refresh(now=950, op_duration=50_000)
        assert start >= 1100
        assert r.refreshes_issued <= 2

    def test_average_refresh_rate_preserved(self):
        r = RefreshScheduler(t_refi=1000, t_rfc=100)
        now = 0
        for _ in range(200):
            now = r.stall_for_refresh(now, 300) + 300
        # Over ~200 ops x 300+ cycles, one refresh per tREFI on average.
        assert abs(r.refreshes_issued - now / 1000) <= 2

    def test_stall_accounting(self):
        r = RefreshScheduler(t_refi=1000, t_rfc=100)
        r.stall_for_refresh(now=990, op_duration=100)
        assert r.stall_cycles == 110  # waited 10 to maturity + 100 tRFC

    def test_last_safe_start_is_the_stall_boundary(self):
        """The one comparison the replay walk makes: an operation
        starting at or before ``last_safe_start`` never stalls, one
        starting a cycle later always does."""
        for op_duration in (10, 200, 899, 900, 50_000):
            r = RefreshScheduler(t_refi=1000, t_rfc=100)
            limit = r.last_safe_start(op_duration)
            assert r.stall_for_refresh(limit, op_duration) == limit
            assert r.refreshes_issued == 0
            assert r.stall_for_refresh(limit + 1, op_duration) > limit + 1
            assert r.refreshes_issued == 1
            assert r.last_safe_start(op_duration) == limit + r.t_refi

    def test_disabled_scheduler_never_fires(self):
        r = RefreshScheduler(t_refi=1000, t_rfc=100, enabled=False)
        assert r.last_safe_start(10) > 10**15

    def test_advance_replays_at_an_equal_phase(self):
        """A recorded advance applied at a later start of the same phase
        leaves the scheduler exactly where running it would."""
        recorded = RefreshScheduler(t_refi=1000, t_rfc=100)
        recorded.stall_for_refresh(now=900, op_duration=200)
        start = 1950  # phase 50, as the next run below
        assert recorded.phase(start) == 50
        issued, stall = recorded.refreshes_issued, recorded.stall_cycles
        now = recorded.stall_for_refresh(start, op_duration=200)
        recorded.stall_for_refresh(now + 400, op_duration=5000)
        advance = recorded.advance_since(start, issued, stall)
        assert advance.issued == 2

        ran = RefreshScheduler(t_refi=1000, t_rfc=100)
        replayed = RefreshScheduler(t_refi=1000, t_rfc=100)
        for scheduler in (ran, replayed):
            scheduler.next_due = 7050
        start = 7000
        assert ran.phase(start) == replayed.phase(start) == 50
        now = ran.stall_for_refresh(start, op_duration=200)
        ran.stall_for_refresh(now + 400, op_duration=5000)
        replayed.replay(advance, start)
        assert replayed == ran

    def test_disabled_scheduler_has_no_phase(self):
        r = RefreshScheduler(t_refi=1000, t_rfc=100, enabled=False)
        assert r.phase(0) is None
