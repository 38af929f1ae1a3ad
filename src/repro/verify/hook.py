"""The opt-in ``NEWTON_CHECK_INVARIANTS=1`` engine verification hook.

With the flag on, every :class:`~repro.core.engine.NewtonChannelEngine`
attaches an :class:`EngineVerifier` at construction: a streaming trace
recorder that feeds each issued command straight into an incremental
:class:`~repro.verify.invariants.InvariantChecker` (interleaving refresh
windows from the scheduler's log as they appear), then raises
:class:`~repro.errors.VerificationError` at the end of any run that
violated the protocol.

Attaching a recorder to the controller automatically forces the
per-command execution tier for every run (the engine disables schedule
replay and the burst kernel under a trace), so the verifier always sees
the full command stream — that is the point: the hook trades speed for a
protocol check of the exact commands issued. The recorder keeps *no*
history, so arbitrarily long sessions verify in O(1) memory.

The verifier's counters (``invariants_checked`` /
``invariant_violations``) surface in the engine's telemetry export under
the ``verify`` section.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import VerificationError
from repro.utils.envflags import env_flag
from repro.verify.invariants import InvariantChecker, Violation

ENV_FLAG = "NEWTON_CHECK_INVARIANTS"


def check_invariants_env_enabled() -> bool:
    """True when ``NEWTON_CHECK_INVARIANTS`` requests the verifier.

    Off by default (the check forces the per-command tier); accepts the
    repository's standard boolean spellings
    (see :mod:`repro.utils.envflags`).
    """
    return env_flag(ENV_FLAG, default=False)


class EngineVerifier:
    """Streams one engine's issued commands through the invariant checker.

    Installed as the controller's trace recorder: :meth:`record` is
    called per issued command, in issue order. Refresh windows live in
    the scheduler's log, not the command stream, so each :meth:`record`
    first drains any refresh that matured strictly before the incoming
    command (a refresh tying a command's cycle happened after it — the
    barrier stalls from the controller's current time, past every prior
    issue).
    """

    def __init__(self, engine):
        controller = engine.channel.controller
        if controller.trace is not None:
            raise VerificationError(
                "the controller already has a trace recorder; the "
                "invariant verifier cannot attach"
            )
        self._refresh_log = controller.refresh.log
        self._refresh_cursor = 0
        self._reported = 0
        self.checker = InvariantChecker(
            engine.config,
            engine.timing,
            aggressive_tfaw=engine.opt.aggressive_tfaw,
            check_latch=not engine.config.rules.whole_row_readout(
                engine.opt.interleaved_reuse
            ),
            check_refresh_interval=controller.refresh.enabled,
        )
        controller.trace = self

    # ------------------------------------------------------------------
    # the trace-recorder interface the controller drives

    def record(self, record) -> None:
        """Observe one issued command (the ``CommandTrace`` protocol)."""
        self._drain_refreshes(before=record.issue)
        self.checker.observe(record)

    def _drain_refreshes(self, before: Optional[int] = None) -> None:
        log = self._refresh_log
        while self._refresh_cursor < len(log):
            issue, done = log[self._refresh_cursor]
            if before is not None and issue >= before:
                break
            self.checker.observe_refresh(issue, done)
            self._refresh_cursor += 1

    # ------------------------------------------------------------------
    # counters (exported under telemetry's ``verify`` section)

    @property
    def invariants_checked(self) -> int:
        """Individual invariant evaluations performed so far."""
        return self.checker.checks

    @property
    def invariant_violations(self) -> int:
        """Violations found so far (also the count already raised for)."""
        return len(self.checker.violations)

    @property
    def commands_verified(self) -> int:
        return self.checker.records_checked

    # ------------------------------------------------------------------

    def after_run(self, end: Optional[int] = None) -> None:
        """Close out a run; raise if it violated the protocol.

        Drains refresh windows logged at the run's trailing barrier,
        re-checks the run-level invariants (refresh debt at ``end``),
        and raises :class:`VerificationError` carrying the new
        violations. Counters update *before* the raise, so telemetry
        still reports a failed run faithfully.
        """
        self._drain_refreshes()
        self.checker.finish(end)
        fresh: List[Violation] = self.checker.violations[self._reported :]
        if fresh:
            self._reported = len(self.checker.violations)
            shown = "\n".join(v.render() for v in fresh[:10])
            more = len(fresh) - min(len(fresh), 10)
            raise VerificationError(
                f"{len(fresh)} protocol invariant violation(s) this run"
                + (f" (first 10 shown; {more} more)" if more else "")
                + f":\n{shown}"
            )


def maybe_attach_verifier(engine) -> Optional[EngineVerifier]:
    """Attach an :class:`EngineVerifier` if the environment asks for one.

    Called by the engine constructor; returns ``None`` (and leaves the
    engine untouched) unless ``NEWTON_CHECK_INVARIANTS`` is truthy and
    the controller has no trace recorder yet.
    """
    if not check_invariants_env_enabled():
        return None
    if engine.channel.controller.trace is not None:
        return None
    return EngineVerifier(engine)
