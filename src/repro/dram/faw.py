"""Rolling activation-window tracker (tRRD and tFAW).

tFAW bounds how many row activations may land in any sliding window: at
most four activations per ``t_faw`` cycles per channel. Newton's G_ACT
issues four activations *in one command*, so one G_ACT consumes an entire
window and consecutive G_ACTs are separated by max(tRRD, tFAW) — exactly
the Section III-F model's ``max(tRRD, tFAW) * (n/4 - 1)`` term.

A command family's rules say which window an activation counts
against (:class:`~repro.dram.config.FamilyRules`): the channel's one
window, or — for the GradPIM-style ``bankgroup_ext`` family — its bank
group's own. The tracker keeps one rolling window per scope; the
controller sizes it with :meth:`FamilyRules.faw_windows` and passes
each activation's scope from :meth:`FamilyRules.faw_window`. The
tracker itself knows nothing of families. tRRD remains channel-global in
every family — the activation *command* still occupies the shared
command path regardless of which group it targets.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.errors import TimingViolationError


class ActivationWindow:
    """Tracks recent activations to enforce tRRD and tFAW.

    The window size (four) is the JEDEC four-activation window; the
    tracker is agnostic to whether activations arrive singly (ACT) or
    four-at-a-time (G_ACT). With ``groups > 1`` each tFAW window is
    scoped to one bank group while tRRD stays global; the default single
    scope reproduces the channel-wide JEDEC behaviour exactly.
    """

    WINDOW = 4

    def __init__(self, t_rrd: int, t_faw: int, groups: int = 1):
        if t_rrd <= 0 or t_faw <= 0:
            raise TimingViolationError("tRRD and tFAW must be positive")
        if groups < 1:
            raise TimingViolationError("the window needs at least one scope")
        self.t_rrd = t_rrd
        self.t_faw = t_faw
        self.groups = groups
        self._scopes: List[Deque[int]] = [
            deque(maxlen=self.WINDOW) for _ in range(groups)
        ]
        self._last_act = -(10**18)
        self.total_activations = 0

    def set_faw(self, t_faw: int) -> None:
        """Switch the window in force (standard vs aggressive tFAW)."""
        if t_faw <= 0:
            raise TimingViolationError("tFAW must be positive")
        self.t_faw = t_faw

    def earliest(self, count: int, group: int = 0) -> int:
        """Earliest cycle at which ``count`` simultaneous activations are legal.

        Args:
            count: activations issued by the command (1 for ACT, the bank
                group size for G_ACT). Must not exceed the window size —
                more than four truly simultaneous activations can never
                satisfy tFAW.
            group: scope the activations land in (always 0 for the
                channel-wide default).
        """
        if count < 1:
            raise TimingViolationError("an activation command must activate at least one bank")
        if count > self.WINDOW:
            raise TimingViolationError(
                f"{count} simultaneous activations can never satisfy the "
                f"four-activation window"
            )
        bound = self._last_act + self.t_rrd
        # After appending `count` acts at time t, every activation whose
        # WINDOW-previous activation exists must start >= tFAW after it.
        # The binding historical entry for the batch is the one WINDOW-count
        # from the end of history.
        history = list(self._scopes[group])
        if len(history) >= self.WINDOW - count + 1:
            anchor = history[-(self.WINDOW - count + 1)]
            bound = max(bound, anchor + self.t_faw)
        return bound

    def snapshot(self) -> "tuple[tuple[tuple[int, ...], ...], int]":
        """All scopes' recent-activation times and the last activation cycle."""
        return tuple(tuple(scope) for scope in self._scopes), self._last_act

    def fastforward_scopes(
        self,
        scopes: "Tuple[Tuple[int, ...], ...]",
        last_act: int,
        activations: int,
    ) -> None:
        """Jump every scope to a known future history (schedule replay)."""
        if len(scopes) != self.groups:
            raise TimingViolationError(
                f"fast-forward carries {len(scopes)} scopes for a window "
                f"tracking {self.groups}"
            )
        self._scopes = [deque(recent, maxlen=self.WINDOW) for recent in scopes]
        self._last_act = last_act
        self.total_activations += activations

    def record(self, at: int, count: int, group: int = 0) -> None:
        """Record ``count`` activations issued at cycle ``at``."""
        if at < self.earliest(count, group):
            raise TimingViolationError(
                f"activation batch at {at} violates tRRD/tFAW; earliest legal "
                f"cycle is {self.earliest(count, group)}"
            )
        for _ in range(count):
            self._scopes[group].append(at)
        self._last_act = at
        self.total_activations += count
