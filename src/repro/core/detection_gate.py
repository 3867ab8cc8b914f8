"""The detection gate: MNS detection runs only while it pays for itself.

The paper makes feedback optional (Section III-A: a consumer that does not
detect is still correct; end of Section IV: "a high degree of flexibility").
Every detecting input port of a :class:`~repro.core.jit_join.JITJoinOperator`
owns one :class:`DetectionGate` that uses that freedom.  It compares two
running sums, both in modelled cost units, over epochs of one window of
stream time:

* ``spent_units`` — what JIT cost because this port detects: cost-model
  deltas across the detector, ``_finish_detection``, the MNS-buffer probe,
  the purge of the JIT structures and every feedback message (the producers
  handle feedback synchronously, so their blacklisting, propagation and
  resumption work falls inside the sender's delta), plus the upkeep of the
  blacklist entries the port's suspensions created anywhere upstream;
* ``avoided_units`` — what the suspensions it started saved, booked by the
  producers that hold them (docs/JIT.md, "When detection pays", says which
  part is counted and which is estimated).

The gate starts open — the paper's behaviour.  An epoch that ends with
``avoided < spent`` puts it to rest; a rest is followed by one trial epoch,
and a trial that pays resets the schedule.  A rest lasts as long as the loss
was deep, ``floor(spent / avoided)`` windows, or double the last rest
(1, 2, 4, ... windows) if that is longer: an epoch that lost k-fold only
pays once what its suspensions save grows k-fold, and a narrow loss
(under 2x) or one that saved nothing keeps the doubling schedule.  While
the gate rests the operator probes as if it had no detector, and what it
suspended earlier drains through the ordinary resume and cancel paths.

The decision is a function of the counters alone, so it is deterministic,
and the gate's own arithmetic is not charged to the cost model.  The object
is plain data (picklable); a test scripts another schedule by overriding
:meth:`open_at`.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["DetectionGate"]


class DetectionGate:
    """Decides, epoch by epoch, whether one consumer port keeps detecting MNSs."""

    def __init__(self) -> None:
        #: Units spent on detection and its consequences, since the start.
        self.spent_units = 0.0
        #: Units the port's suspensions saved upstream, since the start.
        self.avoided_units = 0.0
        #: True while detection is switched off.
        self.resting = False
        self._epoch_end: Optional[float] = None
        self._spent_mark = 0.0
        self._avoided_mark = 0.0
        #: Length of the last rest in windows; 0 once a trial has paid.
        self._rest_windows = 0

    def spend(self, units: float) -> None:
        """Book ``units`` of detection cost."""
        self.spent_units += units

    def avoid(self, units: float) -> None:
        """Book ``units`` of work a suspension from this port saved."""
        self.avoided_units += units

    def open_at(self, now: float, window: float) -> bool:
        """Whether the port detects for an arrival at stream time ``now``.

        The first call starts the first epoch; a call at or past the end of
        the current epoch closes it and starts the next one at ``now``.
        """
        if self._epoch_end is None:
            self._epoch_end = now + window
        elif now >= self._epoch_end:
            self._epoch_end = now + window * self._next_epoch_windows()
            self._spent_mark = self.spent_units
            self._avoided_mark = self.avoided_units
        return not self.resting

    def _next_epoch_windows(self) -> int:
        """Close the current epoch; return the length of the next in windows.

        An open epoch that lost, ``avoided < spent``, starts a rest of
        ``max(doubled, floor(spent / avoided))`` windows: a loss by a factor
        k turns into a win only if what suspensions save grows k-fold, so
        the gate waits k windows for that.  With ``avoided == 0`` there is
        no factor to scale by and the rest is the doubled one alone.
        """
        if self.resting:
            self.resting = False  # the trial epoch
            return 1
        spent = self.spent_units - self._spent_mark
        avoided = self.avoided_units - self._avoided_mark
        if avoided < spent:
            self._rest_windows = 2 * self._rest_windows or 1
            if avoided > 0:
                self._rest_windows = max(self._rest_windows, int(spent / avoided))
            self.resting = True
            return self._rest_windows
        self._rest_windows = 0
        return 1

    def __repr__(self) -> str:
        state = "resting" if self.resting else "open"
        return (
            f"DetectionGate({state}, spent={self.spent_units:.1f}, "
            f"avoided={self.avoided_units:.1f})"
        )
