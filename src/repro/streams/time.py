"""Timestamps, sliding windows and the simulated clock.

The paper (Section II) adopts sliding-window semantics: every tuple ``t``
carries a timestamp ``t.ts`` and is *alive* during ``[t.ts, t.ts + w)`` where
``w`` is the window length.  :class:`Window` is the one owner of that rule:
every join, purge and suspension asks it one of three questions about a
stamped thing (a tuple, an MNS signature):

* may these two join? -- :meth:`Window.joins`, the *span rule*
  ``max(a.ts, b.ts) - min(a.oldest, b.oldest) <= w``: a result is live while
  all of its atomic components fit in one window, so it is valid from its
  newest stamp to its oldest stamp plus ``w``;
* below which stamp does a state entry expire? -- :meth:`Window.purge_horizon`,
  ``now - w``;
* is suspended work still retained? -- :meth:`Window.retains`,
  ``ts + retention > now``.

A composite tuple carries its newest component's stamp as ``ts`` and its
oldest as ``oldest`` (an atomic tuple's are both its arrival stamp).  Expiry
is still keyed by ``ts``, so a partial stays in its state at least as long
as it can join (``ts + w >= oldest + w``), longer than it needs to;
ROADMAP.md, item 3, keys it by ``oldest``.  Keep each body's float
arithmetic: at ``(ts, w, now) = (0.6, 0.1, 0.7)`` ``ts + w <= now`` holds but
``ts < now - w`` does not.

All timestamps are plain floats measured in **seconds of application time**.
The execution engine advances a :class:`SimulationClock` to the timestamp of
each arriving tuple; nothing in the library reads the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

__all__ = ["Timestamp", "Window", "SimulationClock", "seconds", "minutes"]

#: Alias documenting that timestamps are floats in seconds of application time.
Timestamp = float


class Stamped(Protocol):
    """Anything :class:`Window` can judge: it carries a timestamp ``ts``."""

    ts: float


class Spanned(Stamped, Protocol):
    """A tuple: its newest component's stamp ``ts`` and its oldest's ``oldest``."""

    oldest: float


def seconds(value: float) -> float:
    """Return ``value`` expressed in seconds (identity, for readability)."""
    return float(value)


def minutes(value: float) -> float:
    """Convert ``value`` minutes of application time to seconds."""
    return float(value) * 60.0


@dataclass(frozen=True)
class Window:
    """A sliding window of fixed length in seconds.

    The paper assumes a single global window ``w`` shared by all sources
    (Section II); per-source windows are supported by giving operators
    different :class:`Window` instances, but the evaluation only uses the
    global form.

    Parameters
    ----------
    length:
        Window length in seconds.  Must be positive.
    """

    length: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"window length must be positive, got {self.length}")

    def joins(self, a: Spanned, b: Spanned) -> bool:
        """May ``a`` and ``b`` join?  Their components span at most ``w``:
        ``max(a.ts, b.ts) - min(a.oldest, b.oldest) <= w``, inclusive.

        Spelled with conditionals, not the builtins: every probe step asks
        it, and the two calls would cost more than the rest of the body.
        """
        newest, oldest = a.ts, a.oldest
        if b.ts > newest:
            newest = b.ts
        if b.oldest < oldest:
            oldest = b.oldest
        return newest - oldest <= self.length

    def purge_horizon(self, now: float) -> float:
        """The stamp below which a state entry has expired at ``now``; a
        purge removes the entries strictly below it."""
        return now - self.length

    def retains(self, stamped: Stamped, now: float, retention: float) -> bool:
        """Is suspended ``stamped`` still inside ``retention`` seconds at ``now``?"""
        return stamped.ts + retention > now


@dataclass
class SimulationClock:
    """Monotonically advancing application-time clock.

    The engine sets the clock to each arrival's timestamp before the tuple is
    processed, so operators can ask "what time is it?" without threading the
    timestamp through every call.  The clock refuses to move backwards, which
    guards against out-of-order event delivery bugs in the engine.
    """

    now: float = 0.0
    _started: bool = field(default=False, repr=False)

    def advance_to(self, ts: float) -> float:
        """Advance the clock to ``ts`` and return the new time.

        Raises
        ------
        ValueError
            If ``ts`` is earlier than the current time (streams are processed
            in temporal order).
        """
        if self._started and ts < self.now:
            raise ValueError(
                f"clock cannot move backwards: now={self.now}, requested={ts}"
            )
        self.now = ts
        self._started = True
        return self.now

    def reset(self, ts: float = 0.0) -> None:
        """Reset the clock to ``ts`` (used between experiment runs)."""
        self.now = ts
        self._started = False
