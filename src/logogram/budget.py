"""Work budgets for the potentially exponential searches.

Every potentially exponential operation takes a budget: a maximum count of
charged steps and a maximum of wall-clock seconds. The reduced-logogram
search charges one step per distinct sub-problem it solves; the
internal-independence check takes its string cap from the same count.
A running meter stands wherever a budget is taken: each step of a run then
counts on its own, against the one clock of the run. Exceeding a limit
raises :class:`BudgetExceededError` carrying whatever partial state the
search had reached. Steps read the clock only through :meth:`Meter.check`,
so every time-out names the meter's label and how far the step got, and a
count overrun reads ``<label>: exceeded N sub-problems``. Results are never
silently truncated: the one limit reported rather than raised is the
internal-independence string cap, as ``budget_exhausted``.
A budget's limits are the built-in defaults unless its caller passes others,
as the CLI does from ``--budget-strings`` and ``--budget-seconds``; nothing
is read from the environment. Loops of cheap steps read the clock once
every ``CLOCK_STRIDE`` steps.
"""

from __future__ import annotations

import time
from typing import Callable

from .values import Value

DEFAULT_MAX_STRINGS = 5_000_000
DEFAULT_MAX_SECONDS = 300.0

CLOCK_STRIDE = 256  # steps between clock reads, wherever a step loop reads it


class BudgetExceededError(RuntimeError):
    """A search ran out of budget. ``partial`` holds the frontier reached."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class Budget(Value):
    """Limits of one operation: charged steps and wall-clock seconds.

    Budgets are immutable values, equal when both limits are.
    """

    _fields = ("max_strings", "max_seconds")

    def __init__(self, max_strings: int = DEFAULT_MAX_STRINGS,
                 max_seconds: float = DEFAULT_MAX_SECONDS):
        if not (max_strings > 0 and max_seconds > 0):  # also rejects NaN
            raise ValueError("budget limits must be positive")
        super().__init__(max_strings, max_seconds)

    @classmethod
    def default(cls) -> "Budget":
        """The built-in limits, ``DEFAULT_MAX_STRINGS`` and ``DEFAULT_MAX_SECONDS``."""
        return cls()

    def start(self, label: str) -> "Meter":
        return Meter(self, label)


class Meter:
    """Running tally against one budget; raises once a limit is crossed.
    :meth:`start` gives the run's next step its own label and count on this deadline."""

    def __init__(self, budget: Budget, label: str, deadline: float | None = None):
        self.budget = budget
        self.label = label
        self.count = 0
        self._deadline = time.monotonic() + budget.max_seconds if deadline is None else deadline

    def start(self, label: str) -> "Meter":
        return Meter(self.budget, label, self._deadline)

    def charge(self) -> None:
        self.count += 1
        if self.count > self.budget.max_strings:
            raise BudgetExceededError(
                f"{self.label}: exceeded {self.budget.max_strings} sub-problems")
        if self.count % CLOCK_STRIDE == 0:
            self.check(lambda: f"after {self.count} sub-problems")

    def check(self, progress: Callable[[], str]) -> None:
        """Read the clock once; past the deadline, stop the step with an
        error naming the label and ``progress()``, how far the step got,
        which is rendered only then."""
        if time.monotonic() > self._deadline:
            raise BudgetExceededError(f"{self.label}: out of time {progress()}")
