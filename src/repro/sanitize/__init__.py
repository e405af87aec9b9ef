"""Runtime concurrency sanitizer for the control plane.

Two pieces:

- :mod:`repro.sanitize.locks` — :class:`TrackedLock`/:class:`TrackedRLock`
  (drop-in ``threading.Lock``/``RLock``) that record per-thread lock
  acquisition order into a global lock-order graph, plus the
  :func:`make_lock` factory the control plane creates its shared-state
  locks through.  Enabled via ``REPRO_SANITIZE=1`` (or :func:`enable`
  in tests); free when off.
- :mod:`repro.sanitize.report` — the structured
  :class:`SanitizerReport`: lock-order inversions (potential deadlock
  cycles), blocking calls under a lock, and hold-time outliers.

The static counterpart — AST rules catching the same bug classes in
the source — is the tier-1 test module ``tests/test_code_rules.py``
(``CC001``–``CC007``); the ``repro check`` CLI runs the sanitizer smoke.
"""

from repro.sanitize.locks import (
    DEFAULT_HOLD_BUDGET_S,
    SanitizerState,
    TrackedLock,
    TrackedRLock,
    disable,
    enable,
    enabled,
    make_lock,
    make_rlock,
    note_blocking,
    restore,
    state,
    tracked_sleep,
)
from repro.sanitize.report import LockOrderCycle, SanitizerIssue, SanitizerReport

__all__ = [
    "DEFAULT_HOLD_BUDGET_S",
    "LockOrderCycle",
    "SanitizerIssue",
    "SanitizerReport",
    "SanitizerState",
    "TrackedLock",
    "TrackedRLock",
    "disable",
    "enable",
    "enabled",
    "make_lock",
    "make_rlock",
    "note_blocking",
    "restore",
    "state",
    "tracked_sleep",
]
