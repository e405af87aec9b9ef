"""Write-ahead intent journal for the orchestrator's desired state.

Every lifecycle operation (deploy / update / teardown / heal / state
import) runs inside an :class:`IntentScope`:

1. an ``intent`` record is appended *before* the books are touched,
2. each domain push lands an ``outcome`` record (success/failure,
   bytes, delta-vs-full), and
3. a terminal ``commit`` record carries the export-schema state of
   every service the intent settled (``None`` = removed), or an
   ``abort`` record marks the intent rolled back.

Replaying the journal therefore folds to exactly the committed desired
state: an intent without its commit is, by construction, an operation
the crash interrupted, and recovery treats it as never having happened
(the anti-entropy push sweeps whatever config it half-landed).

Checkpoints bound replay cost: every ``checkpoint_every`` commits the
journal asks its bound ``state_provider`` (the orchestrator's
``export_state``) for a full snapshot, folds it into a single
``checkpoint`` record, and truncates the log — atomically via a temp
file + ``os.replace`` when file-backed.  A bound-method provider is held
weakly, so the journal never keeps its orchestrator alive.

The journal is an in-memory ring by default; pass ``path=`` (or set
``REPRO_JOURNAL``) for a file-backed JSONL log.  Constructing a
journal with a path starts a fresh log (truncating any stale file);
use :meth:`IntentJournal.load` to re-open an existing log for
recovery.  Records carry the ambient trace/span ids when
observability is enabled, so a journal line can be cross-referenced
with the trace that wrote it.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro import obs
from repro.perf import counters
from repro.recovery.crash import OrchestratorCrash
from repro.sanitize import make_lock

#: how many committed intents accumulate before a checkpoint folds them
DEFAULT_CHECKPOINT_EVERY = 32

#: every record kind the journal can hold, in two-phase order
RECORD_KINDS = ("intent", "outcome", "commit", "abort", "checkpoint")


class JournalError(RuntimeError):
    """A malformed journal file or record."""


@dataclass
class ReplayState:
    """The fold of a journal: committed desired state + bookkeeping."""

    #: export-schema state ({"services": {...}, "resilience": {...}})
    state: dict
    #: intents that reached their commit record
    committed: int = 0
    #: intents closed by an explicit abort record
    aborted: int = 0
    #: intents with neither terminal record — interrupted by the crash
    in_flight: list[dict] = field(default_factory=list)
    #: True when the fold started from a checkpoint record
    checkpoint_used: bool = False


def fold_records(records: list[dict]) -> ReplayState:
    """Fold journal records into the committed desired state.

    A ``checkpoint`` resets the base to its embedded snapshot; each
    ``commit`` applies its per-service payload on top (``None`` value
    deletes the service).  Intents without a terminal record are
    returned as ``in_flight`` and contribute nothing to the state —
    that is the atomicity guarantee recovery relies on.
    """
    base: dict = {"services": {}}
    open_intents: dict[int, dict] = {}
    committed = aborted = 0
    checkpoint_used = False
    for record in records:
        kind = record.get("kind")
        payload = record.get("payload") or {}
        if kind == "checkpoint":
            base = json.loads(json.dumps(payload.get("state", {"services": {}})))
            base.setdefault("services", {})
            open_intents.clear()
            checkpoint_used = True
        elif kind == "intent":
            open_intents[record["intent_id"]] = {
                "intent_id": record["intent_id"],
                "op": record.get("op"),
                "service_id": record.get("service_id"),
                "outcomes": {},
            }
        elif kind == "outcome":
            entry = open_intents.get(record.get("intent_id"))
            if entry is not None:
                entry["outcomes"][payload.get("domain", "?")] = {
                    "success": payload.get("success", False),
                    "stage": payload.get("stage", "push"),
                    "error": payload.get("error", ""),
                }
        elif kind == "commit":
            if open_intents.pop(record.get("intent_id"), None) is not None:
                committed += 1
            for service_id, data in (payload.get("services") or {}).items():
                if data is None:
                    base["services"].pop(service_id, None)
                else:
                    base["services"][service_id] = data
            if payload.get("resilience") is not None:
                base["resilience"] = payload["resilience"]
        elif kind == "abort":
            if open_intents.pop(record.get("intent_id"), None) is not None:
                aborted += 1
        else:
            raise JournalError(f"unknown journal record kind: {kind!r}")
    return ReplayState(state=base, committed=committed, aborted=aborted,
                       in_flight=list(open_intents.values()),
                       checkpoint_used=checkpoint_used)


class IntentScope:
    """One two-phase intent: records outcomes, then commits or aborts.

    Used as a context manager; leaving the scope without a terminal
    record writes an ``abort`` (the operation failed some other way),
    *except* when the exception is :class:`OrchestratorCrash` — a
    crashed process writes nothing, which is the point.
    """

    def __init__(self, journal: "IntentJournal", intent_id: int, op: str,
                 service_id: Optional[str]) -> None:
        self.journal = journal
        self.intent_id = intent_id
        self.op = op
        self.service_id = service_id
        self.closed = False

    def outcome(self, domain: str, success: bool, *, stage: str = "push",
                error: str = "") -> None:
        """Record one domain push outcome under this intent."""
        self.journal.append(
            "outcome", intent_id=self.intent_id, op=self.op,
            service_id=self.service_id,
            payload={"domain": domain, "success": success, "stage": stage,
                     "error": error})

    def record_pushes(self, reports, *, stage: str = "push") -> None:
        """Record a batch of :class:`AdapterReport` push outcomes."""
        for report in reports:
            self.outcome(report.domain, bool(report.success), stage=stage,
                         error=report.error or "")

    def commit(self, services: dict[str, Optional[dict]],
               **extra: Any) -> None:
        """Terminal commit: ``services`` maps service id to its
        export-schema record, or ``None`` for a removed service."""
        payload = {"services": services}
        payload.update(extra)
        self.journal.append("commit", intent_id=self.intent_id, op=self.op,
                            service_id=self.service_id, payload=payload)
        self.closed = True
        counters.incr("recovery.intent.committed")
        self.journal._note_commit()

    def abort(self, reason: str = "") -> None:
        """Terminal abort: the operation rolled back; replay skips it."""
        if self.closed:
            return
        self.journal.append("abort", intent_id=self.intent_id, op=self.op,
                            service_id=self.service_id,
                            payload={"reason": reason})
        self.closed = True
        counters.incr("recovery.intent.aborted")

    def __enter__(self) -> "IntentScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self.closed and not isinstance(exc, OrchestratorCrash):
            self.abort(reason=repr(exc) if exc is not None
                       else "scope exited without commit")
        return False


class IntentJournal:
    """Append-only intent log with checkpoint truncation.

    In-memory by default; ``path=`` makes it file-backed (JSONL, one
    record per line, flushed per append).  ``crash_plan`` — when set —
    is consulted *before* every append, so a plan armed at index ``k``
    leaves exactly ``k`` records behind.
    """

    def __init__(self, path: Optional[str | os.PathLike] = None, *,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY) -> None:
        self.path = Path(path) if path else None
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.crash_plan = None
        self.state_provider = None
        self._lock = make_lock("recovery.journal")
        self._records: list[dict] = []  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        self._intent_seq = 0  # guarded-by: _lock
        self._commits_since_checkpoint = 0  # guarded-by: _lock
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")

    @property
    def state_provider(self) -> Optional[Callable[[], dict]]:
        """Bound by the orchestrator to its ``export_state`` so commits
        can trigger checkpoints without the journal knowing about it;
        None once the orchestrator of a bound method is gone."""
        provider = self._state_provider
        if isinstance(provider, weakref.WeakMethod):
            return provider()
        return provider

    @state_provider.setter
    def state_provider(self, provider: Optional[Callable[[], dict]]) -> None:
        self._state_provider = (weakref.WeakMethod(provider)
                                if inspect.ismethod(provider) else provider)

    # ------------------------------------------------------------------
    # appending

    def append(self, kind: str, *, intent_id: Optional[int] = None,
               op: Optional[str] = None, service_id: Optional[str] = None,
               payload: Optional[dict] = None) -> dict:
        """Append one record; the single choke point every write — and
        every injected crash — goes through."""
        if kind not in RECORD_KINDS:
            raise JournalError(f"unknown journal record kind: {kind!r}")
        plan = self.crash_plan
        if plan is not None:
            plan.on_append()  # may raise OrchestratorCrash
        trace_id, span_id = obs.current_ids()
        with self._lock:
            record = {
                "seq": self._seq,
                "ts_ms": time.time() * 1e3,
                "kind": kind,
                "intent_id": intent_id,
                "op": op,
                "service_id": service_id,
                "payload": payload or {},
                "trace_id": trace_id,
                "span_id": span_id,
            }
            self._seq += 1
            self._records.append(record)
            if self._handle is not None:
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
        counters.incr("recovery.journal.appends")
        return record

    def intent(self, op: str, service_id: Optional[str] = None,
               payload: Optional[dict] = None) -> IntentScope:
        """Open a new intent scope, appending its ``intent`` record."""
        with self._lock:
            self._intent_seq += 1
            intent_id = self._intent_seq
        self.append("intent", intent_id=intent_id, op=op,
                    service_id=service_id, payload=payload)
        return IntentScope(self, intent_id, op, service_id)

    # ------------------------------------------------------------------
    # checkpoints

    def _note_commit(self) -> None:
        with self._lock:
            self._commits_since_checkpoint += 1
        self.maybe_checkpoint()

    def maybe_checkpoint(self) -> bool:
        """Checkpoint when enough commits accumulated and a state
        provider is bound and alive; returns True when one was taken."""
        provider = self.state_provider
        if provider is None:
            return False
        with self._lock:
            if self._commits_since_checkpoint < self.checkpoint_every:
                return False
        self.checkpoint(provider())
        return True

    def checkpoint(self, state: dict) -> dict:
        """Fold ``state`` into a single checkpoint record and truncate
        the log (atomically via ``os.replace`` when file-backed)."""
        plan = self.crash_plan
        if plan is not None:
            plan.on_append()
        trace_id, span_id = obs.current_ids()
        with self._lock:
            record = {
                "seq": self._seq,
                "ts_ms": time.time() * 1e3,
                "kind": "checkpoint",
                "intent_id": None,
                "op": None,
                "service_id": None,
                "payload": {"state": state},
                "trace_id": trace_id,
                "span_id": span_id,
            }
            self._seq += 1
            dropped = len(self._records)
            self._records = [record]
            self._commits_since_checkpoint = 0
            if self.path is not None:
                if self._handle is not None:
                    self._handle.close()
                temp = self.path.with_suffix(self.path.suffix + ".tmp")
                with open(temp, "w", encoding="utf-8") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, self.path)
                self._handle = open(self.path, "a", encoding="utf-8")
        counters.incr("recovery.journal.checkpoints")
        counters.incr("recovery.journal.truncated", dropped)
        obs.event("journal.checkpoint", dropped=dropped)
        return record

    # ------------------------------------------------------------------
    # reading

    def records(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    @property
    def total_appends(self) -> int:
        """Appends ever made, including records a checkpoint dropped."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records())

    def replay(self) -> ReplayState:
        """Fold the current records into committed desired state."""
        return fold_records(self.records())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------
    # loading an existing log

    @classmethod
    def load(cls, path: str | os.PathLike,
             *, checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
             ) -> "IntentJournal":
        """Re-open an existing JSONL journal for recovery: records are
        read back, sequence/intent counters resume where the crashed
        writer stopped, and further appends continue the same file."""
        source = Path(path)
        records: list[dict] = []
        with open(source, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise JournalError(
                        f"{source}:{lineno}: malformed journal line "
                        f"({exc})") from exc
                if record.get("kind") not in RECORD_KINDS:
                    raise JournalError(
                        f"{source}:{lineno}: unknown record kind "
                        f"{record.get('kind')!r}")
                records.append(record)
        journal = cls.__new__(cls)
        journal.path = source
        journal.checkpoint_every = max(1, int(checkpoint_every))
        journal.crash_plan = None
        journal.state_provider = None
        journal._lock = make_lock("recovery.journal")
        journal._records = records
        journal._seq = max((r.get("seq", -1) for r in records), default=-1) + 1
        journal._intent_seq = max(
            (r["intent_id"] for r in records
             if r.get("intent_id") is not None), default=0)
        commits = 0
        for record in records:
            if record["kind"] == "checkpoint":
                commits = 0
            elif record["kind"] == "commit":
                commits += 1
        journal._commits_since_checkpoint = commits
        journal._handle = open(source, "a", encoding="utf-8")
        counters.incr("recovery.journal.loaded")
        return journal
