"""NETCONF server: datastores + RPC dispatch.

The server owns a *running* and a *candidate* datastore (arbitrary
JSON-compatible configs — in practice virtualizers) over one config
tree.  A patch is staged on running's tree in place, which logs what
each entry replaced: the candidate is running plus the staged edit,
running still reads as it was, ``commit`` keeps the edit (it is not
applied a second time) and ``discard-changes`` rolls the log back in
O(edit).  A replace, merge or delete gives the candidate a tree of its
own, which running shares from the commit on.  Domain orchestrators
subclass or register apply-callbacks: a successful ``commit`` hands the
committed change to the callback — the edit script when the candidate
was a patch of running, the new running config otherwise — which
reconfigures the domain.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Callable, Optional

from repro.netconf.messages import (
    BASE_CAPABILITIES,
    Hello,
    Notification,
    RpcError,
    RpcReply,
    RpcRequest,
)
from repro.openflow.channel import ControlChannel
from repro.virtualizer.model import virtualizer_schema
from repro.yang.data import DataNode, ValidationError, data_from_dict
from repro.yang.diff import DiffEntry, apply_patch, redo_patch, undo_patch

_SESSION_ID = itertools.count(1)

ApplyCallback = Callable[[Any], None]
RpcHandler = Callable[[dict], Any]


class Datastore:
    """One named configuration datastore.

    The content is any JSON value.  A Unify config (``{"virtualizer":
    ...}``) is held as its yang tree, which carries its digest.  Stores
    share trees instead of copying them: :meth:`take` shares another
    store's content, and :meth:`stage` makes a store another one plus
    an edit script, applied in place to the tree the two then share.
    The other store — the *base* — logs what each entry replaced
    (:func:`~repro.yang.diff.apply_patch`'s undo log), so it still reads
    as it was; it takes the edit by :meth:`take`, which drops the log,
    or rolls it back in O(edit).  The JSON form of a store is kept from
    the last :meth:`set` and otherwise rebuilt on demand.
    """

    def __init__(self, name: str, config: Any = None):
        self.name = name
        #: what the edit another store staged on :attr:`tree` replaced
        #: (empty: none is staged)
        self._undo: list[list] = []
        self.set(config)

    def set(self, config: Any) -> None:
        """Replace the content with ``config``, which the store keeps
        (callers hand over a private value)."""
        self._json = config
        #: shared with the stores that took this one, and with an edit
        #: staged on it: :meth:`read_tree` is this store's content
        self.tree: Optional[DataNode] = None
        #: of :attr:`tree` (as it was while another store has an edit
        #: staged on it); None without one, or when a failed apply left
        #: the content in doubt — no edit script matches then
        self.digest: Optional[int] = None
        if isinstance(config, dict) and set(config) == {"virtualizer"}:
            try:
                self.tree = data_from_dict(virtualizer_schema(),
                                           config["virtualizer"])
            except (AttributeError, TypeError, ValueError):
                return  # not a virtualizer after all: stays plain
            self.digest = self.tree.digest()

    @property
    def config(self) -> Any:
        """The content in JSON form (shared: not to be mutated)."""
        if self._json is None and self.tree is not None:
            self._json = {"virtualizer": self.read_tree().to_dict()}
        return self._json

    def read_tree(self) -> Optional[DataNode]:
        """The content as a tree: :attr:`tree` or, while another store
        has an edit staged on it, a copy with that edit rolled back —
        O(config), on reads that no push makes."""
        if not self._undo:
            return self.tree
        undo_patch(self._undo)
        try:
            return self.tree.copy()
        finally:
            redo_patch(self._undo)

    def snapshot(self) -> Any:
        return copy.deepcopy(self.config)

    def take(self, other: "Datastore") -> None:
        """Share ``other``'s content; an edit staged on this store's
        tree stays made (its log is dropped)."""
        self._json, self.tree, self.digest = other._json, other.tree, other.digest
        self._undo = []

    def stage(self, base: "Datastore", entries: list[DiffEntry],
              ) -> list[DataNode]:
        """Become ``base`` plus an edit script, applied in place to the
        tree the two then share; ``base`` has nothing staged yet.
        Returns the instances the script created.  A script that does
        not apply is rolled back: this store is ``base`` again."""
        if base.tree is None:
            raise ValidationError(f"{base.name} holds no config tree")
        self.take(base)
        try:
            created = apply_patch(self.tree, entries, undo=base._undo)
        except BaseException:
            base.roll_back()
            raise
        self._json, self.digest = None, self.tree.digest()
        return created

    def roll_back(self) -> None:
        """Take back the edit staged on this store's tree, in O(edit)."""
        undo_patch(self._undo)
        self._undo = []


class NetconfServer:
    """Server side of one NETCONF session."""

    def __init__(self, name: str, *, capabilities: Optional[list[str]] = None,
                 initial_config: Any = None):
        self.name = name
        self.capabilities = list(capabilities or []) + BASE_CAPABILITIES
        self.running = Datastore("running", initial_config)
        self.candidate = Datastore("candidate")
        self.candidate.take(self.running)
        #: the edit script that made the candidate out of running, staged
        #: on running's tree (and the instances it created); None once
        #: the candidate was edited any other way
        self._pending: Optional[list[DiffEntry]] = []
        self._created: list[DataNode] = []
        self.session_id = 0
        self.channel: Optional[ControlChannel] = None
        self._apply_callbacks: list[ApplyCallback] = []
        self._custom_rpcs: dict[str, RpcHandler] = {}
        self._locked_by: Optional[int] = None
        self.rpcs_handled = 0

    # -- wiring -------------------------------------------------------------

    def bind(self, channel: ControlChannel) -> None:
        """Attach as endpoint "b" (the managed device side)."""
        self.channel = channel
        channel.bind_b(self._on_message)

    def on_apply(self, callback: ApplyCallback) -> None:
        """Called after each commit (an edit of running is one) with the
        change: the list of :class:`DiffEntry` when running was patched,
        else the new running config."""
        self._apply_callbacks.append(callback)

    def register_rpc(self, op: str, handler: RpcHandler) -> None:
        """Add a device-specific RPC (e.g. ``start-vnf``)."""
        self._custom_rpcs[op] = handler

    def notify(self, event: str, data: dict[str, Any]) -> None:
        if self.channel is not None:
            self.channel.send_to_a(Notification(event=event, data=data))

    # -- dispatch ---------------------------------------------------------------

    def _on_message(self, message: Any) -> None:
        if isinstance(message, Hello):
            self.session_id = next(_SESSION_ID)
            assert self.channel is not None
            self.channel.send_to_a(Hello(session_id=self.session_id,
                                         capabilities=self.capabilities))
            return
        if not isinstance(message, RpcRequest):
            return
        self.rpcs_handled += 1
        try:
            data = self._dispatch(message)
            reply = RpcReply(message_id=message.message_id, ok=True, data=data)
        except NetconfServerError as exc:
            reply = RpcReply(message_id=message.message_id, ok=False,
                             error=RpcError(tag=exc.tag, message=str(exc)))
        except Exception as exc:  # noqa: BLE001 - fault isolation at RPC boundary
            reply = RpcReply(message_id=message.message_id, ok=False,
                             error=RpcError(tag="operation-failed",
                                            message=f"{type(exc).__name__}: {exc}"))
        assert self.channel is not None
        self.channel.send_to_a(reply)

    def _dispatch(self, request: RpcRequest) -> Any:
        op = request.op
        params = request.params
        if op == "get-config":
            return self._store(params.get("source", "running")).snapshot()
        if op == "get":
            return {"config": self.running.snapshot(),
                    "state": self.state_data()}
        if op == "edit-config":
            return self._edit_config(params)
        if op == "commit":
            return self._commit()
        if op == "discard-changes":
            self._discard()
            return {"ok": True}
        if op == "validate":
            problems = self._problems(
                self._store(params.get("source", "candidate")))
            if problems:
                raise NetconfServerError("invalid-value", "; ".join(problems))
            return {"ok": True}
        if op == "lock":
            if self._locked_by is not None:
                raise NetconfServerError("lock-denied", "datastore locked")
            self._locked_by = self.session_id
            return {"ok": True}
        if op == "unlock":
            self._locked_by = None
            return {"ok": True}
        if op == "close-session":
            self._locked_by = None
            return {"ok": True}
        if op in self._custom_rpcs:
            return self._custom_rpcs[op](params)
        raise NetconfServerError("operation-not-supported",
                                 f"unknown rpc {op!r}")

    # -- datastore operations ------------------------------------------------------

    def _store(self, name: str) -> Datastore:
        if name == "running":
            return self.running
        if name == "candidate":
            return self.candidate
        raise NetconfServerError("invalid-value", f"unknown datastore {name!r}")

    def _edit_config(self, params: dict) -> Any:
        """Edit the candidate.  An edit of running is the same edit of a
        candidate fresh from running, committed (test-then-set): one the
        validator refuses leaves running, its digest and the domain as
        they were."""
        if self._store(params.get("target", "candidate")) is self.candidate:
            self._edit_candidate(params)
            return {"ok": True}
        self._discard()
        try:
            self._edit_candidate(params)
            return self._commit()
        except NetconfServerError:
            self._discard()
            raise

    def _edit_candidate(self, params: dict) -> None:
        operation = params.get("operation", "merge")
        config = params.get("config")
        if operation == "patch":
            self._pending = self._patch(config)
            return
        if operation == "replace":
            config = copy.deepcopy(config)
        elif operation == "merge":
            config = _merge(self.candidate.config, config)
        elif operation == "delete":
            config = None
        else:
            raise NetconfServerError("bad-attribute",
                                     f"unknown operation {operation!r}")
        self._discard()
        self.candidate.set(config)
        self._pending = None

    def _discard(self) -> None:
        """Make the candidate running again: roll back what was staged
        on running's tree, in O(edit)."""
        self.running.roll_back()
        self.candidate.take(self.running)
        self._pending = []

    def _patch(self, patch: Any) -> list[DiffEntry]:
        """Stage a delta edit script on top of the *running* config.

        The patch carries the digest of the base the client diffed
        against; if it no longer matches our running config (restart,
        missed commit, another writer) we refuse with the non-retryable
        ``delta-mismatch`` tag so the client falls back to a full push
        instead of installing a patch against the wrong base.
        """
        if not isinstance(patch, dict) or "entries" not in patch:
            raise NetconfServerError("bad-element",
                                     "patch config needs 'entries'")
        digest = self.running.digest
        if digest is None:
            raise NetconfServerError("delta-mismatch",
                                     "no running config to patch")
        if f"{digest:016x}" != patch.get("base_digest"):
            raise NetconfServerError(
                "delta-mismatch",
                f"patch base {patch.get('base_digest')!r} != running "
                f"{digest:016x}")
        entries = [DiffEntry.from_dict(entry) for entry in patch["entries"]]
        self._discard()  # drop whatever was staged
        try:
            self._created = self.candidate.stage(self.running, entries)
        except ValueError as exc:  # ValidationError, or a leaf's SchemaError
            raise NetconfServerError("delta-mismatch",
                                     f"patch does not apply: {exc}") from exc
        return entries

    def _problems(self, store: Datastore) -> list[str]:
        if store is self.candidate and self._pending:
            return self.validate_patch(self._pending)
        return self.validate_config(store.config)

    def _commit(self) -> Any:
        problems = self._problems(self.candidate)
        if problems:
            raise NetconfServerError("invalid-value",
                                     "validation failed: " + "; ".join(problems))
        entries, self._pending = self._pending or None, []
        self.running.take(self.candidate)  # a staged edit stays made
        self._apply(entries)
        return {"ok": True}

    def _apply(self, entries: Optional[list[DiffEntry]]) -> None:
        """Hand the committed change to the callbacks.  One that raises
        leaves the domain in doubt, so the digest is unset: every later
        patch is refused until a replace resyncs the domain in full."""
        change = entries if entries else self.running.snapshot()
        try:
            for callback in self._apply_callbacks:
                callback(change)
        except BaseException:
            self.running.digest = None
            raise

    # -- extension points -----------------------------------------------------------

    def validate_config(self, config: Any) -> list[str]:
        """Override for model-aware validation; [] means valid."""
        return []

    def validate_patch(self, entries: list[DiffEntry]) -> list[str]:
        """Validate the candidate given the edit script that made it out
        of running (already applied to ``candidate.tree``).  Override to
        check only what the entries name; the default validates the
        whole candidate."""
        return self.validate_config(self.candidate.config)

    def state_data(self) -> dict[str, Any]:
        """Override to expose operational state in <get>."""
        return {}


class NetconfServerError(RuntimeError):
    def __init__(self, tag: str, message: str):
        super().__init__(message)
        self.tag = tag


def _merge(base: Any, overlay: Any) -> Any:
    if isinstance(base, dict) and isinstance(overlay, dict):
        merged = dict(base)
        for key, value in overlay.items():
            if key in merged:
                merged[key] = _merge(merged[key], value)
            else:
                merged[key] = copy.deepcopy(value)
        return merged
    return copy.deepcopy(overlay)
