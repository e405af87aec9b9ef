"""One NETCONF server against a reference that keeps two datastores.

The server holds one config tree: a patch is staged on running's tree
in place, with a log of what each entry replaced, so the candidate is
running plus the staged edit; a commit keeps the edit, and a discard, a
patch that fails part-way or a replace / merge / delete of the
candidate rolls the log back.  The reference is the plain semantics the
server promises — a tree per datastore, a patch applied to a copy of
running's, a commit or discard copying one over the other — and a
Hypothesis state machine drives both with valid, non-applying and
stale-base patches, replaces, commits (some refused by the validator),
discards, reads of either store, and a client that crashes between
``edit-config`` and ``commit`` and reconnects.  After every step both
configs and running's digest match the reference's.
"""

import os

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.netconf import NetconfClient, NetconfError, NetconfServer
from repro.netconf.messages import UNIFY_CAPABILITY
from repro.nffg import NFFG
from repro.openflow.channel import ControlChannel
from repro.virtualizer import nffg_to_virtualizer
from repro.yang import DiffEntry, apply_patch, diff_trees

from tests.test_netconf import _tree

SMOKE = bool(os.environ.get("REPRO_CHAOS_SMOKE"))

HOPS = ("h1", "h2", "h3", "h4")
OUTS = ("p2", "p3")

#: a set of flow rules: hop id -> output port
rule_sets = st.dictionaries(st.sampled_from(HOPS), st.sampled_from(OUTS),
                            max_size=len(HOPS))

#: an entry that does not apply, put after a script's last entry
BROKEN = (
    {"op": "delete", "value": None,
     "path": "/virtualizer/nodes/node[bb]/flowtable/flowentry[p1:gone]"},
    {"op": "set", "value": 1, "path": "/virtualizer/nodes/node[bb]/bogus"},
    {"op": "create", "value": {"id": "n1"},
     "path": "/virtualizer/nodes/node[zz]/NF_instances/node[n1]"},
    {"op": "set", "value": "x",
     "path": "/virtualizer/nodes/node[bb]/resources/spare/slot"},
)


def _config(rules: dict[str, str]) -> dict:
    """One switch, its flow rules from p1, as a virtualizer config."""
    nffg = NFFG(id="model")
    infra = nffg.add_infra("bb")
    port = infra.add_port("p1")
    for out in OUTS:
        infra.add_port(out)
    for hop_id, out in sorted(rules.items()):
        port.add_flowrule(f"in_port=p1;flowclass=tp_dst={hop_id[1:]}",
                          f"output={out}", hop_id=hop_id)
    return {"virtualizer": nffg_to_virtualizer(nffg).to_dict()}


class NetconfDatastores(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        initial = _config({"h1": "p2"})
        self.server = NetconfServer("device",
                                    capabilities=[UNIFY_CAPABILITY],
                                    initial_config=initial)
        self.applied: list = []
        self.server.on_apply(self.applied.append)
        self._connect()
        #: the reference: a tree per datastore, and whether the candidate
        #: is a patch of running not committed yet
        self.running = _tree(initial)
        self.candidate = self.running.copy()
        self.staged = False

    def _connect(self) -> None:
        channel = ControlChannel("mgmt")
        self.server.bind(channel)
        self.client = NetconfClient("manager", channel)
        self.client.hello()

    def _script(self, rules) -> list[DiffEntry]:
        return diff_trees(self.running, _tree(_config(rules)))

    def _send(self, entries, base: int) -> None:
        self.client.edit_config_delta(
            f"{base:016x}", [entry.to_dict() for entry in entries])

    def _refused(self, call, tag: str) -> None:
        with pytest.raises(NetconfError) as refused:
            call()
        assert refused.value.tag == tag, refused.value

    # -- edits ---------------------------------------------------------------

    @rule(rules=rule_sets)
    def patch(self, rules):
        entries = self._script(rules)
        self._send(entries, self.running.digest())
        self.candidate = self.running.copy()
        apply_patch(self.candidate, entries)
        # an empty script stages nothing: a commit then hands the
        # callbacks the config
        self.staged = bool(entries)

    @rule(rules=rule_sets, broken=st.sampled_from(BROKEN))
    def patch_that_does_not_apply(self, rules, broken):
        entries = [*self._script(rules), DiffEntry.from_dict(broken)]
        with pytest.raises(ValueError):
            apply_patch(self.running.copy(), entries)
        self._refused(lambda: self._send(entries, self.running.digest()),
                      "delta-mismatch")
        # whatever was staged is dropped, and the script rolled back
        self.candidate, self.staged = self.running.copy(), False

    @rule(rules=rule_sets)
    def patch_on_a_stale_base(self, rules):
        self._refused(lambda: self._send(self._script(rules),
                                         self.running.digest() ^ 1),
                      "delta-mismatch")

    @rule(rules=rule_sets)
    def replace(self, rules):
        config = _config(rules)
        self.client.edit_config(config, operation="replace")
        self.candidate, self.staged = _tree(config), False

    # -- transactions ----------------------------------------------------------

    @rule()
    def commit(self):
        before = len(self.applied)
        self.client.commit()
        (change,) = self.applied[before:]
        if self.staged:
            assert isinstance(change, list) and change  # the edit script
        else:
            assert change == {"virtualizer": self.candidate.to_dict()}
        self.running, self.staged = self.candidate.copy(), False

    @rule()
    def refused_commit(self):
        before = len(self.applied)
        self.server.validate_config = lambda config: ["refused"]
        try:
            self._refused(self.client.commit, "invalid-value")
        finally:
            del self.server.validate_config
        assert len(self.applied) == before  # the domain is untouched

    @rule()
    def discard(self):
        self.client.discard_changes()
        self.candidate, self.staged = self.running.copy(), False

    @rule()
    def client_crashes_and_reconnects(self):
        # whatever the last session staged stays staged on the server
        self._connect()

    # -- reads -------------------------------------------------------------------

    @rule()
    def get_config_running(self):
        assert self.client.get_config("running") == {
            "virtualizer": self.running.to_dict()}

    @rule()
    def get_config_candidate(self):
        assert self.client.get_config("candidate") == {
            "virtualizer": self.candidate.to_dict()}

    # -- after every step ---------------------------------------------------------

    @invariant()
    def stores_match_the_reference(self):
        running, candidate = self.server.running, self.server.candidate
        # the trees, not a JSON form a store kept from an earlier read
        assert running.read_tree().to_dict() == self.running.to_dict()
        assert candidate.read_tree().to_dict() == self.candidate.to_dict()
        assert running.digest == self.running.digest()
        assert candidate.digest == self.candidate.digest()
        if not self.staged:
            assert running.digest == running.tree.digest()


NetconfDatastores.TestCase.settings = settings(
    max_examples=15 if SMOKE else 40, stateful_step_count=20,
    deadline=None)
test_netconf_datastores = NetconfDatastores.TestCase
