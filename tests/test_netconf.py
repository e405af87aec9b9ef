"""Tests for the NETCONF-like management protocol."""

import json

import pytest

from repro.netconf import NetconfClient, NetconfError, NetconfServer
from repro.netconf.client import NOTIFICATION_RING
from repro.netconf.messages import UNIFY_CAPABILITY
from repro.openflow.channel import ControlChannel


@pytest.fixture
def session():
    channel = ControlChannel("mgmt")
    server = NetconfServer("device", capabilities=[UNIFY_CAPABILITY],
                           initial_config={"a": 1})
    server.bind(channel)
    client = NetconfClient("manager", channel)
    client.hello()
    return client, server, channel


class TestSession:
    def test_hello_exchanges_capabilities(self, session):
        client, server, _ = session
        assert client.session_id == server.session_id
        assert client.has_capability(UNIFY_CAPABILITY)
        assert any("base:1.1" in cap for cap in client.server_capabilities)

    def test_close_session(self, session):
        client, _, _ = session
        client.close()


class TestDatastores:
    def test_get_config_running(self, session):
        client, _, _ = session
        assert client.get_config() == {"a": 1}

    def test_candidate_starts_as_running_copy(self, session):
        client, _, _ = session
        assert client.get_config("candidate") == {"a": 1}

    def test_edit_candidate_leaves_running(self, session):
        client, _, _ = session
        client.edit_config({"b": 2})
        assert client.get_config("candidate") == {"a": 1, "b": 2}
        assert client.get_config("running") == {"a": 1}

    def test_commit_promotes_candidate(self, session):
        client, _, _ = session
        client.edit_config({"b": 2})
        client.commit()
        assert client.get_config("running") == {"a": 1, "b": 2}

    def test_merge_is_deep(self, session):
        client, _, _ = session
        client.edit_config({"tree": {"x": 1}})
        client.edit_config({"tree": {"y": 2}})
        assert client.get_config("candidate")["tree"] == {"x": 1, "y": 2}

    def test_replace_operation(self, session):
        client, _, _ = session
        client.edit_config({"only": True}, operation="replace")
        assert client.get_config("candidate") == {"only": True}

    def test_delete_operation(self, session):
        client, _, _ = session
        client.edit_config(None, operation="delete")
        assert client.get_config("candidate") is None

    def test_discard_changes(self, session):
        client, _, _ = session
        client.edit_config({"b": 2})
        client.discard_changes()
        assert client.get_config("candidate") == {"a": 1}

    def test_unknown_datastore_rejected(self, session):
        client, _, _ = session
        with pytest.raises(NetconfError):
            client.get_config("startup")

    def test_edit_running_applies_immediately(self, session):
        client, server, _ = session
        applied = []
        server.on_apply(applied.append)
        client.edit_config({"x": 9}, target="running")
        assert applied == [{"a": 1, "x": 9}]

    def test_refused_edit_of_running_changes_nothing(self, session):
        # an edit of running is validated as a commit is: test-then-set
        client, server, _ = session
        applied = []
        server.on_apply(applied.append)
        server.validate_config = lambda cfg: (["bad config"]
                                              if cfg and "bad" in cfg else [])
        with pytest.raises(NetconfError) as refused:
            client.edit_config({"bad": True}, target="running")
        assert refused.value.tag == "invalid-value"
        assert applied == []
        assert client.get_config("running") == {"a": 1}
        assert client.get_config("candidate") == {"a": 1}

    def test_refused_patch_of_running_keeps_its_digest(self):
        from repro.virtualizer import Virtualizer
        from repro.yang import diff_trees

        virt = Virtualizer("v")
        virt.add_node("bb0")
        edited = virt.copy()
        edited.add_nf_instance("bb0", "fw", type="firewall")
        server = NetconfServer("device", capabilities=[UNIFY_CAPABILITY],
                               initial_config={"virtualizer": virt.to_dict()})
        channel = ControlChannel("mgmt")
        server.bind(channel)
        client = NetconfClient("manager", channel)
        client.hello()
        applied = []
        server.on_apply(applied.append)
        server.validate_patch = lambda entries: ["no firewalls here"]
        digest = server.running.digest
        with pytest.raises(NetconfError) as refused:
            client.edit_config_delta(
                f"{digest:016x}",
                [entry.to_dict()
                 for entry in diff_trees(virt.tree, edited.tree)],
                target="running")
        assert refused.value.tag == "invalid-value"
        assert applied == [] and server.running.digest == digest
        assert client.get_config("running") == {"virtualizer": virt.to_dict()}


class TestCommitSemantics:
    def test_commit_fires_apply(self, session):
        client, server, _ = session
        applied = []
        server.on_apply(applied.append)
        client.edit_config({"b": 2})
        client.commit()
        assert applied == [{"a": 1, "b": 2}]

    def test_commit_validates(self, session):
        client, server, _ = session
        server.validate_config = lambda cfg: (["bad config"]
                                              if cfg and "bad" in cfg else [])
        client.edit_config({"bad": True})
        with pytest.raises(NetconfError):
            client.commit()
        # running unchanged after failed commit
        assert client.get_config("running") == {"a": 1}

    def test_validate_rpc(self, session):
        client, server, _ = session
        assert client.validate("candidate") == {"ok": True}
        server.validate_config = lambda cfg: ["nope"]
        with pytest.raises(NetconfError) as err:
            client.validate("candidate")
        assert err.value.tag == "invalid-value"


class TestLocking:
    def test_lock_unlock(self, session):
        client, _, _ = session
        client.lock()
        with pytest.raises(NetconfError) as err:
            client.lock()
        assert err.value.tag == "lock-denied"
        client.unlock()
        client.lock()


class TestErrorsAndExtensions:
    def test_unknown_rpc(self, session):
        client, _, _ = session
        with pytest.raises(NetconfError) as err:
            client.rpc("mystery-op")
        assert err.value.tag == "operation-not-supported"

    def test_custom_rpc(self, session):
        client, server, _ = session
        server.register_rpc("ping", lambda params: {"pong": params["n"]})
        assert client.rpc("ping", n=5) == {"pong": 5}

    def test_rpc_exception_becomes_error(self, session):
        client, server, _ = session
        server.register_rpc("boom", lambda params: 1 / 0)
        with pytest.raises(NetconfError) as err:
            client.rpc("boom")
        assert "ZeroDivisionError" in str(err.value)

    def test_get_includes_state(self, session):
        client, server, _ = session
        server.state_data = lambda: {"uptime": 3}
        data = client.get()
        assert data["state"] == {"uptime": 3}
        assert data["config"] == {"a": 1}

    def test_notifications(self, session):
        client, server, _ = session
        events = []
        client.on_notification = events.append
        server.notify("alarm", {"severity": "minor"})
        assert client.notifications[0].event == "alarm"
        assert events[0].data == {"severity": "minor"}

    def test_notification_ring_keeps_the_newest(self, session):
        client, server, _ = session
        seen = []
        client.on_notification = seen.append
        total = NOTIFICATION_RING + 10
        for index in range(total):
            server.notify("alarm", {"index": index})
        # the handler sees every notification, once
        assert [n.data["index"] for n in seen] == list(range(total))
        # the client keeps exactly the newest ring's worth
        assert [n.data["index"] for n in client.notifications] == \
            list(range(10, total))

    def test_channel_counts_bytes(self, session):
        client, _, channel = session
        before = channel.stats.bytes
        client.get_config()
        assert channel.stats.bytes > before
        assert channel.stats.messages_to_b >= 2


# -- virtualizers: patched in place, guarded by the digest ----------------------


def _tree(config):
    from repro.virtualizer import Virtualizer
    return Virtualizer.from_dict(config["virtualizer"]).tree


def _install_config(flowrules):
    """A one-switch virtualizer with ``flowrules`` (hop ids) on p1."""
    from repro.nffg import NFFG
    from repro.virtualizer import nffg_to_virtualizer
    nffg = NFFG(id="install")
    infra = nffg.add_infra("bb")
    port = infra.add_port("p1")
    infra.add_port("p2")
    for hop_id in flowrules:
        port.add_flowrule(f"in_port=p1;flowclass=tp_dst={hop_id[1:]}",
                          "output=p2", hop_id=hop_id)
    return {"virtualizer": nffg_to_virtualizer(nffg).to_dict()}


def _patch_between(old, new):
    from repro.yang import diff_trees
    old_tree = _tree(old)
    entries = diff_trees(old_tree, _tree(new))
    return f"{old_tree.digest():016x}", [e.to_dict() for e in entries]


@pytest.fixture
def install_session(session):
    client, server, _ = session
    base = _install_config(["h1"])
    client.edit_config(base, operation="replace")
    client.commit()
    return client, server, base


class TestInstallConfigPatches:
    def test_patch_commits_in_place_and_moves_the_digest(self, install_session):
        client, server, base = install_session
        applied = []
        server.on_apply(applied.append)
        tree = server.running.tree
        new = _install_config(["h1", "h2"])
        client.edit_config_delta(*_patch_between(base, new))
        client.commit()
        assert server.running.tree is tree  # patched, not rebuilt
        assert server.running.digest == _tree(new).digest()
        assert client.get_config() == client.get_config("candidate")
        # the callback got the edit script, not the config
        (entries,) = applied
        assert [e.path for e in entries] == [
            "/virtualizer/nodes/node[bb]/flowtable/flowentry[p1:h2]"]

    def test_patch_on_a_drifted_base_is_refused(self, install_session):
        client, server, base = install_session
        new = _install_config(["h1", "h2"])
        digest, entries = _patch_between(base, new)
        # another writer got there first
        client.edit_config(_install_config(["h9"]), operation="replace")
        client.commit()
        running = client.get_config()
        with pytest.raises(NetconfError) as err:
            client.edit_config_delta(digest, entries)
        assert err.value.tag == "delta-mismatch"
        assert client.get_config() == running
        # and a patch that names the right base but does not apply
        digest, _ = _patch_between(_install_config(["h9"]), new)
        with pytest.raises(NetconfError) as err:
            client.edit_config_delta(digest, [
                {"op": "delete", "value": None,
                 "path": "/virtualizer/nodes/node[bb]/flowtable"
                         "/flowentry[p1:h1]"}])
        assert err.value.tag == "delta-mismatch"
        assert client.get_config() == running

    def test_discard_after_a_patch_leaves_running_and_domain(self, install_session):
        client, server, base = install_session
        applied = []
        server.on_apply(applied.append)
        running, digest = client.get_config(), server.running.digest
        client.edit_config_delta(
            *_patch_between(base, _install_config(["h1", "h2"])))
        assert client.get_config("candidate") != running
        client.discard_changes()
        assert client.get_config("candidate") == running
        assert client.get_config() == running
        assert server.running.digest == digest
        client.commit()  # nothing staged: nothing new reaches the domain
        assert [e for e in applied if isinstance(e, list)] == []
        assert client.get_config() == running

    def test_failed_apply_unsets_the_digest(self, install_session):
        """The domain is in doubt after a callback raised: no patch base
        matches until a full replace resyncs it."""
        client, server, base = install_session
        new = _install_config(["h1", "h2"])

        def explode(change):
            raise RuntimeError("switch on fire")

        server.on_apply(explode)
        client.edit_config_delta(*_patch_between(base, new))
        with pytest.raises(NetconfError) as err:
            client.commit()
        assert "switch on fire" in str(err.value)
        server._apply_callbacks.remove(explode)
        for config in (base, new):
            with pytest.raises(NetconfError) as err:
                client.edit_config_delta(
                    *_patch_between(config, _install_config(["h3"])))
            assert err.value.tag == "delta-mismatch"
        client.edit_config(new, operation="replace")
        client.commit()
        client.edit_config_delta(
            *_patch_between(new, _install_config(["h3"])))
        client.commit()

    # -- one tree: a patch is staged on running's tree, which still
    # reads as it was -------------------------------------------------------

    @staticmethod
    def _commit_patch(client, old, new):
        """Commit a patch from ``old`` to ``new``: running's JSON form is
        then rebuilt from its tree, not kept from a replace."""
        client.edit_config_delta(*_patch_between(old, new))
        client.commit()

    def test_running_reads_as_it_was_while_a_patch_is_staged(
            self, install_session):
        client, server, base = install_session
        # as a domain's: a patch is validated by what its entries name,
        # so nothing builds the JSON form of the candidate (or running)
        server.validate_patch = lambda entries: [
            entry.path for entry in entries if "h3" in entry.path]
        server.validate_config = lambda cfg: (
            ["h3 is staged"] if "p1:h3" in json.dumps(cfg) else [])
        running = _install_config(["h1", "h2"])
        self._commit_patch(client, base, running)
        digest = server.running.digest
        staged = _install_config(["h1", "h2", "h3"])
        client.edit_config_delta(*_patch_between(running, staged))
        assert client.get_config() == running
        assert client.get()["config"] == running
        assert client.validate("running") == {"ok": True}
        with pytest.raises(NetconfError) as refused:
            client.validate("candidate")
        assert refused.value.tag == "invalid-value"
        assert client.get_config("candidate") == staged
        assert server.running.digest == digest
        assert server.candidate.digest == _tree(staged).digest()
        assert server.candidate.tree is server.running.tree  # one tree

    def test_a_patch_failing_part_way_leaves_running(self, install_session):
        client, server, base = install_session
        running = _install_config(["h1", "h2"])
        self._commit_patch(client, base, running)
        digest, entries = _patch_between(running, _install_config(["h2"]))
        # the first entries apply, the last does not
        entries += [{"op": "create", "value": {"id": "p1:h4"},
                     "path": "/virtualizer/nodes/node[bb]/flowtable"
                             "/flowentry[p1:h4]"},
                    {"op": "set", "value": 1,
                     "path": "/virtualizer/nodes/node[bb]/bogus"}]
        with pytest.raises(NetconfError) as err:
            client.edit_config_delta(digest, entries)
        assert err.value.tag == "delta-mismatch"
        assert server.running.digest == server.running.tree.digest()
        assert server.running.digest == _tree(running).digest()
        assert client.get_config() == running
        assert client.get_config("candidate") == running
        new = _install_config(["h2", "h3"])
        self._commit_patch(client, running, new)
        assert client.get_config() == new
        assert server.running.digest == _tree(new).digest()

    def test_a_refused_commit_keeps_the_edit_staged(self, install_session):
        client, server, base = install_session
        running = _install_config(["h1", "h2"])
        self._commit_patch(client, base, running)
        digest = server.running.digest
        applied = []
        server.on_apply(applied.append)
        server.validate_patch = lambda entries: ["refused"]
        staged = _install_config(["h2", "h3"])
        client.edit_config_delta(*_patch_between(running, staged))
        with pytest.raises(NetconfError) as refused:
            client.commit()
        assert refused.value.tag == "invalid-value"
        assert applied == []
        assert server.running.digest == digest
        assert client.get_config() == running
        assert client.get_config("candidate") == staged
        client.discard_changes()
        assert client.get_config("candidate") == running
        assert server.running.tree.digest() == digest
        assert client.get_config() == running and applied == []

    def test_a_replace_after_a_staged_patch_leaves_running(
            self, install_session):
        client, server, base = install_session
        running = _install_config(["h1", "h2"])
        self._commit_patch(client, base, running)
        digest = server.running.digest
        client.edit_config_delta(
            *_patch_between(running, _install_config(["h1", "h2", "h3"])))
        replaced = _install_config(["h7"])
        client.edit_config(replaced, operation="replace")
        assert client.get_config() == running
        assert server.running.digest == digest
        assert server.running.tree.digest() == digest
        client.commit()
        assert client.get_config() == replaced
        assert server.running.digest == _tree(replaced).digest()

    def test_a_commit_leaves_one_tree(self, install_session):
        client, server, base = install_session
        assert server.candidate.tree is server.running.tree  # a replace
        new = _install_config(["h1", "h2"])
        client.edit_config_delta(*_patch_between(base, new))
        client.commit()
        assert server.candidate.tree is server.running.tree
        assert server.candidate.digest == server.running.digest
