"""Change script parsing, serialization, and CLI plumbing."""

import pytest

from repro.config.acl import AclAction
from repro.core.change import (
    AddAclRule,
    AddStaticRoute,
    AnnouncePrefix,
    BindAcl,
    Change,
    EnableOspfInterface,
    LinkDown,
    LinkUp,
    SetLocalPref,
    SetOspfCost,
    ShutdownInterface,
)
from repro.core.change_text import (
    ChangeParseError,
    parse_change,
    serialize_change,
)
from repro.net.addr import IPv4Address, Prefix

FULL_SCRIPT = """\
# maintenance window 42
link down SEAT LOSA
link up SEAT SALT
interface shutdown r1 eth0
interface enable r1 eth0
static add r0 10.99.0.0/24 next-hop 10.0.0.1
static add r0 10.98.0.0/24 interface eth1
static add r0 10.97.0.0/24 drop
static remove r0 10.99.0.0/24 next-hop 10.0.0.1
ospf cost SEAT eth0 50
ospf enable r1 eth2 area 1 cost 20
ospf disable r1 eth2
bgp announce cust0 10.254.9.0/24
bgp withdraw cust0 10.254.9.0/24
acl add r3 FILTER deny dst 172.16.5.0/24 src 192.168.0.0/16 proto 6 dport 80-443
acl add r3 FILTER permit dst 0.0.0.0/0
acl remove r3 FILTER permit dst 0.0.0.0/0
acl bind r3 eth1 out FILTER
acl unbind r3 eth1 out
route-map local-pref SEAT IMP_CUST 10 200
"""


class TestParsing:
    def test_full_script_parses(self):
        change = parse_change(FULL_SCRIPT, label="window 42")
        assert len(change) == 19
        assert isinstance(change.edits[0], LinkDown)
        assert isinstance(change.edits[1], LinkUp)
        assert isinstance(change.edits[2], ShutdownInterface)

    def test_static_variants(self):
        change = parse_change(
            "static add r0 10.99.0.0/24 next-hop 10.0.0.1\n"
            "static add r0 10.97.0.0/24 drop\n"
        )
        first, second = change.edits
        assert isinstance(first, AddStaticRoute)
        assert first.route.next_hop == IPv4Address("10.0.0.1")
        assert second.route.drop

    def test_acl_rule_fields(self):
        change = parse_change(
            "acl add r3 F deny dst 172.16.5.0/24 proto 6 dport 80-443\n"
        )
        (edit,) = change.edits
        assert isinstance(edit, AddAclRule)
        assert edit.rule.action is AclAction.DENY
        assert edit.rule.proto == 6
        assert edit.rule.dport_hi == 443

    def test_bind_and_unbind(self):
        change = parse_change("acl bind r3 eth1 out F\nacl unbind r3 eth1 out\n")
        bind, unbind = change.edits
        assert isinstance(bind, BindAcl) and bind.acl == "F"
        assert isinstance(unbind, BindAcl) and unbind.acl is None

    def test_local_pref(self):
        change = parse_change("route-map local-pref SEAT M 10 200\n")
        (edit,) = change.edits
        assert isinstance(edit, SetLocalPref)
        assert edit.local_pref == 200

    def test_ospf_defaults(self):
        change = parse_change("ospf enable r1 eth2\n")
        (edit,) = change.edits
        assert edit.area == 0 and edit.cost == 10

    def test_comments_and_blanks(self):
        change = parse_change("# nothing\n\n   # more nothing\n")
        assert len(change) == 0

    def test_error_carries_line(self):
        with pytest.raises(ChangeParseError) as excinfo:
            parse_change("link down a b\nnonsense here\n")
        assert excinfo.value.line_number == 2

    def test_bad_static_target(self):
        with pytest.raises(ChangeParseError, match="static target"):
            parse_change("static add r0 10.0.0.0/24 nowhere\n")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("link down r0 r1 eth0", "4 or 6 tokens"),
            ("link down r0 r1 eth0 eth1 junk", "4 or 6 tokens"),
            ("ospf enable r1 eth2 aera 5", "bad option 'aera'"),
            ("ospf enable r1 eth2 area", "'area' needs a value"),
            ("ospf enable r1 eth2 area 1 area 2", "bad option 'area'"),
            ("acl add r3 F deny dst 10.0.0.0/8 src", "'src' needs a value"),
            ("acl add r3 F allow dst 10.0.0.0/8", "permit|deny"),
        ],
    )
    def test_rejects_dropped_input(self, line, problem):
        with pytest.raises(ChangeParseError, match=problem):
            parse_change(line + "\n")


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        change = parse_change(FULL_SCRIPT, label="window 42")
        text = serialize_change(change)
        reparsed = parse_change(text, label="window 42")
        assert serialize_change(reparsed) == text
        assert [type(e) for e in reparsed.edits] == [type(e) for e in change.edits]

    def test_announce_round_trip(self):
        change = parse_change("bgp announce c 10.254.9.0/24\n")
        assert "bgp announce c 10.254.9.0/24" in serialize_change(change)
        (edit,) = change.edits
        assert isinstance(edit, AnnouncePrefix)
        assert edit.prefix == Prefix("10.254.9.0/24")

    def test_passive_ospf_enable_has_no_script_form(self):
        edit = EnableOspfInterface("r1", "eth2", passive=True)
        with pytest.raises(ValueError, match="passive"):
            serialize_change(Change.of(edit))
        active = Change.of(EnableOspfInterface("r1", "eth2", area=1, cost=20))
        assert parse_change(serialize_change(active)).edits == active.edits

    def test_ospf_cost_round_trip(self):
        change = parse_change("ospf cost r0 eth1 42\n")
        (edit,) = change.edits
        assert isinstance(edit, SetOspfCost)
        assert "ospf cost r0 eth1 42" in serialize_change(change)


class TestCli:
    def test_demo_show_analyze_trace(self, tmp_path):
        from repro.cli import main

        directory = str(tmp_path / "demo")
        assert main(["demo", directory]) == 0
        assert main(["show", directory, "--limit", "2"]) == 0
        script = str(tmp_path / "demo" / "change.dna")
        assert main(["analyze", directory, script, "--baseline"]) == 0
        assert main(["trace", directory, "r0", "172.16.3.1"]) == 0

    def test_analyze_commit_persists(self, tmp_path):
        from repro.cli import main
        from repro.core.snapshot import Snapshot

        directory = str(tmp_path / "demo")
        main(["demo", directory])
        script = str(tmp_path / "demo" / "change.dna")
        assert main(["analyze", directory, script, "--commit"]) == 0
        snapshot = Snapshot.load(directory)
        assert snapshot.topology.num_links() == 5  # one ring link down

    def test_trace_unreachable_exit_code(self, tmp_path):
        from repro.cli import main

        directory = str(tmp_path / "demo")
        main(["demo", directory])
        assert main(["trace", directory, "r0", "203.0.113.1"]) == 2
