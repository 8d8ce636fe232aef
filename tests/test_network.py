"""Quorum arithmetic, tamper locality, majority repair, scenario determinism."""

import itertools
import random
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest

import medledger
from medledger import store
from medledger.blocks import block_hash, decode_record, encode_record, mutate_block
from medledger.errors import AccessDenied, LedgerError, NoSuchBlock, NotAuthorized, ReplicaDivergence, ScriptError
from medledger.ledger import Ledger, Role, verify_tree
from medledger.network import (
    Command,
    Network,
    SimConfig,
    parse_script,
    repair_majority,
    repair_replicas,
    run_scenario,
)

from helpers import AUTHORITY, CATALOG, DOCTOR, INVALID, block_mutations, count_calls, drive, every_block
from helpers import GOLDEN, LIFECYCLE_CATALOG, every_position_repair_oracle, fresh_ledger, rebuilt, store_image
from scenarios import run as run_random_scenario
from scenarios import scenario

ONBOARD = Command("onboard", "registry", Role.AUTHORITY, True, (("code", "FC001"), ("info.name", "Mario")))
WRITE = Command("write", "drb", Role.DOCTOR, True, (("patient", "1"), ("entry", "blood_test:v1")))


def make_net(n=5, **kw) -> Network:
    return Network(SimConfig(node_count=n, **kw), CATALOG)


def test_every_valid_command_commits_with_all_confirmations():
    net = make_net(5)
    proposal = net.propose("n1", ONBOARD)
    assert proposal.committed and proposal.confirmations == 5
    assert proposal.outcome == "ok" and proposal.result == "patient:1"


def test_quorum_examples_with_byzantine_refusers():
    # 2 refusers of 5: 3 yes > 51% commits; 3 refusers: 2 yes rejects
    net = make_net(5, byzantine=frozenset({"n4", "n5"}))
    assert net.propose("n1", ONBOARD).committed
    net = make_net(5, byzantine=frozenset({"n3", "n4", "n5"}))
    proposal = net.propose("n1", ONBOARD)
    assert not proposal.committed and proposal.confirmations == 2
    for node in net.nodes.values():
        assert len(node.replica.main_chain) == 1  # nothing applied anywhere


def test_unlisted_proposer_not_authorized_changes_nothing():
    net = make_net(3)
    with pytest.raises(NotAuthorized):
        net.propose("intruder", ONBOARD)
    assert net.seq == 0
    for node in net.nodes.values():
        assert len(node.replica.main_chain) == 1


def test_quorum_law_exhaustive_against_rational_oracle():
    """The repair share, against an oracle in exact rational arithmetic
    for N=2..9 and every count (criterion 04 checks the commit share)."""
    for n in range(2, 10):
        for c in range(0, n + 1):
            assert repair_majority(c, n) == (Fraction(c, n) >= Fraction(51, 100)), (c, n)


def test_quorum_via_propose_matches_oracle():
    for n in range(2, 10):
        for refusers in range(0, n):
            byz = frozenset(f"n{i}" for i in range(n - refusers + 1, n + 1))
            net = Network(SimConfig(node_count=n, byzantine=byz), CATALOG)
            proposal = net.propose("n1", ONBOARD)
            c = n - refusers
            assert proposal.confirmations == c
            assert proposal.committed == (Fraction(c, n) > Fraction(51, 100)), (c, n)


def test_domain_failures_commit_and_replicate_their_audit_logs():
    net = make_net(5)
    net.propose("n1", ONBOARD)
    net.propose("n2", WRITE)
    net.propose("n1", Command("close", "registry", Role.AUTHORITY, True, (("patient", "1"),)))
    late = net.propose("n2", WRITE)
    assert late.committed and late.outcome == "SubchainClosed"
    for node in net.nodes.values():
        assert len(node.replica.red[1]) == 3  # write log, close log, failed attempt
    digests = {node.replica.state_digest() for node in net.nodes.values()}
    assert len(digests) == 1


def test_tamper_is_local_to_one_node():
    net = make_net(5)
    net.propose("n1", ONBOARD)
    net.propose("n2", WRITE)
    before = {nid: net.nodes[nid].replica.snapshot_bytes() for nid in net.approved}
    net.tamper("n3", "yellow", 1, 1, "entry.0.payload", "forged")
    for nid in net.approved:
        snapshot = net.nodes[nid].replica.snapshot_bytes()
        if nid == "n3":
            assert snapshot != before[nid]
            assert verify_tree(net.nodes[nid].replica) != []
        else:
            assert snapshot == before[nid]
            assert verify_tree(net.nodes[nid].replica) == []


def test_mid_chain_tamper_breaks_the_whole_suffix():
    """The violation count covers at least the chain suffix after the edit."""
    net = make_net(3)
    net.propose("n1", ONBOARD)
    for n in range(4):
        net.propose("n2", Command("write", "drb", Role.DOCTOR, True,
                                  (("patient", "1"), ("entry", f"blood_test:v{n}"))))
    net.tamper("n1", "yellow", 1, 2, "entry.0.payload", "forged")
    violations = verify_tree(net.nodes["n1"].replica)
    suffix_length = 4 - 2 + 1  # blocks 2..4 of the tampered chain
    yellow_violations = [v for v in violations if v.chain == "YELLOW"]
    assert len(yellow_violations) >= suffix_length
    assert all(int(v.coord.split(".")[1]) >= 2 for v in yellow_violations)


def test_tamper_missing_block_raises():
    net = make_net(3)
    net.propose("n1", ONBOARD)
    from medledger.errors import NoSuchBlock

    with pytest.raises(NoSuchBlock):
        net.tamper("n1", "yellow", 1, 5, "is_final", "true")


def test_repair_one_tampered_node_of_five():
    net = make_net(5)
    net.propose("n1", ONBOARD)
    net.propose("n2", WRITE)
    net.tamper("n3", "yellow", 1, 1, "is_final", "true")
    report = net.audit_and_repair()
    assert [str(e) for e in report] == ["replaced node=n3 chain=yellow coord=1.1"]
    digests = {node.replica.state_digest() for node in net.nodes.values()}
    assert len(digests) == 1
    assert verify_tree(net.nodes["n3"].replica) == []


def test_repair_two_tampered_nodes_still_majority():
    net = make_net(5)
    net.propose("n1", ONBOARD)
    net.propose("n2", WRITE)
    net.tamper("n3", "yellow", 1, 1, "entry.0.payload", "forged-one-way")
    net.tamper("n5", "yellow", 1, 1, "entry.0.payload", "forged-another")
    report = net.audit_and_repair()
    assert sorted(e.node for e in report) == ["n3", "n5"]
    assert all(e.action == "replaced" for e in report)
    assert len({node.replica.state_digest() for node in net.nodes.values()}) == 1


def test_three_identical_tampers_of_five_are_unrepairable():
    """Documents the honest-majority bound: a stale-hash version held by 60%
    must not be adopted, and the honest 40% is below the threshold."""
    net = make_net(5)
    net.propose("n1", ONBOARD)
    net.propose("n2", WRITE)
    honest = net.nodes["n1"].replica.snapshot_bytes()
    for nid in ("n2", "n3", "n4"):
        net.tamper(nid, "yellow", 1, 1, "entry.0.payload", "same-forgery")
    report = net.audit_and_repair()
    assert [str(e) for e in report] == ["unrepairable node=* chain=yellow coord=1.1"]
    assert net.nodes["n1"].replica.snapshot_bytes() == honest  # honest replicas untouched
    assert net.nodes["n5"].replica.snapshot_bytes() == honest


def test_repair_gives_a_replica_missing_a_patient_both_subchains(tmp_path):
    """An onboarding that two replicas of three applied is appended to the
    third together with the patient's empty subchains, so every replica
    persists to a store that loads back to the same state. With the
    onboarding forged alike on both, main 1 is unrepairable, so the third
    anchors no patient 1: it takes none of the read's log, which is
    reported unrepairable there, and still verifies."""
    base = Ledger.genesis(CATALOG)
    replicas = {nid: base.clone() for nid in ("n1", "n2", "n3")}
    for nid in ("n1", "n2"):
        replicas[nid].onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    assert [str(e) for e in repair_replicas(replicas)] == ["replaced node=n3 chain=main coord=1"]
    assert (replicas["n3"].yellow, replicas["n3"].red) == ({1: []}, {1: []})
    for nid, replica in replicas.items():
        store.persist(replica, tmp_path / nid)
        assert store.load(tmp_path / nid).snapshot_bytes() == replicas["n1"].snapshot_bytes()

    replicas = {nid: base.clone() for nid in ("n1", "n2", "n3")}
    for nid in ("n1", "n2"):
        replicas[nid].onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
        replicas[nid].read_record(DOCTOR, 1, "latest")
        replicas[nid].tamper("main", 0, 1, "info.x", "forged")
    fresh = replicas["n3"].snapshot_bytes()
    unrepairable = ["unrepairable node=* chain=main coord=1", "unrepairable node=n3 chain=red coord=1.1"]
    for _ in range(2):
        assert [str(e) for e in repair_replicas(replicas)] == unrepairable
        assert (replicas["n3"].yellow, replicas["n3"].red) == ({}, {})
        assert replicas["n3"].snapshot_bytes() == fresh and verify_tree(replicas["n3"]) == []


def test_repair_past_an_unrepairable_position_heals_no_replica_across_the_gap():
    """b's forged main 2 leaves no 51% version there; past it, a and b
    agree on main 3, which c cannot take without main 2. Both positions
    are reported, and c keeps the blocks it had."""
    base = Ledger.genesis(CATALOG)
    replicas = {nid: base.clone() for nid in "abc"}
    for nid, count in (("a", 3), ("b", 3), ("c", 1)):
        for n in range(1, count + 1):
            replicas[nid].onboard_patient(AUTHORITY, f"FC00{n}", {"name": "Mario"})
    replicas["b"].tamper("main", 0, 2, "fiscal_code", "FORGED")
    report = [str(e) for e in repair_replicas(replicas)]
    assert report == ["unrepairable node=* chain=main coord=2", "unrepairable node=c chain=main coord=3"]
    assert len(replicas["c"].main_chain) == 2


def _some_chain(rng: random.Random, replica: Ledger, names=("main", "yellow", "red")) -> tuple[str, list]:
    """One non-empty chain of the replica, by name: main, or a patient's
    yellow or red subchain."""
    name = rng.choice(names)
    if name == "main":
        return name, replica.main_chain
    table = replica.yellow if name == "yellow" else replica.red
    return name, table[rng.choice([p for p, chain in sorted(table.items()) if chain])]


def _damage(rng: random.Random, replicas: dict[str, Ledger], kind: str) -> None:
    """One seeded fault of this kind, made raw on the replicas' lists."""
    nids = list(replicas)
    if kind == "tamper":  # one field of one block, on one replica or two
        first, *more = rng.sample(nids, rng.choice((1, 2)))
        name, chain = _some_chain(rng, replicas[first])
        pos = rng.randrange(len(chain))
        forged = rng.choice(block_mutations(chain[pos]))[1]
        for nid in (first, *more):
            held = replicas[nid].chain(name, chain[pos].coord.patient)
            if pos < len(held):
                held[pos] = forged
    elif kind == "equal_copy":  # a distinct object equal to the block it replaces, in a chain a tamper makes differ
        name, chain = _some_chain(rng, replicas[rng.choice(nids)])
        pos, other = rng.randrange(len(chain)), rng.randrange(len(chain))
        chain[pos] = decode_record(encode_record(chain[pos]))
        chain[other] = rng.choice(block_mutations(chain[other]))[1]
    elif kind == "truncate":  # the newest 1-3 blocks of one chain lost
        name, chain = _some_chain(rng, replicas[rng.choice(nids)], ("yellow", "red"))
        del chain[-rng.randint(1, 3) :]
    elif kind == "missing_patient":  # a patient onboarded on some replicas only, each sealing its own blocks
        code = f"FCNEW{rng.randrange(10**6)}"
        for nid in rng.sample(nids, rng.randint(1, len(nids) - 1)):
            replica = replicas[nid]
            p = replica.onboard_patient(AUTHORITY, code, {"name": "new"})
            replica.write_record(DOCTOR, p, [("xray", b"v")])
            replica.read_record(DOCTOR, p, "latest")
    elif kind == "forged_note":  # 1-3 refused onboards noted on every replica, then one note forged on one or two
        for _ in range(rng.randint(1, 3)):
            for replica in replicas.values():
                with pytest.raises(AccessDenied):
                    replica.onboard_patient(INVALID, "FCNOTE", {})
        first, *more = rng.sample(nids, rng.choice((1, 2)))
        notes = replicas[first].global_audit
        pos = rng.randrange(len(notes))
        field, value = rng.choice((("actor", "forged"), ("timestamp", notes[pos].timestamp + 1),
                                   ("detail", "forged"), ("prev_hash", bytes(31) + b"\x01"), ("self_hash", bytes(32))))
        for nid in (first, *more):
            replicas[nid].global_audit[pos] = replace(notes[pos], **{field: value})
    elif kind == "forged_pair":  # one forgery held by two replicas of three: no 51% version
        a, b = rng.sample(nids, 2)
        name, chain = _some_chain(rng, replicas[a])
        pos = rng.randrange(len(chain))
        forged = rng.choice(block_mutations(chain[pos])[1:])[1]  # any field but the coordinate
        chain[pos] = replicas[b].chain(name, forged.coord.patient)[pos] = forged
    else:
        raise ValueError(kind)


# the kinds that run ops come first
DAMAGE_KINDS = ("missing_patient", "forged_note", "tamper", "equal_copy", "truncate", "forged_pair")


def _damaged_replicas(seed: int, kinds: tuple[str, ...]) -> dict[str, Ledger]:
    """Clones of one driven ledger, three (or five, without forged_pair),
    each fault of kinds made once; equal seeds give equal sets, sharing
    the same block objects between the same replicas."""
    rng = random.Random(seed)
    base = fresh_ledger()
    drive(base, rng, 30)
    count = 3 if "forged_pair" in kinds else rng.choice((3, 5))
    replicas = {f"n{k}": base.clone() for k in range(1, count + 1)}
    for kind in kinds:
        _damage(rng, replicas, kind)
    return replicas


def _outcome(replicas: dict[str, Ledger], repair) -> tuple:
    report = repair(replicas)
    return report, [(nid, r.state_digest(), r.clock) for nid, r in replicas.items()]


def _unit(chain: str, coord: str) -> str:
    """What a violation or repair entry is in: the main chain, the audit
    notes, or one patient's two subchains."""
    return chain.lower() if chain.lower() in ("main", "audit") else coord.partition(".")[0]


def _assert_repairs_as_the_oracle(make, directory: Path) -> list:
    """Repair and the oracle give the same report, states and clocks, and
    every replica repair reports replaced holds only state the store can
    hold: persisted to a fresh directory, it loads back the same. Nor does
    verify_tree find more violations in it than before the repair, outside
    the units that hold a position reported unrepairable (a replica given
    the majority's blocks around such a position holds two histories
    spliced there)."""
    expected = _outcome(make(), every_position_repair_oracle)
    replicas = make()
    before = {nid: verify_tree(r) for nid, r in replicas.items()}
    got = _outcome(replicas, repair_replicas)
    assert got == expected
    unrepaired = {_unit(e.chain, e.coord) for e in got[0] if e.action == "unrepairable"}

    def counted(violations) -> int:
        return sum(_unit(v.chain, v.coord) not in unrepaired for v in violations)

    for nid in {e.node for e in got[0] if e.action == "replaced"}:
        target = Path(tempfile.mkdtemp(dir=directory))
        store.persist(replicas[nid], target)
        assert store.load_raw(target).snapshot_bytes() == replicas[nid].snapshot_bytes(), nid
        assert counted(verify_tree(replicas[nid])) <= counted(before[nid]), nid
    return [e.action for e in got[0]]


@pytest.mark.parametrize(
    "kinds", [(kind,) for kind in DAMAGE_KINDS] + [DAMAGE_KINDS[:5]], ids=[*DAMAGE_KINDS, "mixed"]
)
def test_repair_equals_the_every_position_vote(kinds, tmp_path):
    """The vote limited to positions where replicas hold different block
    objects, or lack one, reports, heals and clocks exactly as the vote at
    every position of a differing chain."""
    actions = Counter()
    for seed in range(12):
        actions.update(_assert_repairs_as_the_oracle(lambda: _damaged_replicas(seed, kinds), tmp_path))
    assert actions["replaced"] + actions["unrepairable"] > 0
    if kinds == ("forged_pair",):
        assert actions["unrepairable"] >= 12


def test_repair_of_loaded_replicas_equals_the_every_position_vote(tmp_path):
    """Replicas loaded from their own directories share no block object, so
    every position of a chain that differs is voted on, as before."""
    for seed in range(6):
        for nid, replica in _damaged_replicas(seed, ("missing_patient", "forged_note", "tamper", "truncate")).items():
            store.persist(replica, tmp_path / f"{seed}" / nid)
        dirs = sorted((tmp_path / f"{seed}").iterdir())
        _assert_repairs_as_the_oracle(lambda: {d.name: store.load_raw(d) for d in dirs}, tmp_path)


def _repair_in_sessions(dirs: list[Path], shared: dict | None) -> tuple:
    """audit-repair's path over the directories, in path order: a raw
    session each, passing shared to every load; the repair; a commit of
    each replica it replaced. The snapshots as loaded, the report, the
    snapshots as repaired and every file's bytes."""
    with ExitStack() as stack:
        sessions = {d.name: stack.enter_context(store.session(d, raw=True, shared=shared)) for d in dirs}
        replicas = {nid: ledger for nid, (ledger, _) in sessions.items()}
        loaded = {nid: r.snapshot_bytes() for nid, r in replicas.items()}
        report = repair_replicas(replicas)
        for nid in {e.node for e in report if e.action == "replaced"}:
            sessions[nid][1]()
    repaired = {nid: r.snapshot_bytes() for nid, r in replicas.items()}
    return loaded, report, repaired, {d.name: store_image(d) for d in dirs}


@pytest.mark.parametrize("kind", DAMAGE_KINDS)
def test_replicas_loaded_with_sharing_repair_as_replicas_loaded_one_by_one(kind, tmp_path, monkeypatch):
    """Loads that pass one shared dict decode each distinct chain file
    once; the replicas they give load, report, heal and persist exactly as
    replicas loaded one by one."""
    decodes = count_calls(monkeypatch, decode_record)
    calls = {}
    for seed in range(6):
        outcomes = {}
        for how, shared in (("alone", None), ("shared", {})):
            for nid, replica in _damaged_replicas(seed, (kind,)).items():
                store.persist(replica, tmp_path / f"{seed}" / how / nid)
            dirs = sorted((tmp_path / f"{seed}" / how).iterdir())
            decodes[0] = 0
            outcomes[how] = _repair_in_sessions(dirs, shared)
            calls[how] = calls.get(how, 0) + decodes[0]
        assert outcomes["shared"] == outcomes["alone"], seed
    assert calls["shared"] < calls["alone"]


def _typed_results(ledger: Ledger, p: int) -> list:
    """The typed read and the report of each catalog type on patient p, or
    the error each raises, on a clone: it shares the ledger's type indexes,
    and the logs they append do not reach the ledger."""
    dup = ledger.clone()
    results = []
    for record_type, _ in CATALOG:
        try:
            results.append((dup.read_record(DOCTOR, p, record_type)[0], dup.assemble_report(DOCTOR, p, record_type)))
        except LedgerError as exc:
            results.append(type(exc).__name__)
    return results


def _assert_derived_state_as_rebuilt(replicas: dict[str, Ledger]) -> Counter:
    """Build each replica's type indexes from its damaged chains, then
    repair. Each replica the report names replaced on a patient's subchain
    holds, for that patient, the closed flag and the typed reads and
    reports of a Ledger rebuilt from its chains; one it names replaced on
    the main chain also holds the rebuild's anchors, active codes, catalog
    head and closed set. Counts the replicas and patients checked."""
    for replica in replicas.values():
        replica._typed.clear()
        for p in replica.yellow:
            replica._types(p)
    report = repair_replicas(replicas)
    checked = Counter()
    for nid, replica in replicas.items():
        replaced = [e for e in report if e.node == nid and e.action == "replaced"]
        fresh = rebuilt(replica)
        if any(e.chain == "main" for e in replaced):
            checked["main"] += 1
            derived = attrgetter("_anchor", "_active_codes", "catalog_head", "closed")
            assert derived(replica) == derived(fresh), nid
        for p in sorted({int(e.coord.partition(".")[0]) for e in replaced if e.chain in ("yellow", "red")}):
            checked["patients"] += 1
            assert (p in replica.closed) == (p in fresh.closed), (nid, p)
            assert _typed_results(replica, p) == _typed_results(fresh, p), (nid, p)
    return checked


@pytest.mark.parametrize("copies", ["in_memory", "loaded"])
@pytest.mark.parametrize(
    "kinds", [(kind,) for kind in DAMAGE_KINDS] + [DAMAGE_KINDS[:5]], ids=[*DAMAGE_KINDS, "mixed"]
)
def test_repair_leaves_the_derived_state_of_a_rebuild(kinds, copies, tmp_path):
    """A repair reindexes a replica whole only where it gave it main-chain
    blocks, and updates one patient where it gave it only that patient's
    subchain blocks; either way the replica answers as if rebuilt."""
    checked = Counter()
    for seed in range(12 if copies == "in_memory" else 6):
        replicas = _damaged_replicas(seed, kinds)
        if copies == "loaded":
            for nid, replica in replicas.items():
                store.persist(replica, tmp_path / f"{seed}" / nid)
            replicas = {nid: store.load_raw(tmp_path / f"{seed}" / nid) for nid in replicas}
        checked.update(_assert_derived_state_as_rebuilt(replicas))
    assert checked["patients"] > 0 or kinds in (("forged_note",), ("forged_pair",))
    assert checked["main"] > 0 or "missing_patient" not in kinds


@pytest.mark.parametrize("closes", [True, False], ids=["closes", "reopens"])
def test_repair_of_a_final_block_sets_the_closed_flag_either_way(closes):
    """The third replica, rebuilt from its chains as a load leaves it,
    lacks patient 1's final block (closes) or holds a forged one in place
    of their last open block (reopens); the repair gives it the majority's
    block and its closed flag follows."""
    base = fresh_ledger()
    p = base.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    for payload in (b"v1", b"v2"):
        base.write_record(DOCTOR, p, [("xray", payload)])
    if closes:
        base.close_subchain(AUTHORITY, p)
    replicas = {nid: base.clone() for nid in ("n1", "n2", "n3")}
    chain = replicas["n3"].yellow[p]
    if closes:
        del chain[-1]
    else:
        chain[-1] = mutate_block(chain[-1], "is_final", True)
    replicas["n3"] = rebuilt(replicas["n3"])
    assert (p in replicas["n3"].closed) != closes
    assert _assert_derived_state_as_rebuilt(replicas) == Counter(patients=1)
    assert (p in replicas["n3"].closed) == closes


def test_drop_rate_zero_commits_every_valid_command():
    script = (GOLDEN / "lifecycle.script").read_text()
    transcript = run_scenario(SimConfig(node_count=5, seed=3), script, CATALOG)
    assert transcript.count("COMMIT") == 7
    assert transcript.count("REJECT ") == 0


def test_different_seed_changes_drop_pattern():
    script = (GOLDEN / "lifecycle.script").read_text()
    a = run_scenario(SimConfig(node_count=5, seed=1, drop_rate=0.4), script, CATALOG)
    b = run_scenario(SimConfig(node_count=5, seed=2, drop_rate=0.4), script, CATALOG)
    assert a != b


def test_lifecycle_end_state_satisfies_tree_invariants():
    script = (GOLDEN / "lifecycle.script").read_text()
    net = Network(SimConfig(node_count=5, seed=7), LIFECYCLE_CATALOG)
    for step in parse_script(script):
        net.propose(step.node, step.command)
    for node in net.nodes.values():
        replica = node.replica
        assert verify_tree(replica) == []
        assert 1 in replica.closed
        assert len(replica.red[1]) > len(replica.yellow[1])


def test_a_15_node_sim_of_the_lifecycle_script_ends_in_the_pinned_5_node_state():
    """Replicas share the blocks of a commit; every one of 15 still ends in
    the state digest that the 5-node golden transcript ends with."""
    script = (GOLDEN / "lifecycle.script").read_text()
    state = (GOLDEN / "lifecycle_transcript.txt").read_text().splitlines()[-1].split("state=")[1]
    transcript = run_scenario(SimConfig(15, seed=7), script, LIFECYCLE_CATALOG)
    finals = [line for line in transcript.splitlines() if line.startswith("FINAL ")]
    assert finals == [f"FINAL node=n{k} state={state}" for k in range(1, 16)]


def test_a_15_node_sim_heals_a_tampered_medical_block_with_audit_repair():
    """The lifecycle script, then a tamper on one node, a typed read, a
    repair and the read again: the tampered node takes the majority's
    block, and all 15 nodes end in one state."""
    script = (GOLDEN / "lifecycle.script").read_text() + """
8 n7 tamper chain=yellow patient=1 index=1 field=entry.0.payload value=forged
9 n3 read actor=drbianchi role=doctor valid=1 patient=1 query=blood_test
10 n1 audit-repair
11 n3 read actor=drbianchi role=doctor valid=1 patient=1 query=blood_test
"""
    lines = run_scenario(SimConfig(15, seed=7), script, LIFECYCLE_CATALOG).splitlines()
    assert [line for line in lines if line.startswith("REPAIR ")] == [
        "REPAIR node=n7 chain=yellow coord=1.1 action=replaced"
    ]
    finals = [line.split(" state=")[1] for line in lines if line.startswith("FINAL ")]
    assert len(finals) == 15 and len(set(finals)) == 1


def test_scripted_tamper_and_repair_round_trip():
    script = """
1 n1 onboard actor=reg role=authority valid=1 code=FC001 info.name=Mario
2 n2 write actor=drb role=doctor valid=1 patient=1 entry=blood_test:v1
3 n3 tamper chain=yellow patient=1 index=1 field=entry.0.payload value=forged
4 n2 tamper chain=yellow patient= index=1 field=entry.0.payload value=forged
5 n1 audit-repair
"""
    transcript = run_scenario(SimConfig(node_count=5, seed=5), script, CATALOG)
    assert "TAMPER tick=3 node=n3 chain=yellow patient=1 index=1 field=entry.0.payload status=ok" in transcript
    assert "TAMPER tick=4 node=n2 chain=yellow patient= index=1 field=entry.0.payload status=error:ValueError" in transcript
    assert "REPAIR node=n3 chain=yellow coord=1.1 action=replaced" in transcript
    finals = {line.split("state=")[1] for line in transcript.splitlines() if line.startswith("FINAL")}
    assert len(finals) == 1


def test_a_tampered_typed_backlink_on_one_replica_changes_no_report():
    """A report lists every entry of its type on every replica, so a node
    whose typed backlink was rewritten to the zero digest commits the
    same report as the others instead of diverging from them."""
    writes = "".join(
        f"{n + 2} n1 write actor=drb role=doctor valid=1 patient=1 entry=xray:v{n}\n" for n in range(3)
    )
    script = f"""
1 n1 onboard actor=reg role=authority valid=1 code=FC001 info.name=Mario
{writes}5 n2 tamper chain=yellow patient=1 index=2 field=entry.0.prev_same_type value={"00" * 32}
6 n3 report actor=drb role=doctor valid=1 patient=1 type=xray
"""
    transcript = run_scenario(SimConfig(node_count=3, seed=1), script, CATALOG)
    assert "TAMPER tick=5 node=n2 chain=yellow patient=1 index=2 field=entry.0.prev_same_type status=ok" in transcript
    assert transcript.splitlines()[-4] == "APPLY seq=5 outcome=ok result=entries:3"


def test_heavy_drops_reject_some_commands_deterministically():
    script = (GOLDEN / "lifecycle.script").read_text()
    transcript = run_scenario(SimConfig(node_count=5, seed=13, drop_rate=0.6), script, CATALOG)
    assert "vote=drop" in transcript
    assert "REJECT " in transcript  # a quorum failed somewhere under 60% drops
    # committed-or-rejected accounting still covers every proposal
    assert transcript.count("PROPOSE") == transcript.count("COMMIT") + transcript.count("REJECT ")


def test_script_parsing_errors():
    with pytest.raises(ScriptError):
        parse_script("1 n1 onboard code=X\n1 n2 read patient=1 query=latest")  # tick repeats
    with pytest.raises(ScriptError):
        parse_script("1 n1 frobnicate x=1")
    with pytest.raises(ScriptError):
        parse_script("x n1 onboard code=X")
    with pytest.raises(ScriptError):
        parse_script("1 n1 onboard code")
    for tick in ("0_1", "+1", "01", "\u0663"):  # int() reads each, and a transcript would show another number
        with pytest.raises(ScriptError) as excinfo:
            parse_script(f"# a comment\n{tick} n1 onboard code=X")
        assert str(excinfo.value) == f"line 2: tick {tick!r} is not an integer"
    for line, key in (  # only entry repeats a key
        ("2 n1 write patient=1 patient=2 entry=xray:v1", "patient"),
        ("2 n1 read actor=a actor=b patient=1 query=latest", "actor"),
        ("2 n1 tamper chain=main patient=1 index=0 field=place value=a value=b", "value"),
    ):
        with pytest.raises(ScriptError) as excinfo:
            parse_script(f"1 n1 onboard code=X\n{line}")
        assert str(excinfo.value) == f"line 2: argument key {key!r} given more than once"
    assert parse_script("# only a comment\n\n") == []


def test_a_script_credential_is_valid_by_one_boolean_word_rule():
    """valid= reads true, 1 and yes as valid and false, 0 and no as
    invalid, in any case, as a tamper reads a boolean field; any other
    word is refused with its line, as an unknown role is."""
    onboard = "1 n1 onboard actor=reg role=authority valid={} code=FC001\n"
    outcomes = {"True": "ok result=patient:1", "YES": "ok result=patient:1"}
    outcomes["No"] = "AccessDenied result=invalid credential for reg"
    for word, outcome in outcomes.items():
        transcript = run_scenario(SimConfig(node_count=3, seed=1), onboard.format(word), CATALOG)
        assert f"APPLY seq=1 outcome={outcome}" in transcript, transcript
    for word in ("ture", "2", ""):
        with pytest.raises(ScriptError) as excinfo:
            run_scenario(SimConfig(node_count=3, seed=1), "# a comment\n" + onboard.format(word), CATALOG)
        assert str(excinfo.value) == f"line 2: valid= not a boolean: {word!r}"


def test_byzantine_must_be_subset_of_approved():
    with pytest.raises(ValueError):
        Network(SimConfig(node_count=3, byzantine=frozenset({"n9"})), CATALOG)


def test_structurally_malformed_command_is_refused_and_rejected():
    net = make_net(5)
    bogus = Command("write", "drb", Role.DOCTOR, True, (("patient", "not-a-number"),))
    proposal = net.propose("n1", bogus)
    assert not proposal.committed
    assert proposal.confirmations == 1  # only the proposer's implicit vote


NOT_CANONICAL = ("1_0", "+1", " 1", "01", "\u0663")

# one command per refusal of the parse; each would reach the ledger otherwise
MALFORMED = {
    "unknown-verb": Command("frobnicate", "drb", Role.DOCTOR, True, (("patient", "1"),)),
    "missing-key": Command("read", "drb", Role.DOCTOR, True, (("patient", "1"),)),
    "non-integer-patient": Command("read", "drb", Role.DOCTOR, True, (("patient", "one"), ("query", "latest"))),
    "token-without-separator": Command("write", "drb", Role.DOCTOR, True, (("patient", "1"), ("entry", "blood_test"))),
    "empty-entry-list": Command("write", "drb", Role.DOCTOR, True, (("patient", "1"),)),
    "not-utf8": Command("read", "\udcff", Role.DOCTOR, True, (("patient", "1"), ("query", "latest"))),
    "empty-code": Command("onboard", "reg", Role.AUTHORITY, True, (("code", ""),)),
    "empty-new-code": Command("change-code", "reg", Role.AUTHORITY, True, (("patient", "1"), ("new_code", ""))),
    "empty-catalog-code": Command("catalog-add", "reg", Role.AUTHORITY, True, (("entry", ":Empty"),)),
    "latest-catalog-code": Command("catalog-add", "reg", Role.AUTHORITY, True, (("entry", "latest:Latest"),)),
    "repeated-key": Command("read", "drb", Role.DOCTOR, True, (("patient", "1"), ("patient", "2"), ("query", "latest"))),
} | {
    # int() reads each of these, but only the text str() writes names an index
    f"patient-{text!r}": Command("read", "drb", Role.DOCTOR, True, (("patient", text), ("query", "latest")))
    for text in NOT_CANONICAL
}


@pytest.mark.parametrize("command", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_command_gets_no_honest_vote_and_changes_no_replica(command):
    # on one node the proposer's own vote is a majority, yet it must not commit
    for n, proposer in ((5, "n3"), (1, "n1")):
        net = make_net(n)
        net.propose("n1", ONBOARD)
        net.propose("n1", WRITE)
        before = {nid: node.replica.snapshot_bytes() for nid, node in net.nodes.items()}
        proposal = net.propose(proposer, command)
        assert [vote for nid, vote in proposal.votes if nid != proposer] == ["no"] * (n - 1)
        assert not proposal.committed and proposal.outcome == "rejected"
        assert {nid: node.replica.snapshot_bytes() for nid, node in net.nodes.items()} == before


def test_only_the_text_str_writes_names_a_patient():
    """A patient of -1 parses, and the ledger refuses it as unknown; a
    sim line whose patient is not canonical gets no honest vote, and a
    tamper directive naming one changes nothing."""
    net = make_net(3)
    proposal = net.propose("n1", Command("read", "drb", Role.DOCTOR, True, (("patient", "-1"), ("query", "latest"))))
    assert proposal.committed and proposal.outcome == "UnknownPatient"
    for text in (t for t in NOT_CANONICAL if " " not in t):  # a script line splits at spaces
        script = (
            "1 n1 onboard actor=reg role=authority code=FC001\n"
            f"2 n1 write actor=drb role=doctor patient={text} entry=blood_test:v\n"
            f"3 n2 tamper chain=red patient={text} index=1 field=place value=x\n"
            f"4 n2 tamper chain=red patient=1 index={text} field=place value=x\n"
        )
        lines = run_scenario(SimConfig(node_count=3, seed=1), script, CATALOG).splitlines()
        assert "REJECT seq=2 yes=1 n=3" in lines
        assert [line.rsplit(" ", 1)[1] for line in lines if line.startswith("TAMPER")] == ["status=error:ValueError"] * 2
        assert len({line.split("state=")[1] for line in lines if line.startswith("FINAL")}) == 1


def test_a_tamper_directive_whose_entry_index_is_not_canonical_changes_nothing():
    script = (
        "1 n1 onboard actor=reg role=authority code=FC001\n"
        "2 n1 write actor=drb role=doctor patient=1 entry=blood_test:v\n"
        "{}4 n1 read actor=drb role=doctor patient=1 query=latest\n"
    )
    tamper = "3 n2 tamper chain=yellow patient=1 index=1 field=entry.+0.payload value=forged\n"
    lines = run_scenario(SimConfig(node_count=3, seed=1), script.format(tamper), CATALOG).splitlines()
    assert "TAMPER tick=3 node=n2 chain=yellow patient=1 index=1 field=entry.+0.payload status=error:ValueError" in lines
    untampered = run_scenario(SimConfig(node_count=3, seed=1), script.format(""), CATALOG).splitlines()
    finals = [line for line in lines if line.startswith("FINAL")]
    assert finals == [line for line in untampered if line.startswith("FINAL")] and len(finals) == 3


def test_a_commit_applies_once_per_replica_and_clones_nothing(monkeypatch):
    net = make_net(15)
    net.propose("n1", ONBOARD)
    calls = Counter()
    for owner, name in ((Command, "apply"), (Ledger, "clone")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    proposal = net.propose("n2", WRITE)
    assert proposal.committed and proposal.confirmations == 15
    assert (calls["apply"], calls["clone"]) == (15, 0)


def test_a_committed_onboard_shares_one_identity_block_with_a_read_only_copy_of_personal_info(monkeypatch):
    """A commit parses its command once and hands the same arguments to
    every replica; the replicas build equal identity blocks and share the
    first replica's, which holds a read-only copy of personal_info that no
    later change to the parsed arguments reaches."""
    parsed = []
    original = Command.parse

    def recorded(self, place):
        parsed.append(original(self, place))
        return parsed[-1]

    monkeypatch.setattr(Command, "parse", recorded)
    net = make_net(5)
    assert net.propose("n1", ONBOARD).result == "patient:1"
    assert len(parsed) == 1
    info = parsed[0][2]
    info["name"] = "Eve"
    anchors = [node.replica.main_chain[1] for node in net.nodes.values()]
    assert len({id(blk) for blk in anchors}) == 1
    assert anchors[0].personal_info is not info
    for blk in anchors:
        assert dict(blk.personal_info) == {"name": "Mario"}
        with pytest.raises(TypeError):
            blk.personal_info["name"] = "Eve"
    assert all(verify_tree(node.replica) == [] for node in net.nodes.values())


def test_a_divergent_replica_does_not_stop_the_others_applying():
    """The genesis tamper on n2 makes its write fail while n1's succeeds;
    the commit still applies on every replica before the divergence is raised."""
    net = make_net(3)
    net.propose("n1", ONBOARD)
    net.tamper("n2", "main", 0, 0, "fiscal_code", "forged")
    before = {nid: len(node.replica.red[1]) for nid, node in net.nodes.items()}
    with pytest.raises(ReplicaDivergence, match="applying write on n2"):
        net.propose("n1", WRITE)
    assert {nid: len(node.replica.red[1]) for nid, node in net.nodes.items()} == {
        nid: n + 1 for nid, n in before.items()
    }


def test_random_scenarios_end_in_a_transcript_or_a_declared_divergence():
    """Drops, byzantine nodes, malformed commands, tampers and repairs on one
    to seven nodes: a script yields its transcript or stops with ReplicaDivergence."""
    for i in range(300):
        assert run_random_scenario(0, i).startswith(("CONFIG ", "ERROR ReplicaDivergence: "))


def _scenarios_script(*argv: str) -> subprocess.CompletedProcess:
    script = Path(__file__).parent / "scenarios.py"
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True, timeout=60)


def test_the_scenarios_script_prints_the_golden_digests_of_a_seed():
    """SRC SEED COUNT prints the first COUNT lines of the seed in
    scenario_digests.txt, without the seed prefix."""
    done = _scenarios_script(str(Path(medledger.__file__).parents[1]), "1", "5")
    golden = (GOLDEN / "scenario_digests.txt").read_text().splitlines()[:5]
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [line.removeprefix("1 ") for line in golden]


@pytest.mark.parametrize("argv", [(), ("SRC",), ("SRC", "01", "5"), ("SRC", "x", "5"), ("SRC", "1", "-1"), ("SRC", "1", "5", "6")])
def test_the_scenarios_script_refuses_bad_arguments_with_its_usage_line(argv):
    """A missing argument, an integer not written as str writes it, a
    negative COUNT or an extra argument: usage line, exit 2, no traceback."""
    src = str(Path(medledger.__file__).parents[1])
    done = _scenarios_script(*(src if arg == "SRC" else arg for arg in argv))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: python tests/scenarios.py SRC SEED COUNT") and "Traceback" not in done.stderr


# --- one seal per committed block -------------------------------------------------


class Replay:
    """A Network and, beside it, one Ledger per node that takes every step
    on its own and is never offered a block: an independent apply."""

    def __init__(self, config: SimConfig):
        self.net = Network(config, CATALOG)
        self.alone = {nid: Ledger.genesis(CATALOG) for nid in self.net.approved}

    def ledgers(self, node: str) -> tuple[Ledger, Ledger]:
        return self.net.nodes[node].replica, self.alone[node]

    def propose(self, proposer: str, command: Command) -> dict[str, list]:
        """Propose the command and apply it on the lone ledgers if it
        commits; then each replica must equal its lone ledger and every memo
        must equal block_hash recomputed. Returns the blocks each node
        appended."""
        before = {nid: {id(blk) for blk in every_block(node.replica)} for nid, node in self.net.nodes.items()}
        try:
            committed = self.net.propose(proposer, command).committed
        except NotAuthorized:
            committed = False
        except ReplicaDivergence:
            committed = True
        if committed:
            parsed = command.parse(proposer)
            for ledger in self.alone.values():
                try:
                    command.apply(ledger, parsed)
                except LedgerError:
                    pass
        appended = {}
        for nid, node in self.net.nodes.items():
            assert node.replica.snapshot_bytes() == self.alone[nid].snapshot_bytes(), nid
            assert all(blk.hash_memo in (None, block_hash(blk)) for blk in every_block(node.replica)), nid
            appended[nid] = [blk for blk in every_block(node.replica) if id(blk) not in before[nid]]
        return appended

    def step(self, step) -> None:
        """One step of a scenario script."""
        if step.verb == "tamper":
            arg = dict(step.params)
            where = (arg["chain"], int(arg["patient"]), int(arg["index"]), arg["field"], arg["value"])
            for ledger in self.ledgers(step.node) if step.node in self.alone else ():
                try:
                    ledger.tamper(*where)
                except (NoSuchBlock, ValueError):
                    pass
        elif step.verb == "audit-repair":
            assert self.net.audit_and_repair() == repair_replicas(self.alone)
        else:
            self.propose(step.node, step.command)


def _raw_tamper(node: str, *where):
    def tamper(replay: Replay) -> None:
        for ledger in replay.ledgers(node):
            ledger.tamper(*where)

    return tamper


def _clock_ahead(node: str, ticks: int):
    def bump(replay: Replay) -> None:
        for ledger in replay.ledgers(node):
            ledger.clock += ticks

    return bump


XRAY_WRITE = Command("write", "drb", Role.DOCTOR, True, (("patient", "1"), ("entry", "xray:v3")))
# a fault of n1, the replica applied first, whose sealed blocks the others are
# offered, and a command each of whose blocks it then builds differently
FIRST_REPLICA_FAULTS = {
    # the tips agree, but the typed backlink of the next xray entry does not
    "block-below-its-tip": (_raw_tamper("n1", "yellow", 1, 1, "entry.0.payload", "forged"), XRAY_WRITE),
    "clock": (_clock_ahead("n1", 3), Command("read", "drb", Role.DOCTOR, True, (("patient", "1"), ("query", "xray")))),
    # the genesis catalog no longer resolves, so n1 refuses the write
    "catalog": (_raw_tamper("n1", "main", 0, 0, "fiscal_code", "forged"), XRAY_WRITE),
}


@pytest.mark.parametrize("fault, command", list(FIRST_REPLICA_FAULTS.values()), ids=list(FIRST_REPLICA_FAULTS))
def test_a_replica_takes_the_first_replicas_block_only_where_it_built_an_equal_one(fault, command):
    """Honest replicas share the blocks of each commit with n1. After a
    fault of n1, each other replica seals its own blocks, which equal those
    of an independent apply."""
    replay = Replay(SimConfig(4))
    replay.propose("n1", ONBOARD)
    for entry in ("xray:v1", "blood_test:v2"):
        appended = replay.propose("n2", Command("write", "drb", Role.DOCTOR, True, (("patient", "1"), ("entry", entry))))
        assert len(appended["n1"]) == 2
        assert all(list(map(id, blocks)) == list(map(id, appended["n1"])) for blocks in appended.values())
    fault(replay)
    appended = replay.propose("n2", command)
    sealed_by = {nid: {id(blk) for blk in blocks} for nid, blocks in appended.items()}
    assert all(not a & b for a, b in itertools.combinations(sealed_by.values(), 2))
    assert appended["n2"] == appended["n3"] == appended["n4"] != appended["n1"]


def test_every_replica_equals_an_independent_apply_after_every_proposal():
    """Seeded scenarios (drops, byzantine nodes, malformed commands, raw
    tampers, repairs) with n1 sometimes pushed ahead in time: after every
    step each replica equals a ledger that applied every step on its own."""
    for index in range(40):
        config, script = scenario(4, index)
        replay = Replay(config)
        rng = random.Random(index)
        for step in parse_script(script):
            if rng.random() < 0.05:
                _clock_ahead("n1", rng.randint(1, 3))(replay)
            replay.step(step)
