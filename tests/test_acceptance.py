"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from medledger.blocks import IdentityVariant, block_hash
from medledger.errors import StorageError, SubchainClosed
from medledger.ledger import verify_tree
from medledger.merkle import build_tree, prove, serialize_proof, verify
from medledger.network import Command, Network, SimConfig, quorum_commits, run_scenario
from medledger.store import load, persist
from medledger.ledger import Role

from helpers import (
    AUTHORITY,
    CATALOG,
    DOCTOR,
    block_mutations,
    criterion7_ledger,
    drive,
    fresh_ledger,
    scan_report_oracle,
)

GOLDEN = Path(__file__).parent / "golden"


def ok(criterion: int, text: str) -> None:
    print(f"ACCEPT-{criterion:02d} PASS {text}")


def test_criterion_01_proof_size_bound():
    tree = build_tree([b"L1", b"L2", b"L3", b"L4", b"L5"])
    sizes = [len(serialize_proof(prove(tree, i))) for i in range(5)]
    assert sizes == [103] * 5
    assert all(size <= 140 for size in sizes)
    ok(1, f"5-leaf proof serializes to {sizes[0]} bytes <= 140")


def test_criterion_02_round_trip_and_soundness():
    rng = random.Random(2024)
    checked = flipped = 0
    for _ in range(100):
        leaves = [rng.randbytes(rng.randint(1, 32)) for _ in range(rng.randint(1, 64))]
        tree = build_tree(leaves)
        for i, payload in enumerate(leaves):
            assert verify(payload, prove(tree, i), tree.root)
            checked += 1
    for _ in range(100):
        leaves = [rng.randbytes(rng.randint(1, 32)) for _ in range(rng.randint(1, 64))]
        tree = build_tree(leaves)
        i = rng.randrange(len(leaves))
        mutated = bytearray(leaves[i])
        bit = rng.randrange(len(mutated) * 8)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not verify(bytes(mutated), prove(tree, i), tree.root)
        flipped += 1
    ok(2, f"{checked} proofs verified, {flipped}/100 single-bit mutations rejected")


def test_criterion_03_odd_duplication_conformance():
    import hashlib

    H = lambda data: hashlib.sha256(data).digest()
    tree = build_tree([b"L1", b"L2", b"L3", b"L4", b"L5"])
    assert tree.levels[1][2] == H(H(b"L5") + H(b"L5"))
    ok(3, "5-leaf level-1 tail equals hash(hash(L5) ++ hash(L5))")


def test_criterion_04_quorum_law_exhaustive():
    for n in range(2, 10):
        for c in range(0, n + 1):
            assert quorum_commits(c, n) == (Fraction(c, n) > Fraction(51, 100)), (c, n)
    ok(4, "commit iff c/N > 51/100 for every N in 2..9 and every c")


def _network_with_history(n=5) -> Network:
    net = Network(SimConfig(node_count=n, seed=11), CATALOG)
    net.propose("n1", Command("onboard", "reg", Role.AUTHORITY, True,
                              (("code", "FC001"), ("info.name", "Mario"))))
    net.propose("n2", Command("write", "drb", Role.DOCTOR, True,
                              (("patient", "1"), ("entry", "blood_test:v1"))))
    net.propose("n3", Command("read", "drb", Role.DOCTOR, True,
                              (("patient", "1"), ("query", "latest"))))
    return net


def test_criterion_05_tamper_and_repair():
    # one tampered node of five: full convergence
    net = _network_with_history()
    net.tamper("n3", "yellow", 1, 1, "entry.0.payload", "forged")
    report = net.audit_and_repair()
    assert all(e.action == "replaced" for e in report)
    digests = {node.replica.state_digest() for node in net.nodes.values()}
    assert len(digests) == 1

    # two tampered nodes: honest 3/5 still repairs
    net = _network_with_history()
    net.tamper("n2", "yellow", 1, 1, "entry.0.payload", "forged-a")
    net.tamper("n4", "red", 1, 2, "actor", "impostor")
    report = net.audit_and_repair()
    assert sorted({e.node for e in report}) == ["n2", "n4"]
    assert all(e.action == "replaced" for e in report)
    assert len({node.replica.state_digest() for node in net.nodes.values()}) == 1

    # three identical tampers: honest minority, unrepairable and reported
    net = _network_with_history()
    honest = net.nodes["n1"].replica.snapshot_bytes()
    for nid in ("n2", "n3", "n4"):
        net.tamper(nid, "yellow", 1, 1, "entry.0.payload", "same-forgery")
    report = net.audit_and_repair()
    assert [e.action for e in report] == ["unrepairable"]
    assert net.nodes["n1"].replica.snapshot_bytes() == honest
    assert net.nodes["n5"].replica.snapshot_bytes() == honest
    ok(5, "1 and 2 tampered nodes repaired to bit-identical replicas; 3 identical tampers reported unrepairable")


def test_criterion_06_lifecycle_conformance():
    script = (GOLDEN / "lifecycle.script").read_text()
    transcript = run_scenario(
        SimConfig(node_count=5, seed=7), script, (("blood_test", "Blood test"), ("xray", "X-ray"))
    )
    assert "outcome=SubchainClosed" in transcript  # the post-close write was refused
    net = Network(SimConfig(node_count=5, seed=7), (("blood_test", "Blood test"), ("xray", "X-ray")))
    from medledger.network import parse_script

    for step in parse_script(script):
        net.propose(step.node, step.command)
    for node in net.nodes.values():
        replica = node.replica
        assert verify_tree(replica) == []
        assert 1 in replica.closed
        with pytest.raises(SubchainClosed):
            replica.clone().write_record(DOCTOR, 1, [("blood_test", b"x")])
        assert len(replica.red[1]) > len(replica.yellow[1])
    ok(6, "scripted lifecycle ends verified, closed to writes, red chain longer than yellow")


def test_criterion_07_triple_cross_hash_lock():
    ledger = criterion7_ledger(seed=42)
    assert verify_tree(ledger) == []
    targets = [("main", 0, i, blk) for i, blk in enumerate(ledger.main_chain)]
    for p in ledger.patients():
        targets += [("yellow", p, j, blk) for j, blk in enumerate(ledger.yellow[p])]
        targets += [("red", p, k, blk) for k, blk in enumerate(ledger.red[p])]
    assert len(targets) >= 40
    mutations = cross_required = cross_seen = 0
    for chain, p, pos, blk in targets:
        lineage_identity = chain == "main" and blk.variant in (
            IdentityVariant.PATIENT,
            IdentityVariant.FISCAL_CHANGE,
        )
        needs_cross = lineage_identity or chain == "yellow"
        for field_name, mutated in block_mutations(blk):
            work = ledger.clone()
            if chain == "main":
                work.main_chain[pos] = mutated
            elif chain == "yellow":
                work.yellow[p][pos] = mutated
            else:
                work.red[p][pos] = mutated
            violations = verify_tree(work)
            assert violations, (chain, p, pos, field_name)
            mutations += 1
            if needs_cross and field_name != "self_hash":
                cross_required += 1
                assert any(v.check.startswith("cross") for v in violations), (
                    chain, p, pos, field_name,
                )
                cross_seen += 1
    assert cross_seen == cross_required > 0
    ok(7, f"{mutations} single-field mutations all detected; {cross_seen} identity/yellow mutations broke a log cross-hash")


def test_criterion_08_report_oracle_on_200_random_sequences():
    rng = random.Random(808)
    sequences = 0
    for _ in range(200):
        ledger = fresh_ledger()
        drive(ledger, rng, rng.randint(5, 15))
        for p in ledger.patients():
            types = {e.record_type for blk in ledger.yellow[p] for e in blk.entries}
            for record_type in sorted(types | {"unrecorded_type"}):
                expected = scan_report_oracle(ledger, p, record_type)
                assert ledger.assemble_report(DOCTOR, p, record_type) == expected
        sequences += 1
    ok(8, f"assemble_report matched the linear-scan oracle on {sequences} random sequences")


def test_criterion_09_persistence_round_trip_and_corruption_sweep(tmp_path):
    from medledger.errors import AccessDenied
    from helpers import INVALID

    ledger = fresh_ledger()
    p = ledger.onboard_patient(AUTHORITY, "FC001", {"name": "Mario"})
    ledger.write_record(DOCTOR, p, [("blood_test", b"v1")])
    ledger.read_record(DOCTOR, p, "latest")
    with pytest.raises(AccessDenied):
        ledger.onboard_patient(INVALID, "FC002", {})  # populates audit.global
    persist(ledger, tmp_path)

    def hashes(state):
        out = [block_hash(blk) for blk in state.main_chain]
        for q in sorted(state.yellow):
            out += [block_hash(blk) for blk in state.yellow[q] + state.red[q]]
        return out

    assert hashes(load(tmp_path)) == hashes(ledger)

    files = {path: path.read_bytes() for path in sorted(tmp_path.iterdir())}
    corruptions = 0
    for path, original in files.items():
        for offset in range(len(original)):
            byte = original[offset]
            values = {byte ^ 0x01, byte ^ 0x80, 0x00, 0xFF} - {byte}
            for value in sorted(values):
                mutated = bytearray(original)
                mutated[offset] = value
                path.write_bytes(bytes(mutated))
                with pytest.raises(StorageError):
                    load(tmp_path)
                corruptions += 1
        path.write_bytes(original)
    assert load(tmp_path).snapshot_bytes() == ledger.snapshot_bytes()
    ok(9, f"round trip preserved all hashes; {corruptions} single-byte corruptions across every offset all detected")


def test_criterion_10_transcript_determinism():
    script = (GOLDEN / "lifecycle.script").read_text()
    config = SimConfig(node_count=5, seed=7, drop_rate=0.15)
    first = run_scenario(config, script, CATALOG)
    second = run_scenario(config, script, CATALOG)
    assert first.encode() == second.encode()
    ok(10, "identical (seed, script) produced byte-identical transcripts across two runs")
