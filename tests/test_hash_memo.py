"""The per-block hash memo: sound for every block object, never trusted by
verification or repair, and the source of the per-operation hash counts."""

import importlib.util
from pathlib import Path

import pytest

from medledger import blocks, merkle
from medledger.blocks import IdentityBlock, LogBlock, MedicalBlock, block_hash, cached_hash, mutate_block
from medledger.ledger import Ledger, verify_tree
from medledger.network import Command, Network, SimConfig, repair_replicas
from medledger.store import load, load_raw, persist

from helpers import (
    AUTHORITY,
    CATALOG,
    DOCTOR,
    block_mutations,
    build_store,
    count_calls,
    counted,
    criterion7_ledger,
    every_block,
    forged_log_replicas,
    long_history_ledger,
)


def set_memo(block, digest: bytes) -> None:
    object.__setattr__(block, "hash_memo", digest)


# --- soundness -------------------------------------------------------------------


def test_cached_hash_of_every_mutation_recomputes():
    ledger = criterion7_ledger(42)
    checked = 0
    for block in every_block(ledger):
        assert cached_hash(block) == block_hash(block) == block.self_hash
        for field_name, mutated in block_mutations(block):
            assert mutated.hash_memo is None, field_name
            assert cached_hash(mutated) == block_hash(mutated), field_name
            checked += 1
    assert checked == 384  # the lines of tests/golden/tree_checks.txt


def test_a_tamper_makes_a_block_with_an_empty_memo():
    ledger = criterion7_ledger(42)
    target = ledger.yellow[1][0]
    assert target.hash_memo == target.self_hash  # sealed blocks carry their hash
    ledger.tamper("yellow", 1, 1, "entry.0.payload", "forged")
    forged = ledger.yellow[1][0]
    assert forged.hash_memo is None
    assert cached_hash(forged) == block_hash(forged) != target.self_hash
    info = mutate_block(ledger.main_chain[1], "info.name", "forged")
    assert info.hash_memo is None and cached_hash(info) == block_hash(info)


def test_personal_info_is_read_only_and_copied():
    info = {"name": "Mario"}
    ledger = Ledger.genesis(CATALOG)
    p = ledger.onboard_patient(AUTHORITY, "FC001", info)
    block = ledger.main_chain[p]
    with pytest.raises(TypeError):
        block.personal_info["name"] = "Luigi"
    info["name"] = "Luigi"  # the caller's dict is not the block's
    assert dict(block.personal_info) == {"name": "Mario"}
    assert block_hash(block) == block.self_hash


# --- verification and repair recompute ----------------------------------------------


def test_verify_tree_never_trusts_the_memo():
    ledger = criterion7_ledger(42)
    ledger.tamper("yellow", 1, 1, "entry.0.payload", "forged")
    expected = verify_tree(ledger)
    assert any(v.check == "self_hash" and v.coord == "1.1" for v in expected)
    forged = ledger.yellow[1][0]
    set_memo(forged, forged.self_hash)  # a memo that hides the forgery
    set_memo(ledger.red[2][0], bytes(32))  # a wrong memo on an intact block
    set_memo(ledger.main_chain[0], bytes(32))
    assert verify_tree(ledger) == expected


def _replicas(forge: tuple[str, ...], memo: bool) -> dict[str, Ledger]:
    base = criterion7_ledger(42)
    replicas = {nid: base.clone() for nid in ("n1", "n2", "n3")}
    for nid in forge:
        replicas[nid].tamper("yellow", 1, 1, "entry.0.payload", "forged")
        if memo:
            forged = replicas[nid].yellow[1][0]
            set_memo(forged, forged.self_hash)
    if memo:
        set_memo(base.yellow[1][0], bytes(32))  # the honest version, shared by the clones
    return replicas


@pytest.mark.parametrize(
    "forge, action",
    [(("n3",), "replaced"), (("n2", "n3"), "unrepairable")],
    ids=["honest-majority", "forged-majority"],
)
def test_repair_replicas_never_trusts_the_memo(forge, action):
    expected = [str(e) for e in repair_replicas(_replicas(forge, memo=False))]
    assert len(expected) == 1 and expected[0].startswith(action)
    assert [str(e) for e in repair_replicas(_replicas(forge, memo=True))] == expected


def _count_reindexes(monkeypatch) -> list[Ledger]:
    reindexed: list[Ledger] = []
    original = Ledger._recompute_derived

    def counting(self):
        reindexed.append(self)
        return original(self)

    monkeypatch.setattr(Ledger, "_recompute_derived", counting)
    return reindexed


def test_repair_compares_values_and_hashes_only_the_candidate(monkeypatch):
    replicas = _replicas(("n3",), memo=False)
    calls = [count_calls(monkeypatch, f) for f in (blocks.encode_record, blocks.decode_record, blocks.block_hash)]
    reindexed = _count_reindexes(monkeypatch)
    report = repair_replicas(replicas)
    assert [str(e) for e in report] == ["replaced node=n3 chain=yellow coord=1.1"]
    assert [c[0] for c in calls] == [0, 0, 1]
    assert reindexed == []
    assert replicas["n3"].yellow[1][0] is replicas["n1"].yellow[1][0]


def test_repair_reindexes_each_replica_given_main_blocks_once(monkeypatch):
    """A replica given main-chain blocks is reindexed whole once, however
    many other chains of it the repair heals; a replica given subchain
    blocks alone is not reindexed."""
    base = criterion7_ledger(42)
    replicas = {f"n{k}": base.clone() for k in range(1, 6)}
    for nid in ("n4", "n5"):
        replicas[nid].tamper("main", 0, 1, "info.name", "forged")
    for nid in ("n3", "n5"):
        replicas[nid].tamper("yellow", 1, 1, "entry.0.payload", "forged")
    reindexed = _count_reindexes(monkeypatch)
    report = repair_replicas(replicas)
    assert [str(e) for e in report] == [
        "replaced node=n4 chain=main coord=1",
        "replaced node=n5 chain=main coord=1",
        "replaced node=n3 chain=yellow coord=1.1",
        "replaced node=n5 chain=yellow coord=1.1",
    ]
    assert len(reindexed) == 2 and set(reindexed) == {replicas["n4"], replicas["n5"]}


def test_repair_of_one_forged_log_compares_block_values_a_constant_number_of_times(monkeypatch):
    """The vote runs only where a replica holds a different block object,
    so a history 30 times longer costs no more value comparisons."""
    compares = [0]
    for cls in (IdentityBlock, MedicalBlock, LogBlock):

        def counting(self, other, original=cls.__eq__):
            compares[0] += 1
            return original(self, other)

        monkeypatch.setattr(cls, "__eq__", counting)
    counts = []
    for writes in (40, 1200):
        replicas = forged_log_replicas(long_history_ledger(writes))
        compares[0] = 0
        report = repair_replicas(replicas)
        counts.append(compares[0])
        assert [e.action for e in report] == ["replaced"]
        assert replicas["n3"].red[1] == replicas["n1"].red[1]
    assert counts[0] == counts[1] <= 4


@pytest.mark.parametrize("copies", ["clones", "loaded"])
def test_repair_of_identical_replicas_hashes_and_reindexes_nothing(monkeypatch, tmp_path, copies):
    base = criterion7_ledger(42)
    if copies == "clones":
        replicas = {nid: base.clone() for nid in ("n1", "n2", "n3")}
    else:
        persist(base, tmp_path)
        replicas = {nid: load_raw(tmp_path) for nid in ("n1", "n2", "n3")}
    hashes = count_calls(monkeypatch, blocks.block_hash)
    reindexed = _count_reindexes(monkeypatch)
    assert repair_replicas(replicas) == []
    assert hashes[0] == 0 and reindexed == []


# --- hash counts per operation ---------------------------------------------------------


@pytest.fixture
def hash_calls(monkeypatch) -> list[int]:
    return count_calls(monkeypatch, blocks.block_hash)


def _ledger_with(patients: int) -> Ledger:
    ledger = Ledger.genesis(CATALOG)
    for i in range(patients):
        ledger.onboard_patient(AUTHORITY, f"FC{i:05d}", {"name": f"n{i}"})
    ledger.update_catalog(AUTHORITY, [("mri", "MRI scan")])
    for _ in range(3):
        ledger.write_record(DOCTOR, 1, [("blood_test", b"v"), ("xray", b"x")])
        ledger.read_record(DOCTOR, 1, "latest")
    return ledger


OPS = {
    "write": lambda led: led.write_record(DOCTOR, 1, [("blood_test", b"w"), ("mri", b"m")]),
    "close": lambda led: led.close_subchain(AUTHORITY, 2),
    "read": lambda led: led.read_record(DOCTOR, 1, "blood_test"),
    "report": lambda led: led.assemble_report(DOCTOR, 1, "blood_test"),
    "onboard": lambda led: led.onboard_patient(AUTHORITY, "FC-NEW", {}),
    "change-code": lambda led: led.change_fiscal_code(AUTHORITY, 1, "FC-CHANGED"),
    "catalog-add": lambda led: led.update_catalog(AUTHORITY, [("ecg2", "ECG 2")]),
}
# one hash per block an operation seals: the new medical or identity block
# and the access log; every block it links to is memoized
EXPECTED = {"write": 2, "close": 2, "read": 1, "report": 1, "onboard": 1, "change-code": 2, "catalog-add": 1}


@pytest.mark.parametrize("patients", [10, 1000])
def test_block_hash_calls_per_operation_are_flat_in_patients_and_history(hash_calls, patients):
    ledger = _ledger_with(patients)
    counts = {}
    for verb, op in OPS.items():
        before = hash_calls[0]
        op(ledger)
        counts[verb] = hash_calls[0] - before
    assert counts == EXPECTED
    assert verify_tree(ledger) == []


@pytest.fixture(scope="module")
def long_history() -> Ledger:
    return long_history_ledger()


@pytest.mark.parametrize("record_type", [code for code, _ in CATALOG])
def test_a_report_and_a_typed_read_hash_only_their_log_links(monkeypatch, long_history, record_type):
    ledger = long_history.clone()
    holders = sum(any(e.record_type == record_type for e in blk.entries) for blk in ledger.yellow[1])
    assert 300 < holders < len(ledger.yellow[1])
    calls = count_calls(monkeypatch, cached_hash)
    report = ledger.assemble_report(DOCTOR, 1, record_type)
    # the three links of the log block, whatever the number of holders: the
    # type index checked the holders' links once, when it was built
    assert calls[0] == 3
    assert len(report) == holders
    calls[0] = 0
    matches, _ = ledger.read_record(DOCTOR, 1, record_type)
    assert calls[0] == 3
    assert len(matches) == holders


@pytest.mark.parametrize("nodes", [1, 3, 5, 15])
def test_a_committed_proposal_seals_each_block_it_appends_once(nodes):
    """Whatever the node count, the block_hash calls of a committed
    proposal equal the blocks it appends on one replica: 2 for a write, 1
    for a read, a report or a write the catalog refuses."""
    net = Network(SimConfig(nodes, seed=1), CATALOG)
    net.propose("n1", Command("onboard", AUTHORITY.actor_id, AUTHORITY.role, True, (("code", "FC00001"),)))
    replica = net.nodes["n1"].replica
    for verb, arg, appended in (
        ("write", ("entry", "xray:v"), 2),
        ("read", ("query", "xray"), 1),
        ("report", ("type", "xray"), 1),
        ("write", ("entry", "unknown:v"), 1),
    ):
        before = len(every_block(replica))
        command = Command(verb, DOCTOR.actor_id, DOCTOR.role, True, (("patient", "1"), arg))
        assert counted(net.propose, blocks.block_hash, fresh=lambda: ("n1", command)) == {"blocks.block_hash": appended}
        assert len(every_block(replica)) - before == appended


# --- perfbench's tracer counts what counted counts ---------------------------------


def perfbench_tracer():
    """A Tracer of perfbench/tracing.py, imported by path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def traced(fn, fresh) -> dict[str, int]:
    """The decode_record and block_hash spans and the merkle.sha256 count of
    perfbench's Tracer in one call of fn(*fresh()); fresh() is not traced."""
    args = fresh()
    tracer = perfbench_tracer()
    tracer.install()
    try:
        tracer.begin_op(0, "op")
        fn(*args)
    finally:
        tracer.uninstall()
    spans = tracer.aggregate()
    counts = {name: spans.get((name, "op"), [0])[0] for name in ("blocks.decode_record", "blocks.block_hash")}
    return counts | {"merkle.sha256": tracer.counts[("merkle.sha256", "op")]}


def test_perfbench_tracer_counts_the_calls_that_counted_counts(tmp_path):
    """perfbench's Tracer and helpers.counted both replace every binding of
    a function in medledger: on a verified load of a persisted
    build_store(20), on a 15-node propose of a write and on one of an
    onboard with an invalid credential, they count the same decode_record,
    block_hash and merkle.sha256 calls. The refused onboard hashes one audit
    note in all: the first replica seals it, and the others take it as they
    take a committed block."""
    persist(build_store(20), tmp_path)

    def onboarded_network() -> tuple:
        net = Network(SimConfig(15, seed=1), CATALOG)
        net.propose("n1", Command("onboard", AUTHORITY.actor_id, AUTHORITY.role, True, (("code", "FC00001"),)))
        return net, "n1", Command("write", DOCTOR.actor_id, DOCTOR.role, True, (("patient", "1"), ("entry", "xray:v")))

    originals = (blocks.decode_record, blocks.block_hash, merkle.sha256)
    loaded = traced(load, lambda: (tmp_path,))
    assert loaded == counted(load, *originals, fresh=lambda: (tmp_path,))
    assert loaded == {"blocks.decode_record": 321, "blocks.block_hash": 0, "merkle.sha256": 1927}
    proposed = traced(Network.propose, onboarded_network)
    assert proposed == counted(Network.propose, *originals, fresh=onboarded_network)
    assert proposed == {"blocks.decode_record": 0, "blocks.block_hash": 2, "merkle.sha256": 12}

    def refused_onboard() -> tuple:
        invalid = Command("onboard", "eve", AUTHORITY.role, False, (("code", "FC00001"),))
        return Network(SimConfig(15, seed=1), CATALOG), "n1", invalid

    noted = traced(Network.propose, refused_onboard)
    assert noted == counted(Network.propose, *originals, fresh=refused_onboard)
    assert noted == {"blocks.decode_record": 0, "blocks.block_hash": 0, "merkle.sha256": 1}
