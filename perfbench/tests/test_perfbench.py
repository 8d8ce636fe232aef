"""Tests of the benchmark itself: every workload runs at a tiny size, the
traced run counts what the ROADMAP baseline says, and every oracle check
fails when fed a wrong expectation or a tampered block.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import medledger.blocks as blocks_mod
import medledger.ledger as ledger_mod
import medledger.network as network_mod
from medledger.blocks import field_groups, mutate_block
from medledger.ledger import Ledger, verify_tree
from medledger.merkle import build_tree
from measure import end_to_end
from oracle import (
    LedgerModel,
    OracleError,
    check_digests_equal,
    check_ledger,
    check_repair,
    check_self_hash,
    check_tamper_reported,
    expect,
    merkle_root,
)
from reference import Meter
from tracing import Tracer, layer_metrics
from workloads import CATALOG, ClinicCli, LongHistory, ReplicatedSim, apply_plan, model_plan

BENCH = Path(__file__).resolve().parents[1]

TINY = {
    ClinicCli: dict(patients=6, close_every=3),
    ReplicatedSim: dict(patients=6, close_every=3, nodes=3),
    LongHistory: dict(patients=2, writes=30),
}


def tiny(cls, tmp_path, seed=7):
    wl = cls(seed, tmp_path / "work", **TINY[cls])
    wl.setup()
    wl.check_setup()
    return wl


@pytest.mark.parametrize("cls", list(TINY), ids=lambda c: c.name)
def test_workload_runs_checked_rounds_at_tiny_size(cls, tmp_path):
    wl = tiny(cls, tmp_path)
    meter = Meter()
    for r in (1, 2):
        wl.run_round(r, meter)
    kinds = [kind for kind, _, _ in meter.timeline]
    for kind, count in wl.mix.items():
        assert kinds.count(kind) == 2 * count
    assert kinds.count("verify") == 2 * wl.verify_passes
    assert kinds.count("repair") == 2
    assert len(meter.reference) == len(meter.timeline)


@pytest.mark.parametrize("cls", list(TINY), ids=lambda c: c.name)
def test_same_seed_same_inputs(cls, tmp_path):
    a = cls(3, tmp_path / "a", **TINY[cls])
    b = cls(3, tmp_path / "b", **TINY[cls])
    c = cls(4, tmp_path / "c", **TINY[cls])
    assert a.plan == b.plan != c.plan


def test_traced_counts_match_the_roadmap_baseline(tmp_path):
    wl = tiny(LongHistory, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        wl.run_round(1, Meter(tracer))
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer, 1.0, 0.0)
    assert m["blocks.block_hash_per_write"] == 8
    assert m["blocks.block_hash_per_read"] == 4
    assert m["merkle.sha256_per_op"] == 6 * m["blocks.block_hash_per_op"]
    assert m["ledger.clone_per_op"] == 0 and m["store.bytes_written_per_op"] == 0

    sim = tiny(ReplicatedSim, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        sim.run_round(1, Meter(tracer))
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer, 1.0, 0.0)
    assert m["network.applies_per_commit"] == 2 * sim.nodes - 1
    assert m["ledger.clone_per_op"] == sim.nodes - 1


def test_traced_clinic_run_measures_the_store(tmp_path):
    wl = tiny(ClinicCli, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        wl.run_round(1, Meter(tracer))
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer, 1.0, 0.0)
    assert m["store.bytes_written_per_op"] > 0 and m["store.bytes_read_per_op"] > 0
    assert m["store.write_amplification"] > 1  # persist rewrites the whole store
    assert m["cli.self_ms_per_op"] > 0 and m["network.applies_per_commit"] == 0
    tracer.write(tmp_path / "trace.jsonl.gz")


def test_install_patches_every_binding_and_uninstall_restores_them():
    original = blocks_mod.block_hash
    tracer = Tracer()
    tracer.install()
    try:
        assert ledger_mod.block_hash is blocks_mod.block_hash is network_mod.block_hash
        assert blocks_mod.block_hash is not original
        assert "medledger.ledger.block_hash" in tracer.bindings()
    finally:
        tracer.uninstall()
    assert ledger_mod.block_hash is blocks_mod.block_hash is network_mod.block_hash is original


# --- the oracle rejects wrong expectations and tampered blocks ------------------------


def small_ledger() -> tuple[Ledger, LedgerModel]:
    wl = LongHistory(1, Path("."), patients=2, writes=6)
    ledger = Ledger.genesis(CATALOG)
    apply_plan(ledger, wl.plan)
    return ledger, model_plan(wl.plan)


def test_check_ledger_rejects_a_wrong_model():
    ledger, model = small_ledger()
    check_ledger(model, ledger)
    wrong = model.copy()
    wrong.patients[1].blocks[0] = (("xray", b"not written"),)
    with pytest.raises(OracleError, match="medical blocks"):
        check_ledger(wrong, ledger)
    wrong = model.copy()
    wrong.refuse(2)  # expects one more log than the program appended
    with pytest.raises(OracleError, match="log blocks"):
        check_ledger(wrong, ledger)


def test_model_read_and_report_are_a_linear_scan():
    model = LedgerModel()
    p = model.onboard("X")
    model.write(p, [("a", b"1"), ("b", b"2"), ("a", b"3")])
    model.write(p, [("a", b"4")])
    hits, log = model.read(p, "a")
    assert hits == [("1.1", "a", b"1"), ("1.1", "a", b"3"), ("1.2", "a", b"4")] and log == "1.2.3"
    assert model.read(p, "latest")[0] == [("1.2", "a", b"4")]
    assert model.report(p, "a") == [("1.2", b"4"), ("1.1", b"3"), ("1.1", b"1")]
    model.close(p)
    assert model.read(p, "latest")[0] == [("1.2", "a", b"4")]


def test_merkle_root_matches_the_program_and_catches_a_tampered_block():
    for n in range(1, 6):
        leaves = [bytes([i]) * (i + 1) for i in range(n)]
        assert merkle_root(leaves) == build_tree(leaves).root
    ledger, _ = small_ledger()
    block = ledger.yellow[1][0]
    check_self_hash(block, field_groups)
    with pytest.raises(OracleError, match="self_hash"):
        check_self_hash(mutate_block(block, "entry.0.payload", "forged"), field_groups)
    with pytest.raises(OracleError, match="self_hash"):
        check_self_hash(replace(block, self_hash=bytes(32)), field_groups)


def test_repair_and_tamper_checks_reject_wrong_reports():
    expected = {("n2", "yellow", "1.1")}
    check_repair(expected, [("replaced", "n2", "yellow", "1.1")])
    for entries in (
        [],
        [("replaced", "n3", "yellow", "1.1")],
        [("replaced", "n2", "yellow", "1.1"), ("replaced", "n2", "red", "1.1")],
        [("replaced", "n2", "yellow", "1.1"), ("unrepairable", "*", "red", "1.1")],
    ):
        with pytest.raises(OracleError):
            check_repair(expected, entries)

    ledger, _ = small_ledger()
    ledger.yellow[1][1] = mutate_block(ledger.yellow[1][1], "entry.0.payload", "forged")
    found = [(v.chain, v.coord, v.check) for v in verify_tree(ledger)]
    check_tamper_reported(found, "YELLOW", "1.2")
    with pytest.raises(OracleError, match="not reported"):
        check_tamper_reported(found, "YELLOW", "1.1")
    with pytest.raises(OracleError):
        check_digests_equal("x", {"n1": "aa", "n2": "ab"})
    with pytest.raises(OracleError):
        expect("x", 1, 2)


@pytest.mark.parametrize(
    "target, fault",
    [
        # reports oldest first instead of newest first
        ("assemble_report", lambda orig: lambda self, *a: list(reversed(orig(self, *a)))),
        # a read that drops its last match
        ("read_record", lambda orig: lambda self, *a: (lambda m, log: (m[:-1], log))(*orig(self, *a))),
        # a refused attempt that leaves no log block
        ("_fail", lambda orig: lambda self, *a: None),
    ],
    ids=["report_order", "read_drops_entry", "refusal_without_log"],
)
def test_workload_round_catches_a_faulty_program(target, fault, tmp_path, monkeypatch):
    wl = tiny(LongHistory, tmp_path)
    monkeypatch.setattr(Ledger, target, fault(getattr(Ledger, target)))
    with pytest.raises(OracleError):
        for r in range(1, 4):
            wl.run_round(r, Meter())


def test_round_catches_a_repair_that_names_too_much(tmp_path, monkeypatch):
    wl = tiny(LongHistory, tmp_path)
    real = network_mod.repair_replicas
    monkeypatch.setattr(
        network_mod,
        "repair_replicas",
        lambda replicas: real(replicas) + [network_mod.RepairEntry("r0", "main", "0", "replaced")],
    )
    with pytest.raises(OracleError, match="repair"):
        wl.run_round(1, Meter())


def test_end_to_end_needs_ten_samples_beyond_the_tail():
    samples = defaultdict(list, {k: [0.001] * 5 for k in ("setup", "write", "read", "report", "verify", "repair")})
    with pytest.raises(RuntimeError, match="beyond"):
        end_to_end(samples)
    samples["read"] = [0.001 * (i + 1) for i in range(100)]  # 110 access ops
    m = end_to_end(samples)
    # rank ceil(0.9 * 110) = 99 of: eleven 1 ms samples, then 2, 3, ... 100 ms
    assert m["latency_tail_ms"] == pytest.approx(89)
    assert m["ops_per_s"] == pytest.approx(110 / (0.01 + sum(samples["read"])))


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_history", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
