"""Command-line surface: exit codes, output stability, differential
equivalence with the library, lock behavior."""

import fcntl
import os
import select
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from medledger import store
from medledger.blocks import AccessEvent
from medledger.cli import main
from medledger.errors import CorruptChain
from medledger.ledger import Credential, Ledger, Role

import bench_layers
from helpers import CATALOG, GOLDEN, count_calls, empty_code_ledger, store_image

NOT_CANONICAL = ("1_0", "+1", " 1", "01", "\u0663")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def init_ledger(tmp_path, capsys) -> str:
    d = str(tmp_path / "ledger")
    code, _ = run(
        capsys, "init", "--dir", d,
        "--catalog", "blood_test:Blood test", "--catalog", "xray:X-ray", "--catalog", "ecg:ECG",
    )
    assert code == 0
    return d


def test_verify_on_fresh_ledger_reports_ok(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    code, out = run(capsys, "verify", "--dir", d)
    assert code == 0
    assert out.strip() == "OK 0 violations"


def test_write_after_close_exits_1_and_grows_red(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority",
        "--code", "FC001", "--info", "name=Mario")
    run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor",
        "--patient", "1", "--entry", "blood_test:v1")
    run(capsys, "close", "--dir", d, "--actor", "reg", "--role", "authority", "--patient", "1")
    red_before = len(store.load(d).red[1])
    code, out = run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor",
                    "--patient", "1", "--entry", "blood_test:late")
    assert code == 1
    assert "SubchainClosed" in out
    after = store.load(d)
    assert len(after.red[1]) == red_before + 1
    code, out = run(capsys, "verify", "--dir", d)
    assert code == 0  # failed attempt is part of the record, tree still intact


def test_invalid_credential_exits_1(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    code, out = run(capsys, "onboard", "--dir", d, "--actor", "eve", "--role", "authority",
                    "--no-valid", "--code", "FC666")
    assert code == 1 and "AccessDenied" in out


def test_a_repeated_info_key_exits_2_and_changes_nothing(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    before = store_image(d)
    assert main(["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001",
                 "--info", "name=a", "--info", "name=b"]) == 2
    assert capsys.readouterr().err == "ERROR CommandError: key 'info.name' given more than once\n"
    assert store_image(d) == before


def test_the_empty_actor_never_reads_a_stored_record_kept_under_the_empty_code(tmp_path, capsys):
    d = tmp_path / "ledger"
    store.create(empty_code_ledger(), d)
    before = store.load(d).red[1]
    code, out = run(capsys, "read", "--dir", str(d), "--actor", "", "--role", "patient",
                    "--patient", "1", "--query", "latest")
    assert code == 1 and "AccessDenied" in out and "secret" not in out
    after = store.load(d).red[1]
    assert after[:-1] == before and len(after) == len(before) + 1
    assert (after[-1].event, after[-1].viewed) == (AccessEvent.FAILED_ATTEMPT, "DENIED:read:role_patient")


def test_unknown_arguments_exit_2(tmp_path, capsys):
    for argv in (["frobnicate"], ["audit-repair", "--dirs", str(tmp_path), "--threshold", "40"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["write", "--dir", "void", "--actor", "drb", "--role", "doctor", "--patient", "1",
     "--entry", "blood_test:v1"],
    ["tamper", "--dir", "void", "--chain", "main", "--index", "0", "--field", "place",
     "--value", "x"],
    ["audit-repair", "--dirs", "void", "void2", "void3"],
    ["verify", "--dir", "void"],
])
def test_a_missing_ledger_dir_is_refused_and_not_created(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "no ledger at" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tamper_then_verify_exits_1_with_violation_lines(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority",
        "--code", "FC001", "--info", "name=Mario")
    run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor",
        "--patient", "1", "--entry", "blood_test:v1")
    code, _ = run(capsys, "tamper", "--dir", d, "--chain", "red", "--patient", "1",
                  "--index", "1", "--field", "timestamp", "--value", "-1")
    assert code == 2  # the block encoding cannot hold a negative timestamp
    code, _ = run(capsys, "tamper", "--dir", d, "--chain", "main", "--index", "0",
                  "--field", "hash_memo", "--value", "00" * 32)
    assert code == 2  # the hash memo is not a field of the stored block
    code, out = run(capsys, "tamper", "--dir", d, "--chain", "yellow", "--patient", "1",
                    "--index", "1", "--field", "entry.0.payload", "--value", "forged")
    assert code == 0
    code, out = run(capsys, "verify", "--dir", d)
    assert code == 1
    assert "YELLOW 1.1 self_hash" in out
    assert out.strip().endswith("violations")


# the payload of block 1's entry, exactly as long as a digest
PAYLOAD = "hb 13.9 g/dL; wbc 6.1; plt 250k."
# "chain field value" of a tamper of block 1 (patient 1) -> (exit code, the
# field's value as a raw load reads it back, or the error after the store path)
TAMPERS = {
    "bool": ("yellow is_final false", 0, False),
    "bad-bool": ("yellow is_final maybe", 2, "not a boolean: 'maybe'"),
    "payload-text": ("yellow entry.0.payload forged", 0, b"forged"),
    "payload-hex-text": (f"yellow entry.0.payload {'ab' * 32}", 0, b"ab" * 32),
    "unlinked-backlink": (f"yellow entry.0.prev_same_type {'ab' * 32}", 0, bytes.fromhex("ab" * 32)),
    "event": ("red event read", 0, AccessEvent.READ),
    "bad-event": ("red event bogus", 2, "unknown access event 'bogus'"),
    "bad-variant": ("main variant bogus", 2, "unknown identity variant 'bogus'"),
    "short-digest": ("yellow prev_yellow 00", 2, "digest value must be 32 hex bytes"),
    "coord": ("yellow coord 1", 2, "cannot parse a value for field of type BlockCoord"),
    "signed-entry": ("yellow entry.+0.payload forged", 2, "'+0' is not an integer"),
    "padded-entry": ("yellow entry.00.payload forged", 2, "'00' is not an integer"),
    "underscored-int": ("red timestamp 1_0", 2, "'1_0' is not an integer"),
    "signed-int": ("red timestamp +5", 2, "'+5' is not an integer"),
    "unreadable-int": ("red timestamp x", 2, "'x' is not an integer"),
    "unreadable-entry": ("yellow entry.x.payload forged", 2, "'x' is not an integer"),
}


@pytest.mark.parametrize("tamper, code, outcome", TAMPERS.values(), ids=list(TAMPERS))
def test_tamper_parses_each_field_type_or_leaves_the_store_as_it_was(tmp_path, capsys, tamper, code, outcome):
    d = init_ledger(tmp_path, capsys)
    run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001")
    run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor", "--patient", "1", "--entry", f"xray:{PAYLOAD}")
    before = store_image(d)
    chain, field, value = tamper.split()
    flags = ["--chain", chain, "--patient", "1", "--index", "1", "--field", field, "--value", value]
    assert main(["tamper", "--dir", d, *flags]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        block = store.load_raw(d).chain(chain, 1)[0]
        if field.startswith("entry."):
            _, i, field = field.split(".")
            block = block.entries[int(i)]
        assert getattr(block, field) == outcome
    else:
        assert captured.err == f"ERROR StorageError: cannot tamper with {d}: {outcome}\n"
        assert store_image(d) == before


@pytest.mark.parametrize("index", ["x", "01"])
def test_a_tamper_index_that_names_no_integer_has_one_refusal_text(tmp_path, capsys, index):
    """int() refuses "x" and reads "01"; both are refused alike."""
    d = init_ledger(tmp_path, capsys)
    before = store_image(d)
    assert main(["tamper", "--dir", d, "--chain", "main", "--index", index, "--field", "place", "--value", "x"]) == 2
    assert capsys.readouterr().err == f"ERROR CommandError: tamper {index!r} is not an integer\n"
    assert store_image(d) == before


def test_porcelain_output_is_tab_separated(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    code, out = run(capsys, "--porcelain", "onboard", "--dir", d, "--actor", "reg",
                    "--role", "authority", "--code", "FC001")
    assert code == 0
    assert out.strip() == "patient\t1"
    run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor",
        "--patient", "1", "--entry", "blood_test:v1")
    code, out = run(capsys, "--porcelain", "read", "--dir", d, "--actor", "drb",
                    "--role", "doctor", "--patient", "1", "--query", "latest")
    lines = out.strip().splitlines()
    assert lines[0] == "1.1\tblood_test\t" + b"v1".hex()


def test_a_held_lock_blocks_concurrent_use(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    with store._locked(Path(d)):
        before = _tree([d])
        code = main(["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC1"])
        assert code == 2
        assert "is locked" in capsys.readouterr().err
        assert _tree([d]) == before


def test_verify_shares_the_lock_with_other_verifies_only(tmp_path, capsys):
    """verify reads under the directory's lock, taken shared: a held
    exclusive lock refuses it, and a held shared lock refuses a writer but
    not another verify."""
    d = init_ledger(tmp_path, capsys)
    with store._locked(Path(d)):
        assert main(["verify", "--dir", d]) == 2
        assert "is locked" in capsys.readouterr().err
    with store._locked(Path(d), fcntl.LOCK_SH):
        assert run(capsys, "verify", "--dir", d) == (0, "OK 0 violations\n")
        before = _tree([d])
        assert main(["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC1"]) == 2
        assert "is locked" in capsys.readouterr().err
        assert _tree([d]) == before
    assert_unlocked(d)


def test_a_verify_while_a_commit_writes_is_refused_as_locked_not_corrupt(tmp_path, capsys, monkeypatch):
    """A commit appends to the chain files before it rewrites meta; a verify
    that read in between would take the appended records for trailing
    bytes."""
    d = init_ledger(tmp_path, capsys)
    encode_meta = store._encode_meta
    verified = []

    def verify_then_encode(*args):
        verified.append(main(["verify", "--dir", d]))
        return encode_meta(*args)

    monkeypatch.setattr(store, "_encode_meta", verify_then_encode)
    assert main(["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC1"]) == 0
    assert verified == [2]
    err = capsys.readouterr().err
    assert "is locked" in err and "CorruptChain" not in err
    monkeypatch.undo()
    assert run(capsys, "verify", "--dir", d) == (0, "OK 0 violations\n")


def assert_unlocked(*dirs) -> None:
    """Each directory's lock was released: it can be taken again."""
    for d in dirs:
        with store._locked(Path(d)):
            pass


# holds a store session on the directory argv[1] until it is killed
HOLD_SESSION = """
import sys, time
from medledger import store
with store.session(sys.argv[1]):
    print("ready", flush=True)
    time.sleep(60)
"""


def test_a_lock_holder_killed_with_sigkill_leaves_the_directory_unlocked(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001")
    write = ["write", "--dir", d, "--actor", "drb", "--role", "doctor", "--patient", "1", "--entry", "xray:v1"]
    env = {**os.environ, "PYTHONPATH": str(Path(store.__file__).resolve().parents[1])}
    holder = subprocess.Popen([sys.executable, "-c", HOLD_SESSION, d], stdout=subprocess.PIPE, env=env)
    try:
        assert select.select([holder.stdout], [], [], 30)[0], "the holder never became ready"
        assert holder.stdout.readline() == b"ready\n"
        assert main(write) == 2
        assert "is locked" in capsys.readouterr().err
        holder.kill()
        holder.wait()
        assert run(capsys, *write) == (0, "medical block 1.1 written, log 1.1.1\n")
        assert len(store.load(d).yellow[1]) == 1
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()


def test_a_stray_lock_file_blocks_nothing_and_no_command_adds_a_file(tmp_path, capsys, monkeypatch):
    """The lock is the directory itself: a file named .lock (here in the
    tampered and repaired replica) is just a file, and while a command
    commits, its directory holds what it held before."""
    dirs = replica_dirs(tmp_path)
    (Path(dirs[2]) / ".lock").touch()
    listing = {Path(d).resolve(): sorted(os.listdir(d)) for d in dirs}
    persist = store.persist
    unchanged_at_commit = []

    def listing_persist(ledger, directory, held=None):
        unchanged_at_commit.append(sorted(os.listdir(directory)) == listing[Path(directory).resolve()])
        persist(ledger, directory, held)

    monkeypatch.setattr(store, "persist", listing_persist)
    doctor = ["--actor", "drb", "--role", "doctor", "--patient", "1"]
    for argv in (
        ["tamper", "--dir", dirs[2], "--chain", "yellow", "--patient", "1", "--index", "1",
         "--field", "entry.0.payload", "--value", "forged"],
        ["audit-repair", "--dirs", *dirs],
        ["write", "--dir", dirs[0], *doctor, "--entry", "xray:v2"],
        ["read", "--dir", dirs[0], *doctor, "--query", "latest"],
        ["verify", "--dir", dirs[0]],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert unchanged_at_commit == [True] * 4  # tamper, the one repaired replica, write, read
    assert {Path(d).resolve(): sorted(os.listdir(d)) for d in dirs} == listing


def test_a_failed_commit_prints_no_success_line(tmp_path, capsys, monkeypatch):
    """A verb's result is rendered only once its commit has returned."""
    d = init_ledger(tmp_path, capsys)
    run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001")

    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store, "_encode_meta", full_disk)
    code = main(["write", "--dir", d, "--actor", "drb", "--role", "doctor", "--patient", "1",
                 "--entry", "xray:v1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("ERROR StorageError: cannot persist to ")


def test_init_refuses_existing_ledger(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    code = main(["init", "--dir", d, "--catalog", "a:A"])
    assert code == 2


def test_init_checks_for_a_ledger_under_the_lock(tmp_path, capsys, monkeypatch):
    """An init that completes while a second one waits for the lock is not
    overwritten by the second one's genesis."""
    d = tmp_path / "ledger"
    locked = store._locked

    @contextmanager
    def racing(directory):
        monkeypatch.setattr(store, "_locked", locked)
        assert main(["init", "--dir", str(d), "--catalog", "first:First"]) == 0
        with locked(directory):
            yield

    monkeypatch.setattr(store, "_locked", racing)
    assert main(["init", "--dir", str(d), "--catalog", "second:Second"]) == 2
    assert "already holds a ledger" in capsys.readouterr().err
    assert store.load(d).active_catalog() == {"first": "First"}
    assert_unlocked(d)


# every ledger verb once or more: (argv after the verb, human lines, porcelain lines)
LIFECYCLE = [
    (["onboard", "--actor", "reg", "--role", "authority",
      "--code", "FC001", "--info", "name=Mario", "--info", "surname=Rossi"],
     ["patient 1 onboarded"], ["patient\t1"]),
    (["write", "--actor", "drb", "--role", "doctor", "--patient", "1", "--entry", "blood_test:hb 13.9"],
     ["medical block 1.1 written, log 1.1.1"], ["written\t1.1\t1.1.1"]),
    (["read", "--actor", "FC001", "--role", "patient", "--patient", "1", "--query", "latest"],
     ["1.1 blood_test: hb 13.9", "1 entries, log 1.1.2"],
     ["1.1\tblood_test\t" + b"hb 13.9".hex(), "log\t1.1.2"]),
    (["change-code", "--actor", "reg", "--role", "authority", "--patient", "1", "--new-code", "FC001-N"],
     ["fiscal code changed, identity block 2"], ["changed\t2"]),
    (["catalog-add", "--actor", "reg", "--role", "authority", "--entry", "mri:MRI scan"],
     ["catalog block 3 appended"], ["catalog\t3"]),
    (["write", "--actor", "drb", "--role", "doctor",
      "--patient", "1", "--entry", "mri:clear", "--entry", "blood_test:hb 14.0"],
     ["medical block 1.2 written, log 1.2.4"], ["written\t1.2\t1.2.4"]),
    (["report", "--actor", "drb", "--role", "doctor", "--patient", "1", "--type", "blood_test"],
     ["1.2 blood_test: hb 14.0", "1.1 blood_test: hb 13.9", "2 entries (newest first)"],
     ["1.2\tblood_test\t" + b"hb 14.0".hex(), "1.1\tblood_test\t" + b"hb 13.9".hex(), "entries\t2"]),
    (["close", "--actor", "reg", "--role", "authority", "--patient", "1"],
     ["subchain closed with final block 1.3"], ["closed\t1.3"]),
    (["read", "--actor", "reg", "--role", "authority", "--patient", "1", "--query", "blood_test"],
     ["1.1 blood_test: hb 13.9", "1.2 blood_test: hb 14.0", "2 entries, log 1.3.7"],
     ["1.1\tblood_test\t" + b"hb 13.9".hex(), "1.2\tblood_test\t" + b"hb 14.0".hex(), "log\t1.3.7"]),
]


def test_cli_matches_directly_driven_library(tmp_path, capsys):
    """Differential check: for all seven verbs, in both output modes, the
    persisted CLI state equals the in-memory library state for the same
    command sequence, and the output lines are the pinned ones."""
    lib = Ledger.genesis((("blood_test", "Blood test"), ("xray", "X-ray"), ("ecg", "ECG")))
    reg = Credential("reg", Role.AUTHORITY)
    drb = Credential("drb", Role.DOCTOR)
    lib.onboard_patient(reg, "FC001", {"name": "Mario", "surname": "Rossi"}, place="cli")
    lib.write_record(drb, 1, [("blood_test", b"hb 13.9")], place="cli")
    lib.read_record(Credential("FC001", Role.PATIENT), 1, "latest", place="cli")
    lib.change_fiscal_code(reg, 1, "FC001-N", place="cli")
    lib.update_catalog(reg, [("mri", "MRI scan")], place="cli")
    lib.write_record(drb, 1, [("mri", b"clear"), ("blood_test", b"hb 14.0")], place="cli")
    lib.assemble_report(drb, 1, "blood_test", place="cli")
    lib.close_subchain(reg, 1, place="cli")
    lib.read_record(reg, 1, "blood_test", place="cli")

    for mode, porcelain in (("human", False), ("porcelain", True)):
        d = init_ledger(tmp_path / mode, capsys)
        for argv, human, machine in LIFECYCLE:
            flags = ["--porcelain"] if porcelain else []
            code, out = run(capsys, *flags, argv[0], "--dir", d, *argv[1:])
            assert code == 0, argv
            assert out.splitlines() == (machine if porcelain else human), argv
        assert store.load(d).snapshot_bytes() == lib.snapshot_bytes()


def test_sim_twice_yields_identical_transcripts(tmp_path, capsys):
    out1 = tmp_path / "t1.txt"
    out2 = tmp_path / "t2.txt"
    for out in (out1, out2):
        code = main([
            "sim", "--nodes", "5", "--script", str(GOLDEN / "lifecycle.script"),
            "--seed", "7", "--catalog", "blood_test:Blood test", "--catalog", "xray:X-ray",
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text() == (GOLDEN / "lifecycle_transcript.txt").read_text()


def test_the_module_entry_point_runs_on_the_standard_library_alone(tmp_path):
    """python -S imports no site module, so no site-packages: a runtime
    import of anything outside the standard library fails here. Through
    python -m medledger (__main__.py), verify passes a fresh ledger and
    locates a tampered main block."""
    d = str(tmp_path / "ledger")
    env = {**os.environ, "PYTHONPATH": str(Path(store.__file__).resolve().parents[1])}

    def medledger(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-S", "-m", "medledger", *argv], env=env, capture_output=True, text=True)

    for argv in (
        ["init", "--dir", d, "--catalog", "general:General"],
        ["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001"],
        ["write", "--dir", d, "--actor", "drb", "--role", "doctor", "--patient", "1", "--entry", "general:v1"],
    ):
        assert medledger(*argv).returncode == 0, argv
    verified = medledger("verify", "--dir", d)
    assert (verified.returncode, verified.stdout) == (0, "OK 0 violations\n")
    tamper = ["tamper", "--dir", d, "--chain", "main", "--index", "1", "--field", "variant", "--value", "catalog"]
    assert medledger(*tamper).returncode == 0
    verified = medledger("verify", "--dir", d)
    assert verified.returncode == 1
    assert any(line.startswith("MAIN 1 self_hash") for line in verified.stdout.splitlines()), verified.stdout


def test_a_module_import_loads_only_the_modules_it_needs():
    """The package re-exports nothing, so import medledger loads none of
    its modules, and import medledger.blocks loads blocks and what it
    imports: not the ledger, the network or the random the network
    seeds."""
    env = {**os.environ, "PYTHONPATH": str(Path(store.__file__).resolve().parents[1])}

    def loaded(module: str) -> list[str]:
        names = "sorted(n for n in sys.modules if n.partition('.')[0] in ('medledger', 'random'))"
        code = f"import sys, {module}; print(*{names})"
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
        return done.stdout.split()

    assert loaded("medledger") == ["medledger"]
    assert loaded("medledger.blocks") == ["medledger", "medledger.blocks", "medledger.errors", "medledger.merkle"]


def replica_dirs(tmp_path) -> list[str]:
    base = Ledger.genesis(CATALOG)
    reg = Credential("reg", Role.AUTHORITY)
    drb = Credential("drb", Role.DOCTOR)
    base.onboard_patient(reg, "FC001", {"name": "Mario"}, place="n1")
    base.write_record(drb, 1, [("blood_test", b"v1")], place="n1")
    dirs = []
    for i in range(1, 4):
        d = tmp_path / f"replica{i}"
        store.persist(base, d)
        dirs.append(str(d))
    return dirs


def test_audit_repair_across_replica_directories(tmp_path, capsys):
    dirs = replica_dirs(tmp_path)
    code, _ = run(capsys, "tamper", "--dir", dirs[2], "--chain", "yellow", "--patient", "1",
                  "--index", "1", "--field", "entry.0.payload", "--value", "forged")
    assert code == 0
    code, out = run(capsys, "audit-repair", "--dirs", *dirs)
    assert code == 0
    assert "replaced" in out
    assert store.load(dirs[2]).snapshot_bytes() == store.load(dirs[0]).snapshot_bytes()


def test_audit_repair_heals_a_forged_log_across_replica_directories(tmp_path, capsys):
    """A log's actor forged on the middle replica of three is replaced by
    the majority's block, and every replica then verifies."""
    dirs = replica_dirs(tmp_path)
    run(capsys, "tamper", "--dir", dirs[1], "--chain", "red", "--patient", "1",
        "--index", "1", "--field", "actor", "--value", "forged")
    repaired = f"replaced node={dirs[1]} chain=red coord=1.1\n1 repair entries\n"
    assert run(capsys, "audit-repair", "--dirs", *dirs) == (0, repaired)
    for d in dirs:
        assert run(capsys, "verify", "--dir", d) == (0, "OK 0 violations\n")


def test_audit_repair_rewrites_only_the_replaced_replicas(tmp_path, capsys):
    dirs = replica_dirs(tmp_path)
    run(capsys, "tamper", "--dir", dirs[2], "--chain", "yellow", "--patient", "1",
        "--index", "1", "--field", "entry.0.payload", "--value", "forged")
    files = [f for d in dirs for f in Path(d).iterdir()]
    for expected_out, expected_rewritten in (
        (f"replaced\t{dirs[2]}\tyellow\t1.1\nentries\t1\n", {"replica3"}),
        ("entries\t0\n", set()),  # identical replicas: nothing is rewritten
    ):
        for f in files:
            os.utime(f, ns=(10**9, 10**9))
        assert run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs) == (0, expected_out)
        assert {f.parent.name for f in files if f.stat().st_mtime_ns != 10**9} == expected_rewritten


def test_audit_repair_refuses_a_directory_given_twice(tmp_path, capsys):
    dirs = replica_dirs(tmp_path)
    run(capsys, "write", "--dir", dirs[0], "--actor", "drb", "--role", "doctor",
        "--patient", "1", "--entry", "blood_test:only-here")
    before = {f: f.read_bytes() for d in dirs for f in Path(d).iterdir()}
    for twice in (
        [dirs[0], dirs[0] + os.sep, dirs[1]],  # one replica would outvote the other
        [dirs[0], dirs[0]],
        [dirs[0], str(Path(dirs[1]) / ".." / "replica1"), dirs[2]],
    ):
        assert main(["audit-repair", "--dirs", *twice]) == 2, twice
        assert "given more than once" in capsys.readouterr().err
        assert {f: f.read_bytes() for d in dirs for f in Path(d).iterdir()} == before, twice


def assert_repaired(capsys, dirs, coords: list[tuple[str, str]]) -> None:
    """audit-repair replaces exactly these (chain, coord) on the lagging
    dirs[2], which then verifies and holds the chains of dirs[0]."""
    expected_out = "".join(f"replaced\t{dirs[2]}\t{chain}\t{coord}\n" for chain, coord in coords)
    expected_out += f"entries\t{len(coords)}\n"
    assert run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs) == (0, expected_out)
    assert run(capsys, "verify", "--dir", dirs[2]) == (0, "OK 0 violations\n")
    healed, good = store.load(dirs[2]), store.load(dirs[0])
    assert (healed.main_chain, healed.yellow, healed.red) == (good.main_chain, good.yellow, good.red)
    assert run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs) == (0, "entries\t0\n")


def test_audit_repair_appends_to_a_replica_two_writes_behind(tmp_path, capsys):
    dirs = replica_dirs(tmp_path)
    for d in dirs[:2]:
        for payload in ("v2", "v3"):
            run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor",
                "--patient", "1", "--entry", f"blood_test:{payload}")
    assert_repaired(capsys, dirs, [("yellow", "1.2"), ("yellow", "1.3"), ("red", "1.2"), ("red", "1.3")])


def test_audit_repair_creates_the_subchains_of_a_missing_patient(tmp_path, capsys):
    dirs = replica_dirs(tmp_path)
    for d in dirs[:2]:
        run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC002")
        run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor",
            "--patient", "2", "--entry", "xray:x1")
        run(capsys, "read", "--dir", d, "--actor", "drb", "--role", "doctor",
            "--patient", "2", "--query", "latest")
    lag = dirs[2]
    assert sorted(store.load(lag).yellow) == [1]
    assert_repaired(capsys, dirs, [("main", "2"), ("yellow", "2.1"), ("red", "2.1"), ("red", "2.2")])
    assert sorted(store.load(lag).yellow) == sorted(store.load(lag).red) == [1, 2]


@pytest.mark.parametrize("case", ["onboarded", "read", "forged"])
def test_audit_repair_gives_a_missing_patient_with_no_record_both_subchains(tmp_path, capsys, case):
    """A patient onboarded on two of three fresh replicas, with no medical
    block and at most a read, is healed onto the third with both subchain
    files, so the third loads, verifies and holds the same bytes. With the
    onboarding forged alike on both, main 1 is unrepairable, so the third
    anchors no patient 1: the read's log is reported unrepairable there,
    and the third keeps its files and still verifies."""
    dirs = [str(tmp_path / name) for name in "abc"]
    for d in dirs:
        assert run(capsys, "init", "--dir", d, "--catalog", "blood_test:Blood test")[0] == 0
    for d in dirs[:2]:
        run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001")
        if case != "onboarded":
            run(capsys, "read", "--dir", d, "--actor", "drb", "--role", "doctor",
                "--patient", "1", "--query", "latest")
        if case == "forged":
            run(capsys, "tamper", "--dir", d, "--chain", "main", "--index", "1",
                "--field", "info.x", "--value", "forged")
    if case != "forged":
        assert_repaired(capsys, dirs, [("main", "1")] + [("red", "1.1")] * (case == "read"))
        assert store_image(dirs[0]) == store_image(dirs[1]) == store_image(dirs[2])
        return
    fresh = store_image(dirs[2])
    out = f"unrepairable\t*\tmain\t1\nunrepairable\t{dirs[2]}\tred\t1.1\nentries\t2\n"
    for _ in range(2):
        assert run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs) == (0, out)
        assert store_image(dirs[2]) == fresh
        assert run(capsys, "verify", "--dir", dirs[2]) == (0, "OK 0 violations\n")


def test_audit_repair_heals_a_forged_audit_note(tmp_path, capsys):
    """One byte of the actor of a refused onboard's audit note, flipped on
    one replica of three, is located by verify and healed by audit-repair
    from the note the other two hold, to the same bytes."""
    dirs = [str(tmp_path / name) for name in "abc"]
    for d in dirs:
        assert run(capsys, "init", "--dir", d, "--catalog", "blood_test:Blood test")[0] == 0
        assert run(capsys, "onboard", "--dir", d, "--actor", "mallory", "--role", "doctor", "--code", "FC001")[0] == 1
    notes = Path(dirs[1]) / "audit.global"
    data = bytearray(notes.read_bytes())
    data[data.index(b"mallory")] ^= 1
    notes.write_bytes(data)
    assert run(capsys, "verify", "--dir", dirs[1]) == (1, "AUDIT 0 self_hash stored hash does not recompute\n"
                                                       "FAIL 1 violations\n")
    out = f"replaced\t{dirs[1]}\taudit\t0\nentries\t1\n"
    assert run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs) == (0, out)
    assert run(capsys, "verify", "--dir", dirs[1]) == (0, "OK 0 violations\n")
    assert notes.read_bytes() == (Path(dirs[0]) / "audit.global").read_bytes()
    assert run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs) == (0, "entries\t0\n")


def lineage_replicas(tmp_path, capsys) -> list[str]:
    """Three replicas built by the same commands: main holds the genesis,
    patient 1's onboarding, its fiscal change and a catalog block."""
    dirs = [str(tmp_path / name) for name in "abc"]
    for d in dirs:
        for argv in (
            ["init", "--dir", d, "--catalog", "blood_test:Blood test"],
            ["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001"],
            ["write", "--dir", d, "--actor", "drb", "--role", "doctor", "--patient", "1",
             "--entry", "blood_test:v1"],
            ["change-code", "--dir", d, "--actor", "reg", "--role", "authority", "--patient", "1",
             "--new-code", "FC002"],
            ["catalog-add", "--dir", d, "--actor", "reg", "--role", "authority", "--entry", "xray:X-ray"],
        ):
            assert run(capsys, *argv)[0] == 0, argv
    return dirs


@pytest.mark.parametrize("variant", ["catalog", "fiscal_change", "system_genesis"])
def test_a_tampered_onboarding_variant_is_located_and_repaired(tmp_path, capsys, variant):
    """An onboarding block that no longer reads as one leaves patient 1's
    files listed but unanchored: the load still opens them, verify locates
    the tamper, and audit-repair heals the replica to the others' bytes."""
    dirs = lineage_replicas(tmp_path, capsys)
    assert run(capsys, "tamper", "--dir", dirs[2], "--chain", "main", "--index", "1",
               "--field", "variant", "--value", variant)[0] == 0
    code, out = run(capsys, "verify", "--dir", dirs[2])
    assert code == 1 and "MAIN 1 self_hash" in out.splitlines()[0]
    assert run(capsys, "audit-repair", "--dirs", *dirs)[0] == 0
    for d in dirs:
        assert run(capsys, "verify", "--dir", d) == (0, "OK 0 violations\n")
    assert store_image(dirs[0]) == store_image(dirs[1]) == store_image(dirs[2])


def test_a_fiscal_change_tampered_into_an_onboarding_is_refused(tmp_path, capsys):
    """Out of reach of the manifest rule: the tamper anchors a patient 2
    that persist never gave files, so every load refuses the store and
    names the files it lacks."""
    d = lineage_replicas(tmp_path, capsys)[0]
    assert run(capsys, "tamper", "--dir", d, "--chain", "main", "--index", "2",
               "--field", "variant", "--value", "patient")[0] == 0
    assert main(["verify", "--dir", d]) == 2
    assert capsys.readouterr().err == (
        "ERROR CorruptChain: meta @ 0: manifest does not list exactly the chain files: "
        "['p2.red.chain', 'p2.yellow.chain']\n"
    )


def test_audit_repair_heals_the_clock_of_a_replica_one_write_behind(tmp_path, capsys):
    """The healed replica takes the majority's clock, so the same next op
    stamps the same log block on every replica. A replica ahead of the
    majority that holds a tampered block is healed but keeps its clock,
    so it never stamps a timestamp twice."""
    dirs = replica_dirs(tmp_path)
    write = ["write", "--actor", "drb", "--role", "doctor", "--patient", "1"]
    for d in dirs[:2]:
        run(capsys, write[0], "--dir", d, *write[1:], "--entry", "blood_test:v2")
    assert run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs)[1].endswith("entries\t2\n")
    assert len({store.load(d).clock for d in dirs}) == 1
    for d in dirs:
        run(capsys, write[0], "--dir", d, *write[1:], "--entry", "xray:v3")
    assert run(capsys, "audit-repair", "--dirs", *dirs) == (0, "0 repair entries\n")
    run(capsys, write[0], "--dir", dirs[0], *write[1:], "--entry", "blood_test:only-here")
    run(capsys, "tamper", "--dir", dirs[0], "--chain", "yellow", "--patient", "1",
        "--index", "1", "--field", "entry.0.payload", "--value", "forged")
    ahead = store.load_raw(dirs[0]).clock
    code, out = run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs)
    assert code == 0 and f"replaced\t{dirs[0]}\tyellow\t1.1\n" in out
    assert store.load(dirs[0]).clock == ahead > store.load(dirs[1]).clock


def test_audit_repair_locks_every_replica_from_load_to_persist(tmp_path, capsys, monkeypatch):
    """A write that comes while audit-repair holds the replicas is refused,
    so the repair never persists over records it did not load."""
    dirs = replica_dirs(tmp_path)
    run(capsys, "tamper", "--dir", dirs[2], "--chain", "yellow", "--patient", "1",
        "--index", "1", "--field", "entry.0.payload", "--value", "forged")
    load_raw = store.load_raw
    racing_writes = []

    def load_then_race(directory, shared):
        ledger = load_raw(directory, shared)
        racing_writes.append(main(["write", "--dir", str(directory), "--actor", "drb",
                                   "--role", "doctor", "--patient", "1", "--entry", "xray:racing"]))
        return ledger

    monkeypatch.setattr(store, "load_raw", load_then_race)
    code, out = run(capsys, "--porcelain", "audit-repair", "--dirs", *dirs)
    assert (code, out) == (0, f"replaced\t{dirs[2]}\tyellow\t1.1\nentries\t1\n")
    assert racing_writes == [2, 2, 2]
    assert len({store.load(d).snapshot_bytes() for d in dirs}) == 1
    assert_unlocked(*dirs)


def _kind_byte_7f(d: str) -> None:
    """An unknown block kind at the first record of p1.yellow.chain."""
    path = Path(d) / "p1.yellow.chain"
    data = bytearray(path.read_bytes())
    data[4] = 0x7F  # after the record's 4-byte length
    path.write_bytes(data)


def _red_count_one_below(d: str) -> None:
    """meta rewritten to list one p1.red.chain record fewer; every chain
    file keeps its bytes."""
    clock, counts = store._decode_meta((Path(d) / "meta").read_bytes())
    counts["p1.red.chain"] -= 1
    (Path(d) / "meta").write_bytes(store._encode_meta(clock, list(counts.items())))


@pytest.mark.parametrize("damage", [_kind_byte_7f, _red_count_one_below], ids=["kind-7f", "count-one-below"])
@pytest.mark.parametrize("k", [0, 2], ids=["first", "later"])
def test_audit_repair_names_the_replica_whose_load_failed(tmp_path, capsys, damage, k):
    """A replica that does not load is named, with its file and offset, the
    error verify gives for it alone; every tree is left as it was and every
    lock released. A later replica whose chain files equal the first's
    bytes but whose meta lists fewer records is refused as it is alone:
    the first replica's decoded blocks are not handed to it."""
    dirs = replica_dirs(tmp_path)
    damage(dirs[k])
    assert main(["verify", "--dir", dirs[k]]) == 2
    alone = capsys.readouterr().err
    assert alone.startswith("ERROR CorruptChain: p1.")
    if damage is _kind_byte_7f:
        assert alone == "ERROR CorruptChain: p1.yellow.chain @ 0: unknown block kind 0x7f\n"
    shared = {}
    for d in dirs[:k]:
        store.load_raw(d, shared)
    with pytest.raises(CorruptChain) as refused:
        store.load_raw(dirs[k], shared)
    exc = refused.value
    assert alone == f"ERROR CorruptChain: {exc}\n"
    before = _tree(dirs)
    assert main(["audit-repair", "--dirs", *dirs]) == 2
    named = f"ERROR CorruptChain: {Path(dirs[k]) / exc.filename} @ {exc.offset}: {exc.reason}\n"
    assert capsys.readouterr() == ("", named)
    assert _tree(dirs) == before
    assert_unlocked(*dirs)


def _tree(dirs) -> dict[Path, bytes]:
    """Every file of the directories, by path."""
    return {f: f.read_bytes() for d in dirs for f in Path(d).iterdir()}


def test_tamper_on_a_locked_directory_exits_2_with_the_store_unchanged(tmp_path, capsys):
    dirs = replica_dirs(tmp_path)
    tamper = ["tamper", "--chain", "yellow", "--patient", "1", "--index", "1",
              "--field", "entry.0.payload", "--value", "forged"]
    with store._locked(Path(dirs[0])):
        before = _tree(dirs[:1])
        assert main([tamper[0], "--dir", dirs[0], *tamper[1:]]) == 2
        assert "is locked" in capsys.readouterr().err
        assert _tree(dirs[:1]) == before
    assert main([tamper[0], "--dir", dirs[1], *tamper[1:]]) == 0  # the same tamper, unlocked


@pytest.mark.parametrize("locked", [0, 1, 2])
def test_audit_repair_with_one_replica_locked_exits_2_with_every_replica_unchanged(tmp_path, capsys, locked):
    """The replicas before the locked one in path order were locked and are
    released, so each can be locked again while the foreign lock is held."""
    dirs = replica_dirs(tmp_path)
    run(capsys, "tamper", "--dir", dirs[2], "--chain", "yellow", "--patient", "1",
        "--index", "1", "--field", "entry.0.payload", "--value", "forged")
    with store._locked(Path(dirs[locked])):
        before = _tree(dirs)
        assert main(["audit-repair", "--dirs", *dirs]) == 2
        assert "is locked" in capsys.readouterr().err
        assert _tree(dirs) == before
        assert_unlocked(*(d for d in dirs if d != dirs[locked]))


def test_commands_load_and_persist_through_the_store_module_bindings(tmp_path, capsys, monkeypatch):
    """perfbench spans store.load, store.load_raw and store.persist by
    replacing their module bindings, so each command must call them there."""
    dirs = replica_dirs(tmp_path)
    calls = {name: count_calls(monkeypatch, getattr(store, name)) for name in ("load", "load_raw", "persist")}

    def counted(*argv) -> dict[str, int]:
        for count in calls.values():
            count[0] = 0
        assert main(list(argv)) == 0, argv
        return {name: count[0] for name, count in calls.items()}

    assert counted("init", "--dir", str(tmp_path / "new"), "--catalog", "a:A") == {
        "load": 0, "load_raw": 0, "persist": 1}
    assert counted("tamper", "--dir", dirs[2], "--chain", "yellow", "--patient", "1", "--index", "1",
                   "--field", "entry.0.payload", "--value", "forged") == {"load": 0, "load_raw": 1, "persist": 1}
    assert counted("audit-repair", "--dirs", *dirs) == {"load": 0, "load_raw": 3, "persist": 1}
    assert counted("write", "--dir", dirs[0], "--actor", "drb", "--role", "doctor", "--patient", "1",
                   "--entry", "xray:v2") == {"load": 1, "load_raw": 0, "persist": 1}
    capsys.readouterr()


def test_malformed_command_tokens_exit_2_with_the_store_unchanged(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    run(capsys, "onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC001")
    before = {f.name: f.read_bytes() for f in Path(d).iterdir()}
    for argv in (
        ["write", "--dir", d, "--actor", "drb", "--role", "doctor", "--patient", "1",
         "--entry", "blood_test:ok", "--entry", "blood_test"],
        ["catalog-add", "--dir", d, "--actor", "reg", "--role", "authority", "--entry", "mri"],
        ["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", "FC2",
         "--info", "name"],
        ["read", "--dir", d, "--actor", "\udcff", "--role", "doctor", "--patient", "1",
         "--query", "latest"],
        # the codes the ledger already uses for something else
        ["onboard", "--dir", d, "--actor", "reg", "--role", "authority", "--code", ""],
        ["change-code", "--dir", d, "--actor", "reg", "--role", "authority", "--patient", "1", "--new-code", ""],
        ["catalog-add", "--dir", d, "--actor", "reg", "--role", "authority", "--entry", ":Empty"],
        ["catalog-add", "--dir", d, "--actor", "reg", "--role", "authority", "--entry", "latest:Latest"],
        # int() reads each of these, but only the text str() writes names a patient or an index
        *(["write", "--dir", d, "--actor", "drb", "--role", "doctor", f"--patient={text}", "--entry", "blood_test:v"]
          for text in NOT_CANONICAL),
        *(["tamper", "--dir", d, "--chain", "main", f"--patient={text}", "--index", "1", "--field", "place",
           "--value", "x"] for text in NOT_CANONICAL),
        *(["tamper", "--dir", d, "--chain", "main", f"--index={text}", "--field", "fiscal_code", "--value", "x"]
          for text in NOT_CANONICAL),
    ):
        assert main(argv) == 2, argv
        assert {f.name: f.read_bytes() for f in Path(d).iterdir()} == before, argv
    fresh = tmp_path / "fresh"
    for catalog in (["blood_test"], [":"], ["latest:L", "xray:X"]):
        assert main(["init", "--dir", str(fresh), *(f"--catalog={token}" for token in catalog)]) == 2, catalog
        assert not fresh.exists(), catalog


def test_a_patient_of_minus_one_is_parsed_and_refused_as_unknown(tmp_path, capsys):
    d = init_ledger(tmp_path, capsys)
    code, out = run(capsys, "write", "--dir", d, "--actor", "drb", "--role", "doctor", "--patient", "-1",
                    "--entry", "blood_test:v")
    assert code == 1 and out.startswith("ERROR UnknownPatient")


def test_sim_script_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.script"
    bad.write_text("1 n1 frobnicate x=1\n")
    code = main(["sim", "--nodes", "3", "--script", str(bad), "--catalog", "a:A"])
    assert code == 2


@pytest.mark.parametrize(
    "flags, script, error",
    [
        (["--drop-rate", "1.5"], b"", "ERROR ConfigError: drop_rate must be in [0, 1)"),
        (["--byzantine", "n9"], b"", "ERROR ConfigError: byzantine nodes not on the approved list: ['n9']"),
        (["--nodes", "0"], b"", "ERROR ConfigError: simulation needs at least one node"),
        ([], b"# ok\n1 n1 onboard code=\xff\n", "ERROR ScriptError: line 2: not UTF-8"),
        ([], b"1 n1 onboard role=nurse code=FC1\n", "ERROR ScriptError: line 1: unknown role 'nurse'"),
        ([], b"1 n1 onboard code=FC1\n0_2 n1 onboard code=FC2\n",
         "ERROR ScriptError: line 2: tick '0_2' is not an integer"),
    ],
    ids=["drop-rate", "byzantine", "no-nodes", "not-utf8", "unknown-role", "tick"],
)
def test_sim_usage_errors_exit_2_with_an_error_line(tmp_path, capsys, flags, script, error):
    path = tmp_path / "s.script"
    path.write_bytes(script)
    argv = ["sim", "--nodes", "3", "--script", str(path), *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", error + "\n")


@pytest.mark.parametrize("flag", ["--nodes", "--seed"])
@pytest.mark.parametrize("value", ["0_1", "+1", "01", "\u0663"])
def test_a_sim_integer_not_written_as_str_writes_one_is_a_usage_error(tmp_path, capsys, flag, value):
    path = tmp_path / "s.script"
    path.write_text("1 n1 onboard actor=reg role=authority code=FC001\n")
    argv = {"--nodes": ["--nodes", value], "--seed": ["--nodes", "3", "--seed", value]}[flag]
    with pytest.raises(SystemExit) as excinfo:
        main(["sim", "--script", str(path), *argv])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"error: argument {flag}: invalid canonical_int value: {value!r}\n")


@pytest.mark.parametrize("word", [*NOT_CANONICAL, "\u00b2"])
def test_bench_layers_reads_a_word_not_written_as_str_writes_an_integer_as_a_section(capsys, word):
    """REPS and PATIENTS are integers only as str writes them, so any other
    word, a superscript two too, which str.isdigit passes and int()
    refuses, names an unknown section: the script prints its usage line
    and exits 2."""
    assert bench_layers.main([word, "50"]) == 2
    assert capsys.readouterr().err.startswith("usage: ")


def test_bench_layers_without_src_prints_its_usage_line():
    script = Path(bench_layers.__file__)
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", bench_layers.USAGE + "\n")


@pytest.mark.parametrize("verb", ["init", "sim"])
def test_a_catalog_token_that_is_not_utf8_exits_2_with_one_error_line(tmp_path, capsys, verb):
    """A non-UTF-8 argv byte reaches the CLI as a lone surrogate, which no
    block encoding can hold: it is a usage error, like a malformed entry."""
    script = tmp_path / "s.script"
    script.write_text("")
    fresh = tmp_path / "fresh"
    argv = {"init": ["--dir", str(fresh)], "sim": ["--nodes", "3", "--script", str(script)]}[verb]
    assert main([verb, *argv, "--catalog", "gen\udcff:label"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "ERROR CommandError: 'gen\\udcff:label' does not encode as UTF-8\n")
    assert not fresh.exists()


def test_sim_on_one_node_rejects_a_malformed_command(tmp_path, capsys):
    path = tmp_path / "s.script"
    path.write_text("1 n1 write actor=drb role=doctor patient=x entry=general:v\n")
    code, out = run(capsys, "sim", "--nodes", "1", "--script", str(path))
    assert code == 0
    assert "REJECT seq=1 yes=1 n=1" in out.splitlines() and "APPLY" not in out


def test_sim_without_a_catalog_runs_on_the_default_one(tmp_path, capsys):
    path = tmp_path / "s.script"
    path.write_text("1 n1 onboard actor=reg role=authority code=FC001\n"
                    "2 n2 write actor=drb role=doctor patient=1 entry=general:v1\n")
    argv = ["sim", "--nodes", "3", "--script", str(path)]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0].endswith(" catalog=general:General checkup")
    assert run(capsys, *argv, "--catalog", "general:General checkup") == (0, out)


def test_duplicate_genesis_catalog_code_is_a_usage_error(tmp_path, capsys):
    fresh = tmp_path / "fresh"
    assert main(["init", "--dir", str(fresh), "--catalog", "a:A", "--catalog", "a:B"]) == 2
    assert not fresh.exists()
    script = tmp_path / "s.script"
    script.write_text("")
    assert main(["sim", "--nodes", "3", "--script", str(script), "--catalog", "a:A", "--catalog", "a:B"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR CommandError: catalog code 'a' given more than once\n" * 2


def test_sim_replica_divergence_exits_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "s.script"
    path.write_text(
        "1 n1 onboard actor=reg role=authority code=FC001\n"
        "2 n2 tamper chain=main index=0 field=fiscal_code value=forged\n"
        "3 n1 write actor=drb role=doctor patient=1 entry=general:v1\n"
    )
    assert main(["sim", "--nodes", "3", "--script", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR ReplicaDivergence: applying write on n2")
    assert captured.err == ""
