"""The three workloads: one closed-loop client each, single process.

Every round starts from the same set-up state (a copied store, fresh
replica clones or a ledger clone, none of it timed), then runs a fixed,
seeded mix of access operations, the verification passes and one repair
pass. Restoring the state keeps every round's work the same size however
many rounds a run gets through, so a faster epoch of the machine cannot
make later operations slower by growing the chains.

Each operation's result is checked against `oracle.LedgerModel` before
the next one is sent; each round ends with a full comparison of the
program's state against the model.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from medledger import blocks, cli, ledger as ledger_mod, network as network_mod, store
from medledger.errors import AccessDenied, SubchainClosed, UnknownRecordType
from medledger.ledger import Credential, Ledger, Role
from medledger.network import Command, Network, SimConfig

from oracle import (
    LedgerModel,
    OracleError,
    check_digests_equal,
    check_ledger,
    check_repair,
    check_self_hash,
    check_tamper_reported,
    expect,
)

CATALOG = (("blood_test", "Blood test"), ("xray", "X-ray"), ("ecg", "ECG"), ("mri", "MRI"))
TYPES = tuple(code for code, _ in CATALOG)
UNKNOWN_TYPE = "dental"  # never in the catalog

AUTHORITY = Credential("registry", Role.AUTHORITY)
DOCTOR = Credential("drbianchi", Role.DOCTOR)
INVALID = Credential("mallory", Role.DOCTOR, valid=False)

# refused attempt -> the declared error it must raise (or print, with exit 1)
REFUSALS = {
    "closed_write": SubchainClosed,
    "invalid_read": AccessDenied,
    "doctor_close": AccessDenied,
    "unknown_type": UnknownRecordType,
}


# --- seeded inputs -----------------------------------------------------------------


def random_entries(rng: random.Random, types: tuple[str, ...], max_entries: int) -> list[tuple[str, bytes]]:
    return [
        (rng.choice(types), f"v{rng.randrange(10**6)}".encode())
        for _ in range(rng.randint(1, max_entries))
    ]


def build_plan(
    rng: random.Random, patients: int, writes: int, types: tuple[str, ...], max_entries: int, close_every: int
) -> list[tuple]:
    """Set-up ops: onboard each patient, write, read "latest" after every
    second write, and close every close_every-th patient."""
    plan: list[tuple] = []
    for i in range(patients):
        p = i + 1  # main chain: genesis, then one identity block per patient
        plan.append(("onboard", f"FC{i:06d}", {"name": f"n{rng.randrange(10**6)}"}))
        for w in range(writes):
            plan.append(("write", p, random_entries(rng, types, max_entries)))
            if w % 2 == 1:
                plan.append(("read", p))
        if close_every and p % close_every == 0:
            plan.append(("close", p))
    return plan


def apply_plan(ledger: Ledger, plan: list[tuple]) -> None:
    for op in plan:
        if op[0] == "onboard":
            ledger.onboard_patient(AUTHORITY, op[1], op[2])
        elif op[0] == "write":
            ledger.write_record(DOCTOR, op[1], op[2])
        elif op[0] == "read":
            ledger.read_record(DOCTOR, op[1], "latest")
        else:
            ledger.close_subchain(AUTHORITY, op[1])


def model_plan(plan: list[tuple]) -> LedgerModel:
    model = LedgerModel()
    for op in plan:
        if op[0] == "onboard":
            model.onboard(op[1])
        elif op[0] == "write":
            model.write(op[1], op[2])
        elif op[0] == "read":
            model.read(op[1], "latest")
        else:
            model.close(op[1])
    return model


def round_ops(rng: random.Random, mix: dict[str, int]) -> list[str]:
    ops = [kind for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Tamper:
    chain: str  # yellow | red
    patient: int
    index: int  # 1-based record or log index
    field: str
    verify_coord: str  # coordinate label verify reports
    repair_coord: str  # coordinate label repair reports

    def apply(self, replica: Ledger) -> None:
        chain = (replica.yellow if self.chain == "yellow" else replica.red)[self.patient]
        chain[self.index - 1] = blocks.mutate_block(chain[self.index - 1], self.field, "forged")


def pick_tamper(rng: random.Random, model: LedgerModel, exclude=()) -> Tamper:
    """A medical block with entries (its first payload) or a log block (its actor)."""
    while True:
        if rng.random() < 0.5:
            cands = [(p, i) for p, m in model.patients.items() for i, e in enumerate(m.blocks, 1) if e]
            p, i = rng.choice(cands)
            t = Tamper("yellow", p, i, "entry.0.payload", f"{p}.{i}", f"{p}.{i}")
        else:
            cands = [(p, k) for p, m in model.patients.items() for k in range(1, len(m.logs) + 1)]
            p, k = rng.choice(cands)
            t = Tamper("red", p, k, "actor", model.patients[p].logs[k - 1], f"{p}.{k}")
        if (t.chain, t.patient, t.index) not in exclude:
            return t


def reader(rng: random.Random, model: LedgerModel, p: int) -> Credential:
    """Doctor, authority or the patient themself, all allowed to read."""
    return rng.choice([DOCTOR, AUTHORITY, Credential(model.patients[p].code, Role.PATIENT)])


def check_tips(ledger: Ledger, patients) -> None:
    """Recompute the self-hash of each touched patient's newest blocks."""
    for p in sorted(patients):
        for blk in [ledger.main_chain[p], *ledger.yellow[p][-1:], *ledger.red[p][-1:]]:
            check_self_hash(blk, blocks.field_groups)


def _refused(error, fn, *args) -> None:
    try:
        fn(*args)
    except error:
        return
    raise OracleError(f"{fn.__name__}{args[1:]} was not refused with {error.__name__}")


class Workload:
    """Inputs come from the seed alone; sizes are class attributes that tests shrink."""

    name = ""
    min_rounds = 3  # floor on rounds per run: >= 10 samples beyond p90, several verify and repair passes
    mix: dict[str, int] = {}
    refusals: tuple[str, ...] = ()
    patients = 0
    writes = 0
    max_entries = 1
    close_every = 0
    types = TYPES
    verify_passes = 1

    def __init__(self, seed: int, workdir: Path, **size):
        for key, value in size.items():
            if not hasattr(type(self), key):
                raise TypeError(f"unknown size parameter {key}")
            setattr(self, key, value)
        self.seed = seed
        self.workdir = workdir
        self.plan = build_plan(
            self.rng("setup"), self.patients, self.writes, self.types, self.max_entries, self.close_every
        )
        self.model = LedgerModel()

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def setup(self) -> None:
        """Build the initial state from the plan; timed, run several times."""
        raise NotImplementedError

    def check_setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, meter) -> None:
        raise NotImplementedError

    def refusal(self, rng: random.Random, model: LedgerModel) -> tuple[str, int]:
        how = rng.choice(self.refusals)
        pool = model.closed_patients() if how == "closed_write" else (
            model.open_patients() if how in ("doctor_close", "unknown_type") else list(model.patients)
        )
        return how, rng.choice(pool)


# --- clinic_cli ----------------------------------------------------------------------


def _flags(cred: Credential) -> list[str]:
    return ["--actor", cred.actor_id, "--role", cred.role.value] + ([] if cred.valid else ["--no-valid"])


def _entry_flags(entries) -> list[str]:
    return [x for t, v in entries for x in ("--entry", f"{t}:{v.decode()}")]


def _copy_dir(src: Path, dst: Path) -> None:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


def _chain_bytes(directory: str) -> int:
    """Bytes of every record file of a store (records plus their 4-byte frames)."""
    return sum(e.stat().st_size for e in os.scandir(directory) if e.name.endswith((".chain", ".global")))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """medledger.cli.main in process; (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        raise OracleError(f"medledger {argv[1:3]} exited 2: {err.getvalue().strip()}")
    return code, out.getvalue()


class ClinicCli(Workload):
    """The operator CLI against an on-disk store; every op loads, verifies and persists it."""

    name = "clinic_cli"
    min_rounds = 5
    mix = {"onboard": 1, "write": 5, "read": 10, "report": 5, "close": 1, "refused": 2}
    refusals = ("closed_write", "invalid_read", "doctor_close", "unknown_type")
    patients = 200
    # Six writes per patient keep the CPU share of an op high: the time an op
    # waits off the CPU (about 30 ms, whatever the store's size) follows the
    # shared disk, which no reference loop can scale away.
    writes = 6
    max_entries = 2
    close_every = 25
    verify_passes = 4

    def __init__(self, seed: int, workdir: Path, **size):
        super().__init__(seed, workdir, **size)
        self.setups = 0

    def setup(self) -> None:
        # each set-up persists into a new directory; removing the old ones is not timed
        self.setups += 1
        self.base = self.workdir / f"base{self.setups}"
        ledger = Ledger.genesis(CATALOG)
        apply_plan(ledger, self.plan)
        store.persist(ledger, self.base)

    def check_setup(self) -> None:
        for old in self.workdir.glob("base*"):
            if old != self.base:
                shutil.rmtree(old)
        self.model = model_plan(self.plan)
        ledger = store.load(self.base)  # refuses a state that fails verify_tree
        check_ledger(self.model, ledger)
        check_tips(ledger, self.model.patients)
        # replicas of the set-up store; each repair pass restores the one it tampered
        self.replicas = [self.workdir / f"replica{j}" for j in range(3)]
        for d in self.replicas:
            _copy_dir(self.base, d)

    def run_round(self, r: int, meter) -> None:
        rng = self.rng(r)
        live = self.workdir / "live"
        _copy_dir(self.base, live)
        model = self.model.copy()
        touched = set()
        for i, kind in enumerate(round_ops(rng, self.mix)):
            touched.add(self._op(kind, f"N{r:05d}{i:02d}", rng, model, meter, str(live)))
        for _ in range(self.verify_passes):
            result = meter.time("verify", run_cli, ["--porcelain", "verify", "--dir", str(live)])
            expect("verify of the live store", (0, "OK\t0\n"), result)
        self._repair_pass(rng, meter)
        ledger = store.load_raw(live)
        check_ledger(model, ledger)
        expect("global audit notes", 0, len(ledger.global_audit))
        check_tips(ledger, touched)

    def _op(self, kind: str, code: str, rng, model: LedgerModel, meter, live: str) -> int:
        base = ["--porcelain"]
        if kind == "onboard":
            p = model.onboard(code)
            argv = base + ["onboard", "--dir", live, *_flags(AUTHORITY), "--code", code, "--info", f"name=n{rng.randrange(10**6)}"]
            expected = (0, f"patient\t{p}\n")
        elif kind == "write":
            p = rng.choice(model.open_patients())
            entries = random_entries(rng, self.types, self.max_entries)
            med, log = model.write(p, entries)
            argv = base + ["write", "--dir", live, *_flags(DOCTOR), "--patient", str(p), *_entry_flags(entries)]
            expected = (0, f"written\t{med}\t{log}\n")
        elif kind == "read":
            p = rng.choice(list(model.patients))
            query = rng.choice(self.types + ("latest",))
            cred = reader(rng, model, p)
            hits, log = model.read(p, query)
            argv = base + ["read", "--dir", live, *_flags(cred), "--patient", str(p), "--query", query]
            expected = (0, "".join(f"{c}\t{t}\t{v.hex()}\n" for c, t, v in hits) + f"log\t{log}\n")
        elif kind == "report":
            p = rng.choice(list(model.patients))
            record_type = rng.choice(self.types)
            cred = reader(rng, model, p)
            hist = model.report(p, record_type)
            argv = base + ["report", "--dir", live, *_flags(cred), "--patient", str(p), "--type", record_type]
            expected = (0, "".join(f"{c}\t{record_type}\t{v.hex()}\n" for c, v in hist) + f"entries\t{len(hist)}\n")
        elif kind == "close":
            p = rng.choice(model.open_patients())
            label = model.close(p)
            argv = base + ["close", "--dir", live, *_flags(AUTHORITY), "--patient", str(p)]
            expected = (0, f"closed\t{label}\n")
        else:
            how, p = self.refusal(rng, model)
            model.refuse(p)
            target = ["--patient", str(p)]
            argv = base + {
                "closed_write": ["write", "--dir", live, *_flags(DOCTOR), *target, "--entry", f"{self.types[0]}:x"],
                "invalid_read": ["read", "--dir", live, *_flags(INVALID), *target, "--query", "latest"],
                "doctor_close": ["close", "--dir", live, *_flags(DOCTOR), *target],
                "unknown_type": ["write", "--dir", live, *_flags(DOCTOR), *target, "--entry", f"{UNKNOWN_TYPE}:x"],
            }[how]
            code, out = self._timed(meter, kind, argv, live)
            expect(f"{how} exit code", 1, code)
            expect(f"{how} error", f"ERROR {REFUSALS[how].__name__}:", out[: len(REFUSALS[how].__name__) + 7])
            return p
        expect(f"{argv[1]} patient {p}", expected, self._timed(meter, kind, argv, live))
        return p

    @staticmethod
    def _timed(meter, kind: str, argv: list[str], live: str) -> tuple[int, str]:
        """One timed CLI op; a traced one also records the bytes it appended."""
        if meter.tracer is None:
            return meter.time(kind, run_cli, argv)
        before = _chain_bytes(live)
        result = meter.time(kind, run_cli, argv)
        meter.tracer.appended[kind] += _chain_bytes(live) - before
        return result

    def _repair_pass(self, rng, meter) -> None:
        dirs = self.replicas
        k = rng.randrange(len(dirs))
        t = pick_tamper(rng, self.model)
        run_cli(["tamper", "--dir", str(dirs[k]), "--chain", t.chain, "--patient", str(t.patient),
                 "--index", str(t.index), "--field", t.field, "--value", "forged"])
        code, out = run_cli(["--porcelain", "verify", "--dir", str(dirs[k])])
        expect("verify exit code on a tampered store", 1, code)
        check_tamper_reported([tuple(line.split("\t")[:3]) for line in out.splitlines()], t.chain.upper(), t.verify_coord)
        code, out = meter.time("repair", run_cli, ["--porcelain", "audit-repair", "--dirs", *map(str, dirs)])
        lines = out.splitlines()
        expect("audit-repair exit and trailer", (0, f"entries\t{len(lines) - 1}"), (code, lines[-1]))
        check_repair({(str(dirs[k]), t.chain, t.repair_coord)}, [tuple(line.split("\t")) for line in lines[:-1]])
        expect("verify after repair", (0, "OK\t0\n"), run_cli(["--porcelain", "verify", "--dir", str(dirs[k])]))


# --- replicated_sim --------------------------------------------------------------------


class ReplicatedSim(Workload):
    """Round-robin proposals to an in-memory 15-node Network; no drops, no byzantine nodes."""

    name = "replicated_sim"
    min_rounds = 15
    mix = {"write": 14, "read": 16, "report": 8, "refused": 2}
    refusals = ("closed_write", "invalid_read", "doctor_close", "unknown_type")
    patients = 200
    writes = 2
    close_every = 25
    nodes = 15
    verify_passes = 2
    tampered_coords = 2

    def setup(self) -> None:
        base = Ledger.genesis(CATALOG)
        apply_plan(base, self.plan)
        net = Network(SimConfig(self.nodes, seed=self.seed), CATALOG)
        for node in net.nodes.values():
            node.replica = base.clone()
        self.base, self.net = base, net

    def check_setup(self) -> None:
        self.model = model_plan(self.plan)
        check_ledger(self.model, self.base)
        expect("verify_tree of the set-up ledger", [], ledger_mod.verify_tree(self.base))
        check_tips(self.base, self.model.patients)
        check_digests_equal("after set-up", {n: s.replica.state_digest() for n, s in self.net.nodes.items()})

    def _command(self, kind: str, rng, model: LedgerModel) -> tuple[int, Command, str, str | None]:
        """(patient, command, expected outcome, expected result or None)."""
        if kind == "refused":
            how, p = self.refusal(rng, model)
            model.refuse(p)
            cred = INVALID if how == "invalid_read" else DOCTOR
            verb, args = {
                "closed_write": ("write", (("entry", f"{self.types[0]}:x"),)),
                "invalid_read": ("read", (("query", "latest"),)),
                "doctor_close": ("close", ()),
                "unknown_type": ("write", (("entry", f"{UNKNOWN_TYPE}:x"),)),
            }[how]
            return p, _command(verb, cred, (("patient", str(p)),) + args), REFUSALS[how].__name__, None
        if kind == "write":
            p = rng.choice(model.open_patients())
            entries = random_entries(rng, self.types, self.max_entries)
            med, log = model.write(p, entries)
            args = (("patient", str(p)),) + tuple(("entry", f"{t}:{v.decode()}") for t, v in entries)
            return p, _command("write", DOCTOR, args), "ok", f"medical:{med} log:{log}"
        p = rng.choice(list(model.patients))
        cred = reader(rng, model, p)
        if kind == "read":
            query = rng.choice(self.types + ("latest",))
            hits, log = model.read(p, query)
            return p, _command("read", cred, (("patient", str(p)), ("query", query))), "ok", f"entries:{len(hits)} log:{log}"
        record_type = rng.choice(self.types)
        hist = model.report(p, record_type)
        return p, _command("report", cred, (("patient", str(p)), ("type", record_type))), "ok", f"entries:{len(hist)}"

    def _check_commit(self, p: int, model: LedgerModel) -> None:
        """The commit appended the same blocks on every replica, as the model says."""
        replicas = [s.replica for s in self.net.nodes.values()]
        first = replicas[0]
        expect(f"patient {p} newest log", model.patients[p].logs[-1], first.red[p][-1].coord.label())
        expect(f"patient {p} log count", len(model.patients[p].logs), len(first.red[p]))
        expect(f"patient {p} medical count", len(model.patients[p].blocks), len(first.yellow[p]))
        for rep in replicas[1:]:
            for mine, theirs in ((rep.red[p], first.red[p]), (rep.yellow[p], first.yellow[p])):
                if len(mine) != len(theirs) or mine[-1:] != theirs[-1:]:
                    raise OracleError(f"replicas disagree on patient {p} after a commit")

    def run_round(self, r: int, meter) -> None:
        rng = self.rng(r)
        net = self.net
        for node in net.nodes.values():
            node.replica = self.base.clone()
        model = self.model.copy()
        touched = set()
        ops = round_ops(rng, self.mix)
        for i, kind in enumerate(ops):
            proposer = net.approved[(r * len(ops) + i) % len(net.approved)]
            p, command, outcome, result = self._command(kind, rng, model)
            proposal = meter.time(kind, net.propose, proposer, command)
            expect("committed with every vote", (True, len(net.approved)), (proposal.committed, proposal.confirmations))
            expect(f"{command.verb} outcome", outcome, proposal.outcome)
            if result is not None:
                expect(f"{command.verb} result", result, proposal.result)
            self._check_commit(p, model)
            touched.add(p)
        first = net.nodes[net.approved[0]].replica
        for _ in range(self.verify_passes):
            expect("verify_tree of a replica", [], meter.time("verify", ledger_mod.verify_tree, first))
        digest = first.state_digest()
        check_digests_equal("after the round's commits", {n: s.replica.state_digest() for n, s in net.nodes.items()})
        self._repair_pass(rng, model, meter)
        digests = {n: s.replica.state_digest() for n, s in net.nodes.items()}
        check_digests_equal("after repair", digests)
        expect("state after repair", digest, digests[net.approved[0]])
        check_ledger(model, first)
        check_tips(first, touched)

    def _repair_pass(self, rng, model: LedgerModel, meter) -> None:
        net = self.net
        tampers: list[tuple[Tamper, list[str]]] = []
        for _ in range(self.tampered_coords):
            t = pick_tamper(rng, model, {(u.chain, u.patient, u.index) for u, _ in tampers})
            holders = rng.sample(net.approved, rng.randint(1, (len(net.approved) - 1) // 2))
            for nid in holders:
                t.apply(net.nodes[nid].replica)
            tampers.append((t, holders))
        probe = tampers[0][1][0]
        found = [(v.chain, v.coord, v.check) for v in ledger_mod.verify_tree(net.nodes[probe].replica)]
        for t, holders in tampers:
            if probe in holders:
                check_tamper_reported(found, t.chain.upper(), t.verify_coord)
        entries = meter.time("repair", net.audit_and_repair)
        check_repair(
            {(nid, t.chain, t.repair_coord) for t, holders in tampers for nid in holders},
            [(e.action, e.node, e.chain, e.coord) for e in entries],
        )


def _command(verb: str, cred: Credential, args) -> Command:
    return Command(verb, cred.actor_id, cred.role, cred.valid, args)


# --- long_history ----------------------------------------------------------------------


class LongHistory(Workload):
    """The Ledger API on a few patients with thousands of blocks each."""

    name = "long_history"
    min_rounds = 8
    mix = {"write": 18, "read": 5, "report": 5, "refused": 2}
    refusals = ("invalid_read", "doctor_close", "unknown_type")
    patients = 4
    writes = 1200
    types = TYPES[:3]
    verify_passes = 1

    def setup(self) -> None:
        base = Ledger.genesis(CATALOG)
        apply_plan(base, self.plan)
        self.base = base

    def check_setup(self) -> None:
        self.model = model_plan(self.plan)
        check_ledger(self.model, self.base)
        expect("verify_tree of the set-up ledger", [], ledger_mod.verify_tree(self.base))
        check_tips(self.base, self.model.patients)

    def run_round(self, r: int, meter) -> None:
        rng = self.rng(r)
        ledger = self.base.clone()
        model = self.model.copy()
        touched = set()
        for kind in round_ops(rng, self.mix):
            touched.add(self._op(kind, rng, model, meter, ledger))
        for _ in range(self.verify_passes):
            expect("verify_tree", [], meter.time("verify", ledger_mod.verify_tree, ledger))
        replicas = {f"r{j}": ledger.clone() for j in range(3)}
        name = rng.choice(sorted(replicas))
        t = pick_tamper(rng, model)
        t.apply(replicas[name])
        found = [(v.chain, v.coord, v.check) for v in ledger_mod.verify_tree(replicas[name])]
        check_tamper_reported(found, t.chain.upper(), t.verify_coord)
        entries = meter.time("repair", network_mod.repair_replicas, replicas)
        check_repair({(name, t.chain, t.repair_coord)}, [(e.action, e.node, e.chain, e.coord) for e in entries])
        for rep in replicas.values():
            if (rep.main_chain, rep.yellow, rep.red) != (ledger.main_chain, ledger.yellow, ledger.red):
                raise OracleError("a replica differs from the original after repair")
        check_ledger(model, ledger)
        check_tips(ledger, touched)

    def _op(self, kind: str, rng, model: LedgerModel, meter, ledger: Ledger) -> int:
        if kind == "write":
            p = rng.choice(model.open_patients())
            entries = random_entries(rng, self.types, self.max_entries)
            med, log = model.write(p, entries)
            medical, log_block = meter.time(kind, ledger.write_record, DOCTOR, p, entries)
            expect("write", (med, entries, log), (
                medical.coord.label(), [(e.record_type, e.payload) for e in medical.entries], log_block.coord.label()
            ))
        elif kind == "read":
            p = rng.choice(list(model.patients))
            query = rng.choice(self.types + ("latest",))
            hits, log = model.read(p, query)
            matches, log_block = meter.time(kind, ledger.read_record, reader(rng, model, p), p, query)
            expect(f"read {query}", (hits, log), (
                [(c.label(), e.record_type, e.payload) for c, e in matches], log_block.coord.label()
            ))
        elif kind == "report":
            p = rng.choice(list(model.patients))
            record_type = rng.choice(self.types)
            hist = model.report(p, record_type)
            report = meter.time(kind, ledger.assemble_report, reader(rng, model, p), p, record_type)
            expect(f"report {record_type}", hist, [(c.label(), v) for c, v in report])
        else:
            how, p = self.refusal(rng, model)
            model.refuse(p)
            call = {
                "invalid_read": (ledger.read_record, INVALID, p, "latest"),
                "doctor_close": (ledger.close_subchain, DOCTOR, p),
                "unknown_type": (ledger.write_record, DOCTOR, p, [(UNKNOWN_TYPE, b"x")]),
            }[how]
            meter.time(kind, _refused, REFUSALS[how], *call)
        expect(f"patient {p} log count", len(model.patients[p].logs), len(ledger.red[p]))
        return p


WORKLOADS = {w.name: w for w in (ClinicCli, ReplicatedSim, LongHistory)}
