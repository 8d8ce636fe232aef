"""Deterministic simulation of the replicated ledger network.

Fixed membership: the approved-node list never changes and only listed
nodes may propose. A proposal commits when strictly more than 51% of all
approved nodes confirm it (exact integer arithmetic, the proposer
counts); committed commands apply to every replica in the same order, so
honest replicas stay bit-identical. A commit is sealed once: each
replica takes the first replica's block or audit note, an immutable
value, only after checking that it equals, field for field, the one it
would append; a replica that diverged builds and seals its own.
Byzantine nodes refuse confirmations; state divergence is injected only
through tamper(). audit_and_repair replaces any block or audit note that
differs from a valid version held by at least 51% of nodes; below a
majority two versions could both qualify. It votes only where a replica
holds a different block object than the first replica, or lacks a block,
so a repair costs the damage, not the length or the number of the
chains.

Everything is driven by a logical clock and one seeded RNG (message
drops), so a (config, script) pair always yields the same transcript.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, count
from operator import is_not, ne
from typing import Any, Callable, NamedTuple

from .blocks import Block, block_hash, boolean_word, canonical_int, note_hash
from .errors import (
    CommandError,
    ConfigError,
    LedgerError,
    NoSuchBlock,
    NotAuthorized,
    ReplicaDivergence,
    ScriptError,
)
from .ledger import Credential, Ledger, Role, require_code

DEFAULT_CATALOG = (("general", "General checkup"),)
MAJORITY_PERCENT = 51  # a commit needs strictly more, a repair at least this share


@dataclass(frozen=True)
class SimConfig:
    node_count: int
    seed: int = 0
    byzantine: frozenset[str] = frozenset()
    drop_rate: float = 0.0


@dataclass
class NodeState:
    """One simulated node: its replica."""

    replica: Ledger


def split_token(token: str, sep: str, shape: str) -> tuple[str, str]:
    """Split one TYPE:PAYLOAD, CODE:LABEL or KEY=VALUE token at its first separator."""
    if sep not in token:
        raise CommandError(f"{token!r} is not {shape}")
    left, right = token.split(sep, 1)
    return left, right


def require_utf8(texts) -> None:
    """Refuse with CommandError the first string that does not encode as UTF-8."""
    for text in texts:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise CommandError(f"{text!r} does not encode as UTF-8") from None


def require_unique_keys(pairs: tuple[tuple[str, str], ...]) -> None:
    """Refuse with CommandError a key given more than once; only entry repeats."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen and key != "entry":
            raise CommandError(f"key {key!r} given more than once")
        seen.add(key)


@dataclass(frozen=True)
class Command:
    """One ledger operation as carried by a proposal.

    args is an ordered tuple of (key, value) pairs; only entry may repeat
    (require_unique_keys).
    """

    verb: str
    actor: str
    role: Role
    valid: bool
    args: tuple[tuple[str, str], ...] = ()

    def cred(self) -> Credential:
        return Credential(self.actor, self.role, self.valid)

    def need(self, key: str) -> str:
        val = next((v for k, v in self.args if k == key), None)
        if val is None:
            raise CommandError(f"command {self.verb!r} missing {key}=")
        return val

    def patient(self) -> int:
        try:
            return canonical_int(self.need("patient"))
        except ValueError as exc:
            raise CommandError(f"patient {exc}") from None

    def entries(self, shape: str) -> tuple[tuple[str, str], ...]:
        tokens = [val for k, val in self.args if k == "entry"]
        if not tokens:
            raise CommandError(f"command {self.verb!r} has no entry=")
        return tuple(split_token(token, ":", shape) for token in tokens)

    def info(self) -> dict[str, str]:
        return {k[len("info.") :]: val for k, val in self.args if k.startswith("info.")}

    def parse(self, place: str) -> tuple:
        """All the arguments of the verb's Ledger method: the credential,
        the typed arguments, and the place.

        Refuses with CommandError an unknown verb, a repeated key, a missing key, a
        patient not written as str writes an integer, a token without its separator, an empty entry
        list, a string that does not encode as UTF-8 and a reserved code
        (require_code); nothing that depends on the ledger's state is checked here. The arguments may be
        shared by many ledgers: no Ledger operation keeps a mutable one.
        """
        if self.verb not in VERBS:
            raise CommandError(f"unknown command verb {self.verb!r}")
        require_unique_keys(self.args)
        require_utf8((self.actor, place, *(s for pair in self.args for s in pair)))
        return (self.cred(), *VERBS[self.verb].parse(self), place)

    def run(self, ledger: Ledger, parsed: tuple):
        """Call the verb's Ledger method with the arguments parse returned;
        returns its raw result."""
        return getattr(ledger, VERBS[self.verb].method)(*parsed)

    def apply(self, ledger: Ledger, parsed: tuple) -> str:
        """Run against a replica; returns a short result summary."""
        return VERBS[self.verb].summary(self.run(ledger, parsed))

    def render_args(self) -> str:
        return " ".join(f"{k}={val}" for k, val in self.args)


class Verb(NamedTuple):
    method: str  # the Ledger method the verb calls
    parse: Callable[[Command], tuple]  # its typed arguments between credential and place
    summary: Callable[[Any], str]  # the transcript summary of the method's raw result


def _label(block: Block) -> str:
    return block.coord.label()


# the only dispatch of a ledger operation, for the network and the CLI alike
VERBS = {
    "onboard": Verb("onboard_patient", lambda c: (require_code(c.need("code")), c.info()), lambda p: f"patient:{p}"),
    "write": Verb(
        "write_record",
        lambda c: (c.patient(), tuple((t, p.encode()) for t, p in c.entries("TYPE:PAYLOAD"))),
        lambda r: f"medical:{_label(r[0])} log:{_label(r[1])}",
    ),
    "read": Verb(
        "read_record",
        lambda c: (c.patient(), c.need("query")),
        lambda r: f"entries:{len(r[0])} log:{_label(r[1])}",
    ),
    "report": Verb("assemble_report", lambda c: (c.patient(), c.need("type")), lambda r: f"entries:{len(r)}"),
    "close": Verb("close_subchain", lambda c: (c.patient(),), lambda b: f"final:{_label(b)}"),
    "change-code": Verb(
        "change_fiscal_code",
        lambda c: (c.patient(), require_code(c.need("new_code"))),
        lambda b: f"identity:{_label(b)}",
    ),
    "catalog-add": Verb(
        "update_catalog",
        lambda c: (tuple((require_code(code, catalog=True), label) for code, label in c.entries("CODE:LABEL")),),
        lambda b: f"catalog:{_label(b)}",
    ),
}


@dataclass(frozen=True)
class Proposal:
    seq: int
    proposer: str
    command: Command
    votes: tuple[tuple[str, str], ...]  # (node, yes|no|drop) in membership order
    confirmations: int  # the yes votes
    committed: bool
    outcome: str  # "ok" or the domain error class name
    result: str


@dataclass(frozen=True)
class RepairEntry:
    node: str  # "*" for a coordinate nobody could repair
    chain: str
    coord: str
    action: str  # replaced | unrepairable

    def __str__(self) -> str:
        return f"{self.action} node={self.node} chain={self.chain} coord={self.coord}"


def quorum_commits(confirmations: int, node_count: int) -> bool:
    """Strictly-more-than share test in exact integer arithmetic."""
    return 100 * confirmations > MAJORITY_PERCENT * node_count


def repair_majority(holders: int, node_count: int) -> bool:
    """At-least share test in exact integer arithmetic."""
    return 100 * holders >= MAJORITY_PERCENT * node_count


class Network:
    def __init__(self, config: SimConfig, catalog_entries=DEFAULT_CATALOG):
        if config.node_count < 1:
            raise ConfigError("simulation needs at least one node")
        approved = tuple(f"n{i}" for i in range(1, config.node_count + 1))
        unknown = set(config.byzantine) - set(approved)
        if unknown:
            raise ConfigError(f"byzantine nodes not on the approved list: {sorted(unknown)}")
        if not 0.0 <= config.drop_rate < 1.0:
            raise ConfigError("drop_rate must be in [0, 1)")
        self.config = config
        self.approved = approved
        self.nodes = {
            nid: NodeState(Ledger.genesis(catalog_entries)) for nid in approved
        }
        self.rng = random.Random(config.seed)
        self.seq = 0

    # -- consensus ----------------------------------------------------------

    def propose(self, node_id: str, command: Command) -> Proposal:
        """Broadcast a command, collect confirmations, apply it if the quorum
        is reached. Applied commands run on every replica in membership
        order, so domain failures (and their audit logs) replicate too."""
        if node_id not in self.approved:
            raise NotAuthorized(f"node {node_id!r} is not on the approved list")
        self.seq += 1
        # honest nodes confirm exactly the well-formed commands: domain
        # errors are valid transitions, since they append audit evidence
        try:
            parsed = command.parse(node_id)
            well_formed = True
        except CommandError:
            well_formed = False
        votes: list[tuple[str, str]] = []
        for nid in self.approved:
            if nid == node_id:
                votes.append((nid, "yes"))
            elif self.rng.random() < self.config.drop_rate:
                votes.append((nid, "drop"))
            else:
                votes.append((nid, "yes" if well_formed and nid not in self.config.byzantine else "no"))
        confirmations = sum(1 for _, vote in votes if vote == "yes")
        # the proposer's own vote alone must not commit a malformed command
        committed = well_formed and quorum_commits(confirmations, len(self.approved))
        outcome, result = "rejected", ""
        if committed:
            outcome, result = self._apply_everywhere(command, parsed)
        return Proposal(
            self.seq, node_id, command, tuple(votes), confirmations, committed, outcome, result
        )

    def _apply_everywhere(self, command: Command, parsed: tuple) -> tuple[str, str]:
        """Apply the command, parsed once, on every replica, then refuse an
        outcome that differs from the first replica's, naming the first
        node that diverged.

        The first replica builds and seals the blocks and audit notes it
        appends. They are offered, in seal order, to each other replica
        while it applies, and a replica takes one only where it equals, field
        for field, the value the replica would append (Ledger._seal); a
        replica that diverged builds and seals its own. So a commit costs
        one __init__ and one seal per appended value, whatever the node
        count, and honest replicas share each committed object."""
        outcomes: list[tuple[str, str]] = []
        offered: list[Block] = []  # the first replica's seals, once it has applied
        for nid in self.approved:
            replica = self.nodes[nid].replica
            done: list[Block] = []
            replica._seal_share = (offered, done)
            try:
                outcomes.append(("ok", command.apply(replica, parsed)))
            except LedgerError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
            finally:
                replica._seal_share = None
            if nid == self.approved[0]:
                offered = done
        for nid, this in zip(self.approved, outcomes):
            if this != outcomes[0]:
                raise ReplicaDivergence(
                    f"applying {command.verb} on {nid}: {this} != {outcomes[0]} on {self.approved[0]}"
                )
        return outcomes[0]

    # -- fault injection and repair -------------------------------------------

    def tamper(self, node_id: str, chain: str, patient: int, index: int, field_path: str, value) -> None:
        """Raw edit of one block on one node; see Ledger.tamper."""
        if node_id not in self.nodes:
            raise NoSuchBlock(f"unknown node {node_id!r}")
        self.nodes[node_id].replica.tamper(chain, patient, index, field_path, value)

    def audit_and_repair(self) -> list[RepairEntry]:
        """Majority block repair across all replicas; see repair_replicas."""
        return repair_replicas({nid: self.nodes[nid].replica for nid in self.approved})


def repair_replicas(replicas: dict[str, Ledger]) -> list[RepairEntry]:
    """Per-position majority vote over block values, chain by chain.

    The chains are the main chain, each patient's yellow and red
    subchains, and last the global audit notes. Equal blocks encode to
    equal bytes, so this is a vote over stored blocks. A chain whose block
    lists are equal on every replica is skipped; clones share their
    blocks, and so do replicas that audit-repair loaded from chain files
    with equal bytes (store.load_raw's shared), so that costs almost
    nothing. The subchains are compared a column at a time: each
    replica's lists of every patient against the first replica's, in C,
    so only the patients whose lists differ somewhere enter the vote. In
    a chain that differs, the vote runs only where some replica holds a
    different block object than the first replica, and past the shortest
    list: where every replica holds the same object there is one version,
    so a forged block costs one vote, not one per block of its chain. A
    version qualifies only if it is held by at least 51% of replicas AND
    its stored self_hash recomputes with block_hash (note_hash for a note;
    no memo is read), so a raw tamper cannot vote itself into being the
    "right" version.
    Replaced replicas get the winning block object itself, and their
    logical clock is raised to the one a 51% majority holds, if one does,
    so that their next op stamps what the others stamp; a clock is never
    lowered, so no replica stamps a timestamp twice. Divergent positions
    without a qualifying version are reported unrepairable.
    A repair rebuilds only the derived state its blocks change. A replica
    given main-chain blocks is reindexed whole (Ledger._recompute_derived)
    before the subchains are voted on, so one given a patient's identity
    block holds both of its subchains; a replica whose main chain still
    anchors no such patient takes none of its subchain blocks, which are
    reported unrepairable there, since no identity block would anchor
    them. A replica given a patient's subchain blocks updates that
    patient alone (Ledger._recompute_patient: the closed flag, the type
    index), and one given audit notes only needs no reindex.
    Replica order (dict order) fixes the report order.
    """
    total = len(replicas)
    tables = [[getattr(r, name) for r in replicas.values()] for name in ("yellow", "red")]
    patients = sorted(set().union(*tables[0]))
    differ: set[int] = set()  # the patients whose lists differ on some replica (get: None where one lacks them)
    for table in tables:
        column = list(map(table[0].get, patients))
        for other in table[1:]:
            differ.update(compress(patients, map(ne, column, map(other.get, patients))))
    chains = [("main", None)] + [(name, p) for p in sorted(differ) for name in ("yellow", "red")] + [("audit", None)]
    report: list[RepairEntry] = []
    touched: set[str] = set()
    for name, patient in chains:
        # Ledger.chain: [] where a replica lacks the patient
        held = [r.global_audit if name == "audit" else r.chain(name, patient) for r in replicas.values()]
        first = held[0]
        if held.count(first) == total:  # every replica's list equals the first's
            continue
        lists = dict(zip(replicas, held))
        lengths = list(map(len, held))
        candidates = set(range(min(lengths), max(lengths)))
        for blocks in held[1:]:
            candidates.update(compress(count(), map(is_not, first, blocks)))
        subchain = name in ("yellow", "red")
        # ascending, so a replica short of the tail is appended to one position after another
        for pos in sorted(candidates):
            versions: list[tuple[Block | None, list[str]]] = []  # None: the replica lacks it
            for nid, blocks in lists.items():
                blk = blocks[pos] if pos < len(blocks) else None
                holders = next((h for v, h in versions if v == blk), None)
                if holders is None:
                    versions.append((blk, [nid]))
                else:
                    holders.append(nid)
            if len(versions) == 1:
                continue
            coord = str(pos) if patient is None else f"{patient}.{pos + 1}"
            # at most one version can hold a majority; a missing one never qualifies
            good = next((blk for blk, holders in versions if repair_majority(len(holders), total)), None)
            if good is None or good.self_hash != (note_hash if name == "audit" else block_hash)(good):
                report.append(RepairEntry("*", name, coord, "unrepairable"))
                continue
            for blk, holders in versions:
                if blk is good:
                    continue
                for nid in holders:
                    blocks, replica = lists[nid], replicas[nid]
                    if (subchain and patient not in replica._anchor) or pos > len(blocks):
                        report.append(RepairEntry(nid, name, coord, "unrepairable"))
                        continue
                    if pos < len(blocks):
                        blocks[pos] = good
                    else:
                        blocks.append(good)
                    if subchain:
                        replica._recompute_patient(patient)
                    touched.add(nid)
                    report.append(RepairEntry(nid, name, coord, "replaced"))
        if name == "main":  # touched holds just the replicas given main blocks; the subchain votes read their anchors
            for nid in touched:
                replicas[nid]._recompute_derived()
    clocks = [r.clock for r in replicas.values()]
    clock = next((c for c in clocks if repair_majority(clocks.count(c), total)), None)
    for nid in touched:
        if clock is not None:  # raised only: a replica ahead keeps the timestamps it used
            replicas[nid].clock = max(replicas[nid].clock, clock)
    return report


# --- scenario scripts -----------------------------------------------------------


@dataclass(frozen=True)
class ScriptStep:
    line_no: int
    tick: int
    node: str
    verb: str
    params: tuple[tuple[str, str], ...]
    command: Command | None  # a ledger verb's command; None for a directive


_DIRECTIVE_VERBS = {"tamper", "audit-repair"}


def parse_script(text: str) -> list[ScriptStep]:
    """Parse the line-oriented scenario format: `tick node verb key=value...`.

    Blank lines and #-comments are skipped; a tick is written as str
    writes an integer (canonical_int), and ticks must be strictly
    increasing; only entry repeats a key. Each ledger-verb line is
    compiled here, so a malformed line fails before any line runs.
    """
    steps: list[ScriptStep] = []
    last_tick = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ScriptError(line_no, "expected: tick node verb [key=value ...]")
        try:
            tick = canonical_int(fields[0])
        except ValueError as exc:
            raise ScriptError(line_no, f"tick {exc}") from None
        if tick <= last_tick:
            raise ScriptError(line_no, f"tick {tick} does not increase (previous {last_tick})")
        last_tick = tick
        node, verb = fields[1], fields[2]
        if verb not in VERBS.keys() | _DIRECTIVE_VERBS:
            raise ScriptError(line_no, f"unknown verb {verb!r}")
        try:
            params = tuple(split_token(token, "=", "key=value") for token in fields[3:])
            require_unique_keys(params)
        except CommandError as exc:
            raise ScriptError(line_no, f"argument {exc}") from None
        command = None if verb in _DIRECTIVE_VERBS else _compile(line_no, verb, params)
        steps.append(ScriptStep(line_no, tick, node, verb, params, command))
    return steps


def _compile(line_no: int, verb: str, params: tuple[tuple[str, str], ...]) -> Command:
    arg = dict(params)  # the credential keys are unique
    role_name = arg.get("role")
    try:
        role = Role(role_name) if role_name else Role.DOCTOR
    except ValueError:
        raise ScriptError(line_no, f"unknown role {role_name!r}") from None
    try:
        valid = boolean_word(arg.get("valid", "1"))
    except ValueError as exc:
        raise ScriptError(line_no, f"valid= {exc}") from None
    cred_keys = {"actor", "role", "valid"}
    args = tuple((k, v) for k, v in params if k not in cred_keys)
    return Command(verb, arg.get("actor", "anonymous"), role, valid, args)


def run_scenario(config: SimConfig, script: str, catalog_entries=DEFAULT_CATALOG) -> str:
    """Execute a script and return the full transcript.

    The transcript is line-oriented with a stable field order, so equal
    (config, script) pairs produce byte-identical output.
    """
    steps = parse_script(script)
    net = Network(config, catalog_entries)
    lines = [
        "CONFIG nodes={} seed={} drop={} byzantine={} confirm>{} repair>={} catalog={}".format(
            config.node_count,
            config.seed,
            config.drop_rate,
            ",".join(sorted(config.byzantine)) or "-",
            MAJORITY_PERCENT,
            MAJORITY_PERCENT,
            ",".join(f"{c}:{l}" for c, l in catalog_entries),
        )
    ]
    for step in steps:
        if step.verb == "tamper":
            arg = dict(step.params)
            chain, field = arg.get("chain"), arg.get("field")
            patient, index = arg.get("patient", "0"), arg.get("index", "0")
            try:
                where = canonical_int(patient), canonical_int(index)
                net.tamper(step.node, chain or "", *where, field or "", arg.get("value") or "")
                status = "ok"
            except (NoSuchBlock, ValueError) as exc:
                status = f"error:{type(exc).__name__}"
            lines.append(
                f"TAMPER tick={step.tick} node={step.node} chain={chain} patient={patient} index={index} "
                f"field={field} status={status}"
            )
            continue
        if step.verb == "audit-repair":
            entries = net.audit_and_repair()
            lines.append(f"REPAIR-RUN tick={step.tick} node={step.node} entries={len(entries)}")
            lines += [
                f"REPAIR node={e.node} chain={e.chain} coord={e.coord} action={e.action}"
                for e in entries
            ]
            continue
        command = step.command
        try:
            proposal = net.propose(step.node, command)
        except NotAuthorized:
            lines.append(
                f"REJECTED tick={step.tick} node={step.node} verb={command.verb} reason=NotAuthorized"
            )
            continue
        lines.append(
            "PROPOSE seq={} tick={} node={} verb={} actor={} role={} valid={} {}".format(
                proposal.seq,
                step.tick,
                step.node,
                command.verb,
                command.actor,
                command.role.value,
                int(command.valid),
                command.render_args(),
            ).rstrip()
        )
        lines += [f"VOTE seq={proposal.seq} node={nid} vote={vote}" for nid, vote in proposal.votes]
        word = "COMMIT" if proposal.committed else "REJECT"
        lines.append(
            f"{word} seq={proposal.seq} yes={proposal.confirmations} n={len(net.approved)}"
        )
        if proposal.committed:
            lines.append(
                f"APPLY seq={proposal.seq} outcome={proposal.outcome} result={proposal.result}"
            )
    for nid in net.approved:
        lines.append(f"FINAL node={nid} state={net.nodes[nid].replica.state_digest()}")
    return "\n".join(lines) + "\n"
