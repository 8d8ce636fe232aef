"""Operator command line for the ledger, the store and the simulator.

Exit codes: 0 success, 1 domain error (AccessDenied, SubchainClosed, ...),
2 usage or storage error. Output is line-oriented; --porcelain switches to
tab-separated fields for scripting.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from pathlib import Path

from . import store
from .blocks import canonical_int
from .errors import CommandError, ConfigError, CorruptChain, LedgerError, NoSuchBlock, ScriptError, StorageError
from .ledger import Ledger, Role, require_code
from .network import (
    DEFAULT_CATALOG,
    Command,
    SimConfig,
    repair_replicas,
    require_utf8,
    run_scenario,
    split_token,
)


def _catalog(tokens: list[str]) -> list[tuple[str, str]]:
    """The CODE:LABEL pairs of a genesis catalog; a token that is not UTF-8,
    a reserved code or a repeated code is a usage error."""
    require_utf8(tokens)
    catalog = [split_token(token, ":", "CODE:LABEL") for token in tokens]
    codes = [require_code(code, catalog=True) for code, _ in catalog]
    for code in codes:
        if codes.count(code) > 1:
            raise CommandError(f"catalog code {code!r} given more than once")
    return catalog


def _emit(args, human: str, porcelain_fields: list[str]) -> None:
    print("\t".join(porcelain_fields) if args.porcelain else human)


def _show_payload(args, payload: bytes) -> str:
    if args.porcelain:
        return payload.hex()
    return payload.decode("utf-8", errors="replace")


def _cmd_init(args) -> int:
    directory = Path(args.dir)
    store.create(Ledger.genesis(_catalog(args.catalog)), directory)
    _emit(args, f"initialized ledger at {directory}", ["initialized", str(directory)])
    return 0


def _render_read(args, result) -> None:
    matches, log = result
    for coord, entry in matches:
        _emit(
            args,
            f"{coord.label()} {entry.record_type}: {_show_payload(args, entry.payload)}",
            [coord.label(), entry.record_type, _show_payload(args, entry.payload)],
        )
    _emit(args, f"{len(matches)} entries, log {log.coord.label()}", ["log", log.coord.label()])


def _render_report(args, report) -> None:
    for coord, payload in report:
        _emit(
            args,
            f"{coord.label()} {args.type}: {_show_payload(args, payload)}",
            [coord.label(), args.type, _show_payload(args, payload)],
        )
    _emit(args, f"{len(report)} entries (newest first)", ["entries", str(len(report))])


def _render_block(human: str, word: str):
    """Renderer of a verb whose result is one block, shown by its coordinate."""
    return lambda args, block: _emit(args, human.format(block.coord.label()), [word, block.coord.label()])


# one renderer per ledger verb, fed the raw result of the verb's Ledger method
_RENDER = {
    "onboard": lambda args, p: _emit(args, f"patient {p} onboarded", ["patient", str(p)]),
    "write": lambda args, r: _emit(
        args,
        f"medical block {r[0].coord.label()} written, log {r[1].coord.label()}",
        ["written", r[0].coord.label(), r[1].coord.label()],
    ),
    "read": _render_read,
    "report": _render_report,
    "close": _render_block("subchain closed with final block {}", "closed"),
    "change-code": _render_block("fiscal code changed, identity block {}", "changed"),
    "catalog-add": _render_block("catalog block {} appended", "catalog"),
}
# the single-valued flags of the ledger verbs, named as their command keys
_ARG_KEYS = ("code", "patient", "query", "type", "new_code")


def _cmd_ledger(args) -> int:
    """Every ledger verb: parse, apply and commit in one store session,
    then render what was committed. A domain error is committed too
    (failed attempts must reach the audit chain)."""
    pairs = [(key, str(getattr(args, key))) for key in _ARG_KEYS if hasattr(args, key)]
    pairs += [("entry", token) for token in getattr(args, "entry", [])]
    for token in getattr(args, "info", []):
        key, val = split_token(token, "=", "KEY=VALUE")
        pairs.append(("info." + key, val))
    command = Command(args.verb, args.actor, Role(args.role), args.valid, tuple(pairs))
    parsed = command.parse(args.place)  # a malformed command never touches the store
    with store.session(args.dir) as (ledger, commit):
        try:
            result = command.run(ledger, parsed)
        except LedgerError:
            commit()
            raise  # main prints it and exits 1
        commit()
    _RENDER[args.verb](args, result)
    return 0


def _cmd_verify(args) -> int:
    violations = store.load_checked(Path(args.dir))[1]
    if not violations:
        _emit(args, "OK 0 violations", ["OK", "0"])
        return 0
    for v in violations:
        _emit(args, str(v), [v.chain, v.coord, v.check, v.detail])
    _emit(args, f"FAIL {len(violations)} violations", ["FAIL", str(len(violations))])
    return 1


def _cmd_tamper(args) -> int:
    try:
        patient, index = canonical_int(args.patient), canonical_int(args.index)
    except ValueError as exc:
        raise CommandError(f"tamper {exc}") from None
    with store.session(args.dir, raw=True) as (ledger, commit):
        try:
            ledger.tamper(args.chain, patient, index, args.field, args.value)
        except (NoSuchBlock, ValueError) as exc:
            raise StorageError(f"cannot tamper with {Path(args.dir)}: {exc}") from None
        commit()
    _emit(
        args,
        f"tampered {args.chain} block {args.index} field {args.field}",
        ["tampered", args.chain, str(args.index), args.field],
    )
    return 0


def _cmd_sim(args) -> int:
    raw = Path(args.script).read_bytes()
    try:
        script = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScriptError(raw.count(b"\n", 0, exc.start) + 1, "not UTF-8") from None
    config = SimConfig(
        node_count=args.nodes,
        seed=args.seed,
        byzantine=frozenset(args.byzantine.split(",")) if args.byzantine else frozenset(),
        drop_rate=args.drop_rate,
    )
    catalog = tuple(_catalog(args.catalog)) if args.catalog else DEFAULT_CATALOG
    transcript = run_scenario(config, script, catalog)
    if args.out:
        Path(args.out).write_text(transcript, encoding="utf-8")
        print(f"transcript written to {args.out}")
    else:
        sys.stdout.write(transcript)
    return 0


def _cmd_audit_repair(args) -> int:
    resolved = [Path(d).resolve() for d in args.dirs]
    for d, path in zip(args.dirs, resolved):
        if resolved.count(path) > 1:  # one replica must not vote twice
            raise CommandError(f"replica directory {d!r} given more than once")
    with ExitStack() as stack:  # every replica's session open from its load through its commit
        replicas, commits = {}, {}
        shared = {}  # a chain file's bytes, count and blocks, as the first replica that read it decoded them
        for path, d in sorted(zip(resolved, args.dirs)):  # locked in path order
            try:
                replicas[d], commits[d] = stack.enter_context(store.session(path, raw=True, shared=shared))
            except CorruptChain as exc:  # name the replica, not only its file
                raise CorruptChain(str(Path(d) / exc.filename), exc.offset, exc.reason) from None
        entries = repair_replicas({d: replicas[d] for d in args.dirs})
        replaced = {e.node for e in entries if e.action == "replaced"}
        for d in args.dirs:
            if d in replaced:
                commits[d]()
    for e in entries:
        _emit(args, str(e), [e.action, e.node, e.chain, e.coord])
    _emit(args, f"{len(entries)} repair entries", ["entries", str(len(entries))])
    return 0


def _ledger_verb(sub, verb: str, help_text: str, patient: bool = True) -> argparse.ArgumentParser:
    """Subcommand of one ledger verb, with the store and credential flags."""
    parser = sub.add_parser(verb, help=help_text)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--actor", required=True, help="credential holder identity")
    parser.add_argument(
        "--role", required=True, choices=[r.value for r in Role], help="credential role"
    )
    parser.add_argument(
        "--valid",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="credential validity (stubbed authentication)",
    )
    parser.add_argument("--place", default="cli", help="node identifier recorded in logs")
    if patient:
        parser.add_argument("--patient", required=True)  # Command.patient parses it
    parser.set_defaults(fn=_cmd_ledger)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medledger",
        description="Tamper-evident patient record ledger with audited access",
    )
    parser.add_argument("--porcelain", action="store_true", help="tab-separated output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("init", help="create a new ledger directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--catalog", action="append", required=True, metavar="CODE:LABEL")
    p.set_defaults(fn=_cmd_init)

    p = _ledger_verb(sub, "onboard", "register a patient", patient=False)
    p.add_argument("--code", required=True, help="fiscal code")
    p.add_argument("--info", action="append", default=[], metavar="KEY=VALUE")

    p = _ledger_verb(sub, "write", "append a medical record block")
    p.add_argument("--entry", action="append", required=True, metavar="TYPE:PAYLOAD")

    p = _ledger_verb(sub, "read", "read entries (appends a read log)")
    p.add_argument("--query", required=True, help="record type or 'latest'")

    p = _ledger_verb(sub, "report", "typed history, newest first")
    p.add_argument("--type", required=True)

    _ledger_verb(sub, "close", "close a patient's medical subchain")

    p = _ledger_verb(sub, "change-code", "record a fiscal code change")
    p.add_argument("--new-code", required=True)

    p = _ledger_verb(sub, "catalog-add", "append catalog codes", patient=False)
    p.add_argument("--entry", action="append", required=True, metavar="CODE:LABEL")

    p = sub.add_parser("verify", help="recheck every hash, link and cross-hash")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("tamper", help="raw-edit one stored block (integrity testing)")
    p.add_argument("--dir", required=True)
    p.add_argument("--chain", required=True, choices=["main", "yellow", "red"])
    p.add_argument("--patient", default="0")
    p.add_argument("--index", required=True, help="main position or 1-based record/log index")
    p.add_argument("--field", required=True)
    p.add_argument("--value", required=True)
    p.set_defaults(fn=_cmd_tamper)

    p = sub.add_parser("sim", help="run a scripted network scenario")
    p.add_argument("--nodes", type=canonical_int, required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--seed", type=canonical_int, default=0)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--byzantine", default="", help="comma-separated node ids")
    p.add_argument("--catalog", action="append", metavar="CODE:LABEL")
    p.add_argument("--out", help="write the transcript to a file")
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("audit-repair", help="majority repair across replica directories")
    p.add_argument("--dirs", nargs="+", required=True)
    p.set_defaults(fn=_cmd_audit_repair)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LedgerError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}")
        return 1
    except (StorageError, ScriptError, CommandError, ConfigError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

