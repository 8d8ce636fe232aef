"""Traced run: spans and counts at every layer boundary of medledger.

The tracer wraps public functions of `merkle`, `blocks`, `ledger`,
`network`, `store` and `cli` from outside; no file under `src/` changes.
A name imported elsewhere with `from .x import name` is a second binding
of the same function, so `install` replaces every binding of the
original in every loaded medledger module (for example `block_hash` in
`blocks`, `ledger` and `network`). Methods are replaced on their class.

A span is (name, start, end, parent span, op id), kept in flat arrays
and written out at the end. A layer's self time is its span's duration
minus the durations of its direct children; calls are synchronous, so
children never overlap. `merkle.sha256` runs six times per block hash,
so it is counted, not spanned, to keep the trace and its overhead small.
Spans and counts are recorded only while the benchmark has an operation
open; the oracle's own calls into medledger are not traced.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# module -> public functions wrapped with a span
SPANNED_FUNCTIONS = {
    "medledger.merkle": ["build_tree", "prove", "verify"],
    "medledger.blocks": ["block_hash", "encode_record", "decode_record", "encode_note", "decode_note"],
    "medledger.ledger": ["verify_tree"],
    "medledger.network": ["repair_replicas"],
    "medledger.store": ["persist", "load", "load_raw"],
    "medledger.cli": ["main"],
}
# class -> public methods wrapped with a span
SPANNED_METHODS = {
    ("medledger.ledger", "Ledger"): [
        "onboard_patient", "write_record", "read_record", "assemble_report",
        "close_subchain", "change_fiscal_code", "update_catalog",
        "active_catalog", "clone", "snapshot_bytes", "state_digest",
    ],
    ("medledger.network", "Network"): ["propose", "audit_and_repair", "tamper"],
    ("medledger.network", "Command"): ["apply"],
}
# module -> functions counted only
COUNTED_FUNCTIONS = {"medledger.merkle": ["sha256"]}
# store calls around which /proc/self/io read and write counters are sampled
IO_SAMPLED = {"store.persist", "store.load", "store.load_raw"}

ACCESS_KINDS = ("write", "read", "report", "onboard", "close", "refused")
DEFAULT_SPAN_CAP = 500_000


def _read_io() -> tuple[int, int]:
    """(rchar, wchar) of this process; (0, 0) where /proc is not available."""
    try:
        with open("/proc/self/io", "rb") as f:
            fields = dict(line.split(b": ") for line in f.read().splitlines())
        return int(fields[b"rchar"]), int(fields[b"wchar"])
    except (OSError, KeyError, ValueError):
        return 0, 0


class Tracer:
    def __init__(self, span_cap: int = DEFAULT_SPAN_CAP):
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()  # (name, op kind) -> calls, for counted names
        self.io: Counter = Counter()  # (op kind, "read"|"written") -> bytes
        self.appended: Counter = Counter()  # op kind -> encoded bytes the op appended
        self.op_kinds: dict[int, str] = {}
        self.active = False
        self._op_id = 0
        self._kind = ""
        self._patches: list[tuple[object, str, object]] = []
        a, b = _read_io(), _read_io()
        self._io_bias = (b[0] - a[0], b[1] - a[1])  # what one read of /proc/self/io adds

    # -- operation context ------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        if not self._patches:
            return
        self._op_id, self._kind = op_id, kind
        self.op_kinds[op_id] = kind
        self.active = True

    def end_op(self) -> None:
        self.active = False

    @property
    def full(self) -> bool:
        return len(self.name) >= self.span_cap

    # -- wrappers -----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name: str, fn):
        nid = self._id(name)
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            i = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr._op_id)
            tr.end.append(0.0)
            tr._stack.append(i)
            tr.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                tr._stack.pop()

        if name not in IO_SAMPLED:
            return traced

        @functools.wraps(fn)
        def io_sampled(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            r0, w0 = _read_io()
            try:
                return traced(*args, **kwargs)
            finally:
                r1, w1 = _read_io()
                tr.io[(tr._kind, "read")] += r1 - r0 - tr._io_bias[0]
                tr.io[(tr._kind, "written")] += w1 - w0 - tr._io_bias[1]

        return io_sampled

    def _counted(self, name: str, fn):
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tr.active:
                tr.counts[(name, tr._kind)] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace every binding of every traced function in medledger."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items()) if n == "medledger" or n.startswith("medledger.")]
        for table, make in ((SPANNED_FUNCTIONS, self._spanned), (COUNTED_FUNCTIONS, self._counted)):
            for mod_name, attrs in table.items():
                for attr in attrs:
                    original = getattr(sys.modules[mod_name], attr)
                    wrapper = make(f"{mod_name.split('.')[-1]}.{attr}", original)
                    for module in modules:
                        for bound, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, bound, wrapper)
        for (mod_name, cls_name), methods in SPANNED_METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            for attr in methods:
                layer = mod_name.split(".")[-1]
                self._patch(cls, attr, self._spanned(f"{layer}.{cls_name}.{attr}", vars(cls)[attr]))

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self) -> list[str]:
        """Where each wrapper was installed, as `module.binding` lines."""
        out = []
        for owner, attr, _ in self._patches:
            where = owner.__name__ if isinstance(owner, type(sys)) else f"{owner.__module__}.{owner.__name__}"
            out.append(f"{where}.{attr}")
        return out

    # -- derived figures ----------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str], list[float]]:
        """(span name, op kind) -> [calls, inclusive seconds, self seconds]."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[tuple[str, str], list[float]] = {}
        for i in range(n):
            key = (self.names[self.name[i]], self.op_kinds[self.op[i]])
            acc = out.setdefault(key, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: a header, then [name, start, end, parent, op]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            header = {"names": self.names, "op_kinds": self.op_kinds, "counts": [[k[0], k[1], v] for k, v in self.counts.items()]}
            f.write(json.dumps(header) + "\n")
            for i in range(len(self.name)):
                f.write(f"[{self.name[i]},{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]},{self.op[i]}]\n")


# name -> unit; every traced run prints all of them (0 where a layer is not used)
LAYER_METRICS = {
    "merkle.sha256_per_op": "count",
    "merkle.build_tree_per_op": "count",
    "blocks.block_hash_per_op": "count",
    "blocks.block_hash_per_write": "count",
    "blocks.block_hash_per_read": "count",
    "blocks.block_hash_per_report": "count",
    "blocks.block_hash_ms_per_op": "ms",
    "blocks.records_encoded_per_op": "count",
    "blocks.records_decoded_per_op": "count",
    "blocks.codec_ms_per_op": "ms",
    "ledger.write_ms": "ms",
    "ledger.read_ms": "ms",
    "ledger.report_ms": "ms",
    "ledger.active_catalog_ms_per_op": "ms",
    "ledger.verify_tree_ms": "ms",
    "ledger.clone_per_op": "count",
    "ledger.clone_ms_per_op": "ms",
    "network.applies_per_commit": "count",
    "network.propose_self_ms": "ms",
    "network.repair_replicas_ms": "ms",
    "store.persist_ms_per_op": "ms",
    "store.load_ms_per_op": "ms",
    "store.bytes_written_per_op": "bytes",
    "store.bytes_read_per_op": "bytes",
    "store.write_amplification": "ratio",
    "cli.self_ms_per_op": "ms",
    "trace.overhead_ms_per_op": "ms",
}

_CODEC = ("blocks.encode_record", "blocks.encode_note", "blocks.decode_record", "blocks.decode_note")


def layer_metrics(tracer: Tracer, factor: float, overhead_s_per_op: float) -> dict[str, float]:
    """Per-layer figures from the spans and counts of the traced rounds.

    `_per_op` figures are per access operation; `_ms` figures are self
    time, scaled by the run's reference factor like every other time,
    except `blocks.block_hash_ms_per_op`, `ledger.active_catalog_ms_per_op`
    and `ledger.clone_ms_per_op`, which include their children.
    """
    agg = tracer.aggregate()
    kinds_seen = Counter(tracer.op_kinds.values())
    access = ACCESS_KINDS
    n_ops = sum(kinds_seen[k] for k in access) or 1

    def calls(name, kinds=access):
        return sum(agg.get((name, k), (0, 0, 0))[0] for k in kinds)

    def incl_ms(name, kinds=access):
        return 1e3 * factor * sum(agg.get((name, k), (0, 0, 0))[1] for k in kinds)

    def self_ms(name, kinds=access):
        return 1e3 * factor * sum(agg.get((name, k), (0, 0, 0))[2] for k in kinds)

    def per(x, n):
        return x / n if n else 0.0

    every = tuple(kinds_seen)
    hashes = "blocks.block_hash"
    propose = "network.Network.propose"
    applies_in_propose = 0
    parents = tracer.parent
    names = tracer.names
    apply_id = tracer._name_ids.get("network.Command.apply", -2)
    for i in range(len(tracer.name)):
        if tracer.name[i] == apply_id and parents[i] >= 0 and names[tracer.name[parents[i]]] == propose:
            applies_in_propose += 1
    io_read = sum(tracer.io[(k, "read")] for k in access)
    io_written = sum(tracer.io[(k, "written")] for k in access)
    appended = sum(tracer.appended[k] for k in access)
    return {
        "merkle.sha256_per_op": per(sum(tracer.counts[("merkle.sha256", k)] for k in access), n_ops),
        "merkle.build_tree_per_op": per(calls("merkle.build_tree"), n_ops),
        "blocks.block_hash_per_op": per(calls(hashes), n_ops),
        "blocks.block_hash_per_write": per(calls(hashes, ("write",)), kinds_seen["write"]),
        "blocks.block_hash_per_read": per(calls(hashes, ("read",)), kinds_seen["read"]),
        "blocks.block_hash_per_report": per(calls(hashes, ("report",)), kinds_seen["report"]),
        "blocks.block_hash_ms_per_op": per(incl_ms(hashes), n_ops),
        "blocks.records_encoded_per_op": per(calls(_CODEC[0]) + calls(_CODEC[1]), n_ops),
        "blocks.records_decoded_per_op": per(calls(_CODEC[2]) + calls(_CODEC[3]), n_ops),
        "blocks.codec_ms_per_op": per(sum(self_ms(c) for c in _CODEC), n_ops),
        "ledger.write_ms": per(self_ms("ledger.Ledger.write_record"), calls("ledger.Ledger.write_record")),
        "ledger.read_ms": per(self_ms("ledger.Ledger.read_record"), calls("ledger.Ledger.read_record")),
        "ledger.report_ms": per(self_ms("ledger.Ledger.assemble_report"), calls("ledger.Ledger.assemble_report")),
        "ledger.active_catalog_ms_per_op": per(incl_ms("ledger.Ledger.active_catalog"), n_ops),
        "ledger.verify_tree_ms": per(self_ms("ledger.verify_tree", every), calls("ledger.verify_tree", every)),
        "ledger.clone_per_op": per(calls("ledger.Ledger.clone"), n_ops),
        "ledger.clone_ms_per_op": per(incl_ms("ledger.Ledger.clone"), n_ops),
        "network.applies_per_commit": per(applies_in_propose, calls(propose, every)),
        "network.propose_self_ms": per(self_ms(propose, every), calls(propose, every)),
        "network.repair_replicas_ms": per(
            self_ms("network.repair_replicas", every), calls("network.repair_replicas", every)
        ),
        "store.persist_ms_per_op": per(self_ms("store.persist"), n_ops),
        "store.load_ms_per_op": per(self_ms("store.load") + self_ms("store.load_raw"), n_ops),
        "store.bytes_written_per_op": per(io_written, n_ops),
        "store.bytes_read_per_op": per(io_read, n_ops),
        "store.write_amplification": per(io_written, appended),
        "cli.self_ms_per_op": per(self_ms("cli.main"), n_ops),
        "trace.overhead_ms_per_op": 1e3 * factor * overhead_s_per_op,
    }
