"""Correctness oracle, computed apart from the program.

`LedgerModel` is the benchmark's own model of what the ledger must hold:
per patient, the entries of every medical block in order, the closed
flag and the coordinate of every access-log block. Reads and reports are checked
against a linear scan of it, never against the program's indexes or
typed backlinks. The other checks are properties of the method: replicas
agree, repair names exactly what was tampered, a tamper is reported at
its coordinate, and a stored self-hash is the Merkle root of the block's
field groups recomputed here with hashlib alone.

Every check raises OracleError with what was expected and what was seen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


class OracleError(AssertionError):
    """The program's output disagrees with the oracle."""


def expect(what: str, expected, actual) -> None:
    if expected != actual:
        raise OracleError(f"{what}: expected {expected!r}, got {actual!r}")


@dataclass
class PatientModel:
    code: str
    # one tuple of (record_type, payload) per medical block; () marks the final block
    blocks: list[tuple[tuple[str, bytes], ...]] = field(default_factory=list)
    closed: bool = False
    logs: list[str] = field(default_factory=list)  # coordinate label of every log block

    def copy(self) -> "PatientModel":
        return PatientModel(self.code, list(self.blocks), self.closed, list(self.logs))


class LedgerModel:
    """Expected content of the ledger, advanced op by op by the workload."""

    def __init__(self) -> None:
        self.patients: dict[int, PatientModel] = {}
        self.main_len = 1  # the system genesis block

    def copy(self) -> "LedgerModel":
        dup = LedgerModel()
        dup.patients = {p: m.copy() for p, m in self.patients.items()}
        dup.main_len = self.main_len
        return dup

    def open_patients(self) -> list[int]:
        return [p for p, m in self.patients.items() if not m.closed]

    def closed_patients(self) -> list[int]:
        return [p for p, m in self.patients.items() if m.closed]

    def _log(self, p: int) -> str:
        """Coordinate label of the log block the next access to p appends."""
        m = self.patients[p]
        record = str(len(m.blocks)) if m.blocks else "-"
        m.logs.append(f"{p}.{record}.{len(m.logs) + 1}")
        return m.logs[-1]

    # -- ops; each returns what the program must return ----------------------

    def onboard(self, code: str) -> int:
        p = self.main_len
        self.main_len += 1
        self.patients[p] = PatientModel(code)
        return p

    def write(self, p: int, entries: list[tuple[str, bytes]]) -> tuple[str, str]:
        """(medical block label, log label)."""
        m = self.patients[p]
        m.blocks.append(tuple(entries))
        return f"{p}.{len(m.blocks)}", self._log(p)

    def close(self, p: int) -> str:
        m = self.patients[p]
        m.blocks.append(())
        m.closed = True
        self._log(p)
        return f"{p}.{len(m.blocks)}"

    def read(self, p: int, query: str) -> tuple[list[tuple[str, str, bytes]], str]:
        """Matching (block label, record_type, payload), oldest first, and the log label."""
        m = self.patients[p]
        hits: list[tuple[str, str, bytes]] = []
        if query == "latest":
            for i in range(len(m.blocks), 0, -1):
                if m.blocks[i - 1]:
                    hits = [(f"{p}.{i}", t, v) for t, v in m.blocks[i - 1]]
                    break
        else:
            for i, entries in enumerate(m.blocks, start=1):
                hits += [(f"{p}.{i}", t, v) for t, v in entries if t == query]
        return hits, self._log(p)

    def report(self, p: int, record_type: str) -> list[tuple[str, bytes]]:
        """Typed history, newest first (later blocks first, later entries first)."""
        m = self.patients[p]
        out: list[tuple[str, bytes]] = []
        for i in range(len(m.blocks), 0, -1):
            for t, v in reversed(m.blocks[i - 1]):
                if t == record_type:
                    out.append((f"{p}.{i}", v))
        self._log(p)
        return out

    def refuse(self, p: int) -> None:
        """A refused access attempt on a known patient still appends one log."""
        self._log(p)


# --- checks against program state ----------------------------------------------


def check_ledger(model: LedgerModel, ledger) -> None:
    """Every patient's chains hold exactly what the model says.

    Checks the red chain length (one log per access attempt), the medical
    entries in order, the final marker and the closed flag.
    """
    expect("main chain length", model.main_len, len(ledger.main_chain))
    expect("patients", sorted(model.patients), sorted(ledger.yellow))
    for p, m in model.patients.items():
        expect(f"patient {p} log blocks", m.logs, [blk.coord.label() for blk in ledger.red[p]])
        got = [
            () if blk.is_final else tuple((e.record_type, e.payload) for e in blk.entries)
            for blk in ledger.yellow[p]
        ]
        expect(f"patient {p} medical blocks", m.blocks, got)
        expect(f"patient {p} closed", m.closed, p in ledger.closed)
        expect(f"patient {p} fiscal code", m.code, ledger.main_chain[p].fiscal_code)


def merkle_root(leaves: list[bytes]) -> bytes:
    """Binary SHA-256 tree root; an odd level pairs its last digest with itself."""
    level = [hashlib.sha256(leaf).digest() for leaf in leaves]
    while True:
        level = [
            hashlib.sha256(level[i] + level[min(i + 1, len(level) - 1)]).digest()
            for i in range(0, len(level), 2)
        ]
        if len(level) == 1:
            return level[0]


def check_self_hash(block, field_groups) -> None:
    """The stored self_hash is the Merkle root over the block's field groups."""
    expect(
        f"self_hash of {type(block).__name__} {block.coord.label()}",
        merkle_root(list(field_groups(block))).hex(),
        block.self_hash.hex(),
    )


def check_digests_equal(what: str, digests: dict[str, str]) -> None:
    if len(set(digests.values())) != 1:
        raise OracleError(f"{what}: replica state digests differ: {digests}")


def check_repair(expected: set[tuple[str, str, str]], entries: list[tuple[str, str, str, str]]) -> None:
    """Repair replaced exactly the tampered (node, chain, coord) and nothing else.

    entries are (action, node, chain, coord), as in the porcelain output.
    """
    got = {(node, chain, coord) for action, node, chain, coord in entries if action == "replaced"}
    bad = [e for e in entries if e[0] != "replaced"]
    if bad:
        raise OracleError(f"repair left coordinates unrepaired: {bad}")
    expect("repaired coordinates", sorted(expected), sorted(got))
    expect("repair entry count", len(expected), len(entries))


def check_tamper_reported(violations: list[tuple[str, str, str]], chain: str, coord: str) -> None:
    """verify reports a failed self-hash check at the tampered coordinate.

    violations are (chain, coord, check), as in the porcelain output.
    """
    if (chain, coord, "self_hash") not in violations:
        seen = sorted(set(violations))[:8]
        raise OracleError(f"tamper of {chain} {coord} not reported; violations: {seen}")
