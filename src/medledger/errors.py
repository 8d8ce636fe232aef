"""Exception types shared across the package."""


class LedgerError(Exception):
    """Base class for domain errors raised by ledger operations."""


class AccessDenied(LedgerError):
    """Credential invalid, role not permitted, or self-access mismatch."""


class DuplicateIdentity(LedgerError):
    """Fiscal code is already active for another patient."""


class UnknownPatient(LedgerError):
    """Patient index does not resolve to an onboarded patient."""


class SubchainClosed(LedgerError):
    """Medical subchain carries a final marker; writes are refused."""


class UnknownRecordType(LedgerError):
    """Record type is not in the active catalog."""


class NoChange(LedgerError):
    """Fiscal-code change to the code already in force."""


class DuplicateCatalogCode(LedgerError):
    """Catalog update collides with an existing code."""


class NotAuthorized(LedgerError):
    """Proposing node is not on the approved-node list."""


class NoSuchBlock(LedgerError):
    """Tamper target coordinate does not exist on the replica."""


class ReplicaDivergence(LedgerError):
    """A committed command had different outcomes on two replicas, which
    only a raw tamper of one of them can cause."""


class EmptyLeafSet(ValueError):
    """Merkle tree requested over zero leaves."""


class IndexOutOfRange(IndexError):
    """Merkle proof requested for a leaf index outside the tree."""


class StorageError(Exception):
    """Ledger directory missing, unreadable, or structurally unusable."""


class CorruptChain(StorageError):
    """A persisted chain file failed framing or decoding.

    Carries the offending file name and byte offset.
    """

    def __init__(self, filename: str, offset: int, reason: str):
        super().__init__(f"{filename} @ {offset}: {reason}")
        self.filename = filename
        self.offset = offset
        self.reason = reason


class TamperedStore(StorageError):
    """Persisted state decoded cleanly but failed integrity verification."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} violation(s): {lines}{extra}")


class CommandError(ValueError):
    """Malformed command: unknown verb, missing or unparsable argument,
    a string that does not encode as UTF-8, or a code the ledger reserves."""


class ConfigError(ValueError):
    """Simulation configuration out of range: no nodes, a byzantine node
    not on the approved list, or a drop rate outside [0, 1)."""


class ScriptError(Exception):
    """Malformed scenario script."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason
