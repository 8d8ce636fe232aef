"""Tamper-evident patient record ledger with audited access.

A main identity chain anchors, per patient, a medical subchain and an
access-log subchain whose blocks triple-cross-hash the identity block,
the referenced medical block and the previous log block. A deterministic
simulated network replicates the ledger under quorum confirmation and
repairs tampered blocks from the majority.
"""

from .errors import (
    AccessDenied,
    CommandError,
    ConfigError,
    CorruptChain,
    DuplicateCatalogCode,
    DuplicateIdentity,
    EmptyLeafSet,
    IndexOutOfRange,
    LedgerError,
    NoChange,
    NoSuchBlock,
    NotAuthorized,
    ScriptError,
    StorageError,
    SubchainClosed,
    TamperedStore,
    UnknownPatient,
    UnknownRecordType,
)
from .ledger import Credential, Ledger, Role, Violation, verify_tree
from .network import Command, Network, SimConfig, repair_replicas, run_scenario
from .store import load, load_checked, load_raw, persist

__version__ = "0.1.0"

__all__ = [
    "AccessDenied",
    "Command",
    "CommandError",
    "ConfigError",
    "CorruptChain",
    "Credential",
    "DuplicateCatalogCode",
    "DuplicateIdentity",
    "EmptyLeafSet",
    "IndexOutOfRange",
    "Ledger",
    "LedgerError",
    "Network",
    "NoChange",
    "NoSuchBlock",
    "NotAuthorized",
    "Role",
    "ScriptError",
    "SimConfig",
    "StorageError",
    "SubchainClosed",
    "TamperedStore",
    "UnknownPatient",
    "UnknownRecordType",
    "Violation",
    "load",
    "load_checked",
    "load_raw",
    "persist",
    "repair_replicas",
    "run_scenario",
    "verify_tree",
]
