"""Tamper-evident patient record ledger with audited access.

A main identity chain anchors, per patient, a medical subchain and an
access-log subchain whose blocks triple-cross-hash the identity block,
the referenced medical block and the previous log block. A deterministic
simulated network replicates the ledger under quorum confirmation and
repairs tampered blocks from the majority.

Each name is imported from the module that defines it; the package
itself re-exports none, so importing one module loads only what that
module needs.
"""
