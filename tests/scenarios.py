"""Seeded random scenario scripts for the replicated network.

Each scenario is a (SimConfig, script) pair: one to seven nodes, message
drops, byzantine refusers, well-formed and malformed commands from every
role, raw tampers of main, yellow and red fields, and majority repairs.

Differential mode prints one digest per scenario, so that two checkouts
can be compared line by line:

    python tests/scenarios.py SRC SEED COUNT

SRC is the `src` directory of the checkout to import medledger from;
SEED and COUNT are integers written as str writes them (canonical_int),
COUNT at least 0. On any other arguments it prints its usage line and
exits 2.
tests/golden/scenario_digests.txt holds these lines for seeds 1 to 3 and
300 scenarios each, every line prefixed with its seed (golden_lines);
tests/golden/regenerate.py writes it and a tier-1 test compares it.
"""

from __future__ import annotations

import hashlib
import random
import sys

USAGE = "usage: python tests/scenarios.py SRC SEED COUNT; SEED and COUNT integers as str writes them, COUNT at least 0"

if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, sys.argv[1])

from medledger.blocks import canonical_int  # noqa: E402
from medledger.errors import ReplicaDivergence  # noqa: E402
from medledger.network import SimConfig, run_scenario  # noqa: E402

CATALOG = (("general", "General checkup"), ("xray", "X-ray"))
ROLES = ("authority", "doctor", "patient")
TAMPERS = {
    "main": (("fiscal_code", "forged"), ("info.name", "Eve"), ("variant", "catalog")),
    "yellow": (("entry.0.payload", "forged"), ("is_final", "true"), ("prev_yellow", "00" * 32)),
    "red": (("actor", "mallory"), ("viewed", "READ:none"), ("timestamp", "0"), ("h_main", "11" * 32)),
}


def _cred(rng: random.Random, usual: str) -> str:
    """Mostly the role the verb grants; sometimes another, a patient acting
    as a fiscal code, or an invalid credential."""
    role = usual if rng.random() < 0.7 else rng.choice(ROLES)
    actor = f"FC{rng.randint(1, 6)}" if role == "patient" else rng.choice(("registry", "drb"))
    valid = " valid=0" if rng.random() < 0.1 else ""
    return f"actor={actor} role={role}{valid}"


def _command(rng: random.Random) -> str:
    """The verb and arguments of one proposal, about one in ten malformed."""
    p = rng.randint(1, 4) if rng.random() < 0.9 else rng.choice((0, 9))
    kind = rng.choices(
        ["onboard", "write", "read", "report", "close", "change-code", "catalog-add", "malformed"],
        weights=[14, 30, 18, 8, 4, 6, 4, 10],
    )[0]
    if kind == "onboard":
        return f"onboard {_cred(rng, 'authority')} code=FC{rng.randint(1, 6)} info.name=n{rng.randrange(9)}"
    if kind == "write":
        types = rng.choices(["general", "xray", "mri"], k=rng.randint(1, 2))
        entries = " ".join(f"entry={t}:v{rng.randrange(99)}" for t in types)
        return f"write {_cred(rng, 'doctor')} patient={p} {entries}"
    if kind == "read":
        return f"read {_cred(rng, 'doctor')} patient={p} query={rng.choice(['latest', 'general', 'xray'])}"
    if kind == "report":
        return f"report {_cred(rng, 'doctor')} patient={p} type={rng.choice(['general', 'xray'])}"
    if kind == "close":
        return f"close {_cred(rng, 'authority')} patient={p}"
    if kind == "change-code":
        return f"change-code {_cred(rng, 'authority')} patient={p} new_code=FC{rng.randint(1, 9)}"
    if kind == "catalog-add":
        return f"catalog-add {_cred(rng, 'authority')} entry={rng.choice(['mri', 'ct', 'xray'])}:Scan"
    return rng.choice(
        [
            "write actor=drb role=doctor patient=x entry=general:v",
            "write actor=drb role=doctor patient=1",
            "write actor=drb role=doctor patient=1 entry=general",
            "read actor=drb role=doctor patient=1",
            "catalog-add actor=registry role=authority entry=nolabel",
        ]
    )


def scenario(seed: int, index: int) -> tuple[SimConfig, str]:
    """The index-th scenario of a seed; equal arguments give equal scenarios."""
    rng = random.Random(seed * 1_000_003 + index)
    n = rng.randint(1, 7)
    nodes = [f"n{i}" for i in range(1, n + 1)]
    byzantine = frozenset(rng.sample(nodes, rng.randint(0, (n - 1) // 2)))
    drop_rate = rng.choice([0.0, 0.0, 0.1, 0.3])
    config = SimConfig(n, seed=rng.randrange(1000), byzantine=byzantine, drop_rate=drop_rate)
    onboards = rng.randint(1, 3)
    lines = [f"{t} n1 onboard actor=registry role=authority code=FC{t}" for t in range(1, onboards + 1)]
    for tick in range(onboards + 1, rng.randint(8, 30) + 1):
        node = rng.choice(nodes) if rng.random() < 0.95 else "n9"
        roll = rng.random()
        if roll < 0.12:
            chain = rng.choice(list(TAMPERS))
            field, value = rng.choice(TAMPERS[chain])
            patient = 0 if chain == "main" else rng.randint(1, 3)
            index = rng.randint(0, 4) if chain == "main" else rng.randint(1, 3)
            lines.append(
                f"{tick} {node} tamper chain={chain} patient={patient} index={index} "
                f"field={field} value={value}"
            )
        elif roll < 0.18:
            lines.append(f"{tick} {node} audit-repair")
        else:
            lines.append(f"{tick} {node} {_command(rng)}")
    return config, "\n".join(lines) + "\n"


def run(seed: int, index: int) -> str:
    """The transcript of one scenario, or the declared error it stops with."""
    config, script = scenario(seed, index)
    try:
        return run_scenario(config, script, CATALOG)
    except ReplicaDivergence as exc:
        return f"ERROR ReplicaDivergence: {exc}\n"


def digest(seed: int, index: int) -> str:
    """The first 32 hex digits of the SHA-256 of one scenario's outcome."""
    try:
        outcome = run(seed, index)
    except Exception as exc:  # an undeclared error is a result to diff, not a crash
        outcome = f"UNDECLARED {type(exc).__name__}: {exc}\n"
    return hashlib.sha256(outcome.encode()).hexdigest()[:32]


def golden_lines() -> list[str]:
    """The lines of tests/golden/scenario_digests.txt: "SEED INDEX DIGEST"
    for seeds 1 to 3, 300 scenarios each."""
    return [f"{seed} {i} {digest(seed, i)}" for seed in (1, 2, 3) for i in range(300)]


def main(argv: list[str]) -> int:
    """argv: the arguments after SRC. Prints "INDEX DIGEST" for the first
    COUNT scenarios of SEED."""
    try:
        seed, count = map(canonical_int, argv)  # ValueError also unless two arguments
    except ValueError:
        count = -1
    if count < 0:
        print(USAGE, file=sys.stderr)
        return 2
    for i in range(count):
        print(i, digest(seed, i))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
