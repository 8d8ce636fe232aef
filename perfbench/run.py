"""medledger benchmark: one closed-loop client, checked against an oracle.

    python3 perfbench/run.py --workload clinic_cli --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository: it imports medledger from the
checkout's src/ and keeps its scratch stores in .perfbench_work/ and
traces in .perfbench_out/ there. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
run with `--trace 1`. Lines before it are information (raw wall figures,
sample counts). Exit code 0 on a checked run, 1 when an output disagreed
with the oracle, 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Import medledger from this checkout's src/, never from anywhere else."""
    if not (SRC / "medledger" / "__init__.py").is_file():
        print(f"perfbench: no medledger sources under {SRC}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(SRC)]
    import medledger

    if Path(medledger.__file__).resolve().parent != (SRC / "medledger").resolve():
        print(f"perfbench: imported medledger from {medledger.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from measure import measure
    from oracle import OracleError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        metrics, attempted, info = measure(workload, args.seconds, bool(args.trace), ROOT / ".perfbench_out")
    except OracleError:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in info:
        print(line)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
