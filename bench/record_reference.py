"""Record the sha256 digests of the fixed inputs' outputs.

    python3 bench/record_reference.py

Writes bench/reference.json.  Run it only at a commit whose outputs are
known to be right: the benchmark counts every later difference as a failed
operation.  The chart workload is seeded and is checked by its oracle
instead.
"""

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in ("catalog", "heisenberg", "sweep"):
        cli, _, ops = run.setup(workload, 0, run.WORK_DIR / "reference")
        for op in ops:
            code, out, error, _, _ = run.run_operation(cli, op)
            if code != 0 or error:
                print(f"{op.name}: exit {code} {error or ''}", file=sys.stderr)
                return 1
            digests[op.name] = workloads.sha256(out)
    workloads.REFERENCE_FILE.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
