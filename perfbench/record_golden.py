"""Record every benchmark op's exit code and JSON sha256 into golden.json.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are trusted: run.py fails any op whose
output differs from what this records.
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ops = {}
    for workload, argvs in run.WORKLOADS.items():
        for argv in argvs:
            code, digest, seconds, _ = run.run_op(argv)
            ops[run.op_key(argv)] = {"exit": code, "sha256": digest}
            print(f"{workload}: {run.op_key(argv)} -> exit {code} ({seconds:.2f} s)",
                  file=sys.stderr)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"recorded_from": run.source_commit(), "src_sha256": run.source_digest(),
                   "cli_flags": run.CLI_FLAGS, "ops": ops}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
