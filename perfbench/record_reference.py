"""Record the reference digests that every benchmark pass is checked against.

Run once, from the root of a checkout of the commit whose outputs define
"correct" (CLI output is kept byte-for-byte across versions):

    python3 perfbench/record_reference.py

It runs one pass of each workload and writes ``perfbench/reference.json``:
the SHA-256 of every CLI operation's stdout and of every refined row
g_n(1k), 2 <= k <= n, read in the deep_tables workload.
"""

import json
import os
import sys

from run import BENCH_DIR, WORKLOADS, spawn_child


def main():
    root = os.getcwd()
    reference = {"stdout_sha256": {}, "refined_row_sha256": {}}
    for workload in WORKLOADS:
        result = spawn_child(root, ["--workload", workload, "--record"],
                             timeout=600)
        for key, digests in result["reference"].items():
            reference[key].update(digests)
    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
