"""Write the reference tables that the benchmark checks outputs against.

Run from the root of a checkout whose outputs are known to be right:

    python3 bench/make_reference.py

Each workload runs once at full size and, where it has one, once at its
smoke size.  Only the checked columns are stored (see ``workloads.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

from workloads import WORKLOADS, read_rows, write_reference


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    for workload in WORKLOADS.values():
        for smoke in sorted({False, workload.smoke_args is not None}):
            with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
                args = workload.cli_args(out_dir, seed=0, smoke=smoke)
                subprocess.run(
                    [sys.executable, "-m", "spinsqueeze", *args],
                    cwd=root, env=env, check=True, stdout=subprocess.DEVNULL,
                )
                rows = read_rows(os.path.join(out_dir, workload.table))
            path = workload.reference_path(smoke)
            write_reference(workload, rows, path)
            print(f"{path}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
