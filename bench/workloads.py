"""The benchmark's workloads and the correctness gate on their outputs.

Each workload is one ``spinsqueeze`` CLI command.  Its output table is
compared row by row with a reference table stored in ``reference/``;
``make_reference.py`` writes those tables.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Reference values must match to this relative tolerance: loose enough
# for a solver change that moves output bits at the 1e-9 level, and no
# tighter than the steady-state solver's own residual limit of 1e-8.
REL_TOL = 1e-8
ABS_TOL = 1e-12
# Largest |mc_estimate - xi2_numeric| / mc_stderr accepted on a row.
# The trajectory estimate depends on the seed, so it is checked against
# the solver's value in the same row rather than against a stored one.
MAX_MC_Z = 5.0


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``{out}`` in the arguments is the call's output
    directory, and ``table`` names the output table inside it."""

    name: str
    why: str
    args: tuple[str, ...]
    table: str
    columns: tuple[str, ...]
    exact: tuple[str, ...] = ()
    smoke_args: tuple[str, ...] | None = None
    mc: bool = False

    def cli_args(self, out_dir: str, seed: int, smoke: bool) -> list[str]:
        args = self.smoke_args if smoke and self.smoke_args else self.args
        return [a.replace("{out}", out_dir) for a in args] + [
            "--seed", str(seed), "--workers", "1",
        ]

    def reference_path(self, smoke: bool) -> str:
        suffix = "-smoke" if smoke and self.smoke_args else ""
        return os.path.join(REFERENCE_DIR, f"{self.name}{suffix}.csv")


_SWEEP_FLOATS = ("n_photons", "r0", "alpha_eff", "xi2_field")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="numeric-deep",
            why="one 100-layer drift matrix and 25 sources: 50 dense Sylvester "
            "solves of the same matrix, the deep-stack and factorise-once axis",
            args=("numeric", "--set", "geometry.n_layers=100",
                  "--out", "{out}/table.csv"),
            smoke_args=("numeric", "--set", "geometry.n_layers=12",
                        "--set", "input.n_photons=log:0.01:1000:5",
                        "--out", "{out}/table.csv"),
            table="table.csv",
            columns=_SWEEP_FLOATS + ("xi2_numeric",),
            exact=("valid_all",),
        ),
        Workload(
            name="fig3b",
            why="100 distinct drift matrices (1 to 100 layers) with one source "
            "each: Sylvester, stability check and kernel assembly per depth",
            args=("fig3b", "--out", "{out}"),
            table="fig3b.csv",
            columns=("n_layers", "eta", "r0", "n_photons_opt", "xi2_min",
                     "xi2_numeric", "asym_small_nz", "asym_large_nz"),
        ),
        Workload(
            name="mc-check",
            why="trajectory oracle at 3 photon numbers, 10 layers: bypasses the "
            "Sylvester layer, so solver changes should leave it unchanged",
            args=("mc-check", "--set", "input.n_photons=0.1,1,10",
                  "--out", "{out}/table.csv"),
            smoke_args=("mc-check", "--set", "input.n_photons=0.1,1,10",
                        "--set", "mc.n_traj=8", "--set", "mc.t_burn=10",
                        "--set", "mc.t_avg=50", "--out", "{out}/table.csv"),
            table="table.csv",
            columns=_SWEEP_FLOATS + ("xi2_numeric",),
            exact=("valid_all",),
            mc=True,
        ),
        Workload(
            name="wide-grid",
            why="2000 cheap points on one 10-layer matrix as JSON: per-point "
            "overhead, serialisation and the analytic and validity layers",
            args=("sweep", "--set", "model=both",
                  "--set", "input.n_photons=log:0.01:1000:2000",
                  "--set", "input.purity=0.999", "--format", "json",
                  "--out", "{out}/table.json"),
            smoke_args=("sweep", "--set", "model=both",
                        "--set", "input.n_photons=log:0.01:1000:20",
                        "--set", "input.purity=0.999", "--format", "json",
                        "--out", "{out}/table.json"),
            table="table.json",
            columns=("n_photons", "xi2_analytic", "xi2_anti", "xi2_numeric"),
            exact=("valid_all",),
        ),
    )
}


def _text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def read_rows(path: str) -> list[dict[str, object]]:
    """Rows of a CSV table, or of the ``rows`` list of a JSON table."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".json"):
            return json.load(fh)["rows"]
        return list(csv.DictReader(fh))


def write_reference(workload: Workload, rows: list[dict[str, object]], path: str) -> None:
    """Store the checked columns of ``rows`` as a reference table."""
    columns = [*workload.columns, *workload.exact]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [repr(float(row[c])) for c in workload.columns]
                + [_text(row[c]) for c in workload.exact]
            )


def _row_problem(
    workload: Workload, row: dict[str, object], ref: dict[str, str]
) -> str | None:
    if row.get("error"):
        return f"error column set: {row['error']}"
    for col in workload.columns:
        try:
            got = float(row[col])
        except (KeyError, TypeError, ValueError):
            return f"{col}: not a number: {row.get(col)!r}"
        want = float(ref[col])
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{col}: {got!r} differs from reference {want!r}"
    for col in workload.exact:
        if _text(row.get(col)) != ref[col]:
            return f"{col}: {row.get(col)!r} differs from reference {ref[col]!r}"
    if workload.mc:
        try:
            estimate = float(row["mc_estimate"])
            stderr = float(row["mc_stderr"])
        except (KeyError, TypeError, ValueError):
            return "mc_estimate/mc_stderr missing"
        z = abs(estimate - float(row["xi2_numeric"])) / stderr if stderr > 0 else math.inf
        if not z <= MAX_MC_Z:
            return f"mc_estimate z-score {z:.2f} exceeds {MAX_MC_Z}"
    return None


def check_rows(
    workload: Workload,
    rows: list[dict[str, object]],
    reference: list[dict[str, str]],
) -> dict[int, str]:
    """Failed rows of an output table, as {row index: reason}.

    A table with the wrong number of rows fails every reference row.
    """
    if len(rows) != len(reference):
        reason = f"expected {len(reference)} rows, got {len(rows)}"
        return {i: reason for i in range(len(reference))}
    failures = {}
    for index, (row, ref) in enumerate(zip(rows, reference)):
        problem = _row_problem(workload, row, ref)
        if problem is not None:
            failures[index] = problem
    return failures
