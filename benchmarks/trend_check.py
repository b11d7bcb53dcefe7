"""Benchmark trend check: fail CI when a committed metric regresses.

Compares the freshly generated ``benchmarks/results/BENCH_*.json`` files
against the baselines committed in git (``git show <ref>:<path>``) and
exits non-zero when a gated metric regresses beyond tolerance.

Two metric classes, because the files mix deterministic quantities with
machine-speed-dependent rates:

* **quality keys** (deterministic: savings fractions, Pareto frontier
  size, speedup ratios, telemetry overhead) — tight default tolerance,
  ``--tolerance`` (0.10);
* **rate keys** (sessions/s, frames/s, MB/s — vary with the host) —
  loose default tolerance, ``--rate-tolerance`` (0.5).

Files without a committed baseline are skipped with a note, so a brand
new benchmark passes its first CI run and becomes a baseline once its
results are committed.

Usage::

    python benchmarks/trend_check.py [--ref HEAD] [files...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

#: Deterministic metrics; higher is better unless listed in LOWER_IS_BETTER.
QUALITY_KEYS = {
    "speedup_vs_perframe",
    "lut_speedup_vs_float",
    "savings",
    "savings_vs_static",
    "frontier_size",
    "overhead_fraction",
    "recovered_session_rate",
}
#: Host-speed-dependent throughput metrics; higher is better.
RATE_KEYS = {"sessions_per_sec", "frames_per_sec", "wire_mbytes_per_sec"}
#: Keys where a *rise* is the regression.
LOWER_IS_BETTER = {"overhead_fraction"}
#: Comparative gates: within one fresh results file, the metric at the
#: first path must be >= ``ratio`` times the metric at the second path.
#: Unlike the regression bands (which compare against a committed
#: baseline and so drift with it), these encode *structural* claims —
#: the chunked engine beating per-frame emission over the wire is the
#: repo's headline result, and both sides of the ratio are measured in
#: the same run on the same host, so a tight band is fair.
#: A gate may carry an optional fourth element ``(condition_path, min)``:
#: it only applies when the fresh file's value at ``condition_path`` is
#: >= ``min``.  The fleet speedup claim needs real parallelism, so its
#: gate is conditioned on the pinned ``cpus`` field — a single-core host
#: records the ratio but is not held to it.  A lower-is-better pair is
#: written loser-first: ``(a, b, 0.5)`` reads "b <= 2 x a".
COMPARATIVE_GATES = {
    "BENCH_network.json": [
        ("engines/chunked/sessions_per_sec",
         "engines/perframe/sessions_per_sec", 0.95),
        ("engines/chunked/frames_per_sec",
         "engines/perframe/frames_per_sec", 0.95),
        # Fleet-wide real-time delivery: every engine, and the capped
        # admission run, moves at least 24 frames/s per session.
        ("engines/perframe/frames_per_sec", "sessions", 24.0),
        ("engines/chunked/frames_per_sec", "sessions", 24.0),
        ("admission/frames_per_sec", "sessions", 24.0),
        # The chunked engine's first frame arrives within 2x perframe's.
        ("engines/perframe/latency/ttff_mean_s",
         "engines/chunked/latency/ttff_mean_s", 0.5),
        # Resume flatness: a resume seeks to the client's record offset,
        # so the reconnect stall after a kill at 10% of the clip is not
        # dwarfed by the one after a kill at 90%.
        ("resume/kill_at_10pct/reconnect_to_first_frame_ms/median",
         "resume/kill_at_90pct/reconnect_to_first_frame_ms/median", 0.5),
    ],
    "BENCH_fleet.json": [
        ("fleet/sessions_per_sec",
         "single/sessions_per_sec", 1.5, ("cpus", 2)),
    ],
}
#: Absolute floors: within one fresh results file, the metric at the
#: path must meet the floor outright — no baseline involved.  Encodes
#: hard acceptance claims (a fleet that loses sessions on failover is
#: broken no matter what the committed baseline says).
ABSOLUTE_FLOORS = {
    "BENCH_serving.json": [
        ("engines/chunked/speedup_vs_perframe", 2.0),
    ],
    "BENCH_engine.json": [
        # The fused LUT compensate kernel against the float64 kernel it
        # replaced: the wire path's compute headroom.
        ("compensate_only/lut_speedup_vs_float", 1.5),
    ],
    "BENCH_network.json": [
        ("sessions", 8),
    ],
    "BENCH_fleet.json": [
        ("chaos/recovered_session_rate", 0.99),
    ],
    "BENCH_adaptation.json": [
        # The battery-driven client must save at least 10% modeled
        # backlight energy over the static session — the adaptation
        # control plane's acceptance floor.
        ("adaptive/savings_vs_static", 0.10),
    ],
}
#: Absolute band for LOWER_IS_BETTER fractions.  These hover around
#: zero, where a relative band degenerates: a lucky -2% baseline sample
#: would fail any honest re-measurement.  A rise only regresses when it
#: exceeds max(baseline, 0) by this many absolute points; the hard
#: ceiling stays in the benchmark's own threshold assert.
LOWER_ABS_BAND = 0.02


def flatten(node, path="") -> Dict[str, float]:
    """Numeric leaves of a JSON tree, keyed by slash-joined path."""
    leaves: Dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            leaves.update(flatten(value, f"{path}/{key}" if path else str(key)))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            leaves.update(flatten(value, f"{path}[{i}]"))
    elif isinstance(node, bool):
        pass  # bools are ints in Python; never a gated metric
    elif isinstance(node, (int, float)):
        leaves[path] = float(node)
    return leaves


def metric_key(path: str) -> str:
    """The final key component of a flattened path (list indices stripped)."""
    tail = path.rsplit("/", 1)[-1]
    return tail.split("[", 1)[0]


def compare(fresh: dict, baseline: dict, tolerance: float,
            rate_tolerance: float) -> Tuple[List[str], List[str]]:
    """Gated-metric comparison: (regressions, notes)."""
    fresh_leaves = flatten(fresh)
    base_leaves = flatten(baseline)
    regressions, notes = [], []
    for path, base in sorted(base_leaves.items()):
        key = metric_key(path)
        if key in RATE_KEYS:
            tol = rate_tolerance
        elif key in QUALITY_KEYS:
            tol = tolerance
        else:
            continue
        if path not in fresh_leaves:
            notes.append(f"  gone: {path} (baseline {base:g})")
            continue
        now = fresh_leaves[path]
        if key in LOWER_IS_BETTER:
            regressed = now > max(base, 0.0) + LOWER_ABS_BAND + 1e-12
        else:
            regressed = now < base - tol * abs(base) - 1e-12
        if regressed:
            regressions.append(
                f"  REGRESSED {path}: {base:g} -> {now:g} "
                f"(tolerance {tol:.0%})"
            )
    return regressions, notes


def comparative(fresh: dict, name: str) -> Tuple[List[str], List[str]]:
    """Within-file comparative and absolute gates: (failures, notes)."""
    failures: List[str] = []
    notes: List[str] = []
    leaves = flatten(fresh)
    for gate in COMPARATIVE_GATES.get(name, ()):
        winner, loser, ratio = gate[:3]
        if len(gate) == 4:
            condition_path, minimum = gate[3]
            if leaves.get(condition_path, 0.0) < minimum:
                notes.append(f"  skipped gate {winner}: "
                             f"{condition_path} < {minimum:g}")
                continue
        if winner not in leaves or loser not in leaves:
            failures.append(f"  MISSING comparative metric: {winner} vs {loser}")
            continue
        if leaves[winner] < ratio * leaves[loser] - 1e-12:
            failures.append(
                f"  COMPARATIVE {winner} ({leaves[winner]:g}) < "
                f"{ratio:g} x {loser} ({leaves[loser]:g})"
            )
    for path, floor in ABSOLUTE_FLOORS.get(name, ()):
        if path not in leaves:
            failures.append(f"  MISSING floor metric: {path}")
        elif leaves[path] < floor - 1e-12:
            failures.append(
                f"  FLOOR {path} ({leaves[path]:g}) < {floor:g}"
            )
    return failures, notes


def baseline_from_git(relpath: str, ref: str) -> dict:
    """The committed version of a results file, or None when absent."""
    proc = subprocess.run(
        ["git", "-C", REPO_ROOT, "show", f"{ref}:{relpath}"],
        capture_output=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.decode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="BENCH_*.json files (default: all in results/)")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the baselines (default HEAD)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative tolerance for deterministic metrics")
    parser.add_argument("--rate-tolerance", type=float, default=0.5,
                        help="relative tolerance for throughput metrics")
    args = parser.parse_args(argv)

    files = args.files or sorted(
        os.path.join(RESULTS_DIR, name)
        for name in os.listdir(RESULTS_DIR)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    if not files:
        print("trend-check: no BENCH_*.json files found")
        return 1

    failed = False
    for path in files:
        relpath = os.path.relpath(os.path.abspath(path), REPO_ROOT)
        name = os.path.basename(path)
        with open(path) as fh:
            fresh = json.load(fh)
        # Within-file comparative gates run even without a baseline:
        # both sides come from the fresh measurement.
        comparative_failures, gate_notes = comparative(fresh, name)
        baseline = baseline_from_git(relpath, args.ref)
        if baseline is None:
            status = "FAIL" if comparative_failures else "no baseline, skipped"
            print(f"{name}: {status}")
            for line in comparative_failures + gate_notes:
                print(line)
            failed = failed or bool(comparative_failures)
            continue
        regressions, notes = compare(
            fresh, baseline, args.tolerance, args.rate_tolerance
        )
        regressions = comparative_failures + regressions
        notes = gate_notes + notes
        status = "FAIL" if regressions else "ok"
        print(f"{name}: {status}")
        for line in regressions + notes:
            print(line)
        failed = failed or bool(regressions)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
