"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload warm_qvga --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is the Python package under
its ``src/`` (nothing is built).  Human-readable tables go to standard
output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status: 0 when every session succeeded and every checked stream
matched its reference, 1 when not (the JSON line still prints), 2 when
the benchmark cannot run at all (no JSON line).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "ttff_p50_ms": "ms",
    "session_p50_ms": "ms",
    "max_gap_p50_ms": "ms",
    "frames_per_s": "1/s",
    "server_cpu_ms_per_frame": "ms",
    "client_cpu_ms_per_frame": "ms",
    "backlight_saved_frac": "frac",
    "setup_s": "s",
}


def _phase_line(phase) -> str:
    failed = [o for o in phase.outcomes if not o.ok]
    return (f"phase {phase.name:<10} attempted {len(phase.outcomes):4d} "
            f"succeeded {len(phase.outcomes) - len(failed):4d} "
            f"failed {len(failed):3d} retries {phase.retries:3.0f} "
            f"resumes {sum(o.resumes for o in phase.outcomes):4d} "
            f"sheds {phase.sheds:3.0f} wall {phase.wall_s:6.2f}s")


def _table(title, rows) -> None:
    print(f"{title}:")
    for name, value in rows:
        print(f"  {name:<24}{value:12.3f} ms")
    print(f"  {'total':<24}{sum(v for _, v in rows):12.3f} ms")


def _run(workload: str, seed: int, seconds: int, traced: bool):
    """Run the phases; returns ``(metrics, units, phases, errors)``."""
    from perfbench import harness
    from perfbench.layers import PER_LAYER, per_layer
    from perfbench.workloads import HostSpec

    spec = HostSpec(workload, seed, seconds)
    phases = []
    if not traced:
        setups = []
        host = None
        try:
            for _ in range(harness.SETUP_REPEATS):
                if host is not None:
                    host.stop()
                    host = None
                host, setup_s, warm = harness.start_host(spec)
                setups.append(setup_s)
                phases.append(warm)
            timed = asyncio.run(harness.run_phase(host, spec, "timed", seconds))
            phases.append(timed)
            errors = harness.verify(spec, host, timed.outcomes)
        finally:
            if host is not None:
                host.stop()
        name, value, count = harness.tail(o.ttff_s for o in timed.outcomes)
        print(f"ttff tail: {name} = {1e3 * value:.3f} ms over {count} sessions")
        print("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
        return harness.end_to_end(timed, setups), END_TO_END, phases, errors

    host, _, warm = harness.start_host(spec)
    try:
        phases.append(warm)
        untraced = asyncio.run(harness.run_phase(host, spec, "timed", seconds))
        phases.append(untraced)
    finally:
        host.stop()
    traced_spec = HostSpec(workload, seed, seconds, traced=True)
    host, _, warm = harness.start_host(traced_spec)
    try:
        phases.append(warm)
        phase = asyncio.run(harness.run_phase(
            host, traced_spec, "timed", seconds, traced=True))
        phase.name = "traced"
        phases.append(phase)
        errors = harness.verify(spec, host, untraced.outcomes + phase.outcomes)
    finally:
        host.stop()
    metrics, session, ttff = per_layer(phase, untraced,
                                       fleet=workload == "adapt_resume")
    _table("session ledger (ms per session; sums to the mean session wall)",
           session)
    _table("ttff ledger (ms per session; sums to the mean ttff)", ttff)
    return metrics, PER_LAYER, phases, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm_qvga", "cold_ingest", "adapt_resume"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    try:
        metrics, units, phases, errors = _run(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:  # noqa: BLE001 - report and exit without a result
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for phase in phases:
        print(_phase_line(phase))
        if phase.exhausted:
            print(f"warning: phase {phase.name} ran out of catalog clips "
                  "before its deadline", file=sys.stderr)
    failures = [o.error for p in phases for o in p.outcomes if not o.ok]
    for message in (failures + errors)[:10]:
        print(f"error: {message}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<40}{metrics[name]:16.4f} {unit}")
    correct = not failures and not errors and all(
        math.isfinite(v) for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": sum(len(p.outcomes) for p in phases),
        "failed": len(failures) + len(errors),
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0,
                   "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
