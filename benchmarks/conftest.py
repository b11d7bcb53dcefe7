"""Shared benchmark fixtures and the results reporter.

Every benchmark regenerates one table/figure of the paper; the paper's
Figures 6-10 and the backlight share come from :mod:`repro.experiments`
at its ``DEFAULT_*`` scale.  Besides the pytest-benchmark timing, each
writes the reproduced rows/series to
``benchmarks/results/<name>.txt`` (and echoes to stdout when run with
``-s``), so EXPERIMENTS.md can be assembled from the artifacts.
"""

from __future__ import annotations

import os
from typing import Iterable, List

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def report():
    """Writer: report(name, lines) persists one experiment's output."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def write(name: str, lines: Iterable[str]) -> None:
        lines = list(lines)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"\n[{name}] -> {path}")
        for line in lines:
            print(f"  {line}")

    return write


@pytest.fixture(scope="session")
def device():
    from repro.display import ipaq_5555

    return ipaq_5555()


@pytest.fixture(autouse=True)
def _telemetry_isolation():
    """Fresh, enabled global metrics registry around every benchmark."""
    from repro import telemetry

    telemetry.enable()
    telemetry.reset_registry()
    telemetry.clear_spans()
    telemetry.clear_flight_events()
    yield
    telemetry.enable()
    telemetry.reset_registry()
    telemetry.clear_spans()
    telemetry.clear_flight_events()
