"""Self-test of the benchmark at toy size (one-second phases, one set-up).

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, run
from perfbench.layers import PER_LAYER
from perfbench.workloads import (
    ADAPT_SHARDS,
    ADAPT_TITLES,
    WORKLOADS,
    HostSpec,
    schedule,
)
from repro.fleet import HashRing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def _run(capsys, *args):
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, "--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", trace)
    expected = run.END_TO_END if trace == "0" else PER_LAYER
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in lines), name


def test_corrupted_reference_fails_the_run(capsys, monkeypatch):
    real = harness.reference

    def corrupted(*args, **kwargs):
        digest, frames, heads = real(*args, **kwargs)
        return "0" * len(digest), frames, heads

    monkeypatch.setattr(harness, "reference", corrupted)
    monkeypatch.setitem(harness.RETAIN_EVERY, "cold_ingest", 1)
    code, _, result = _run(capsys, "--workload", "cold_ingest", "--seed", "3",
                           "--seconds", "1", "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_qvga",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    def first(seed):
        return list(itertools.islice(
            schedule(HostSpec(workload, seed, 1), "timed"), 24))

    assert first(5) == first(5)
    assert first(5) != first(6)


def test_adapt_titles_load_both_shards():
    ring = HashRing(tuple(f"shard-{i}" for i in range(ADAPT_SHARDS)))
    assert len({ring.lookup(title) for title in ADAPT_TITLES}) == ADAPT_SHARDS
