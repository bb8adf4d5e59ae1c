"""The benchmark in perfbench/ calls the CLI with options and imports names
that the rest of the package no longer needs (the global --cache-dir,
--truncation and --bound, divconv.cache.SeriesCache). These tests run each
workload's short self-check command, one full iteration of every workload
and the cache micro-benchmark, reading perfbench/ as it is, so that
deleting one of them, or breaking a command the benchmark runs, fails here
first."""

import importlib
import random
from pathlib import Path

import pytest
from conftest import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("micro")


def run_checked(workloads, command, cache_dir):
    """Run one benchmark command in process and return its check status."""
    args = [a.replace(workloads.CACHE_DIR, str(cache_dir)) for a in command.args]
    result = run_cli(*args)
    status, reason = workloads.check(command, result.exit_code, result.stdout, result.stderr)
    assert status in ("ok", "refused"), (args, reason)
    return status


def test_benchmark_commands_and_micro_still_run(perfbench, tmp_path):
    workloads, micro = perfbench
    for name, workload in workloads.WORKLOADS.items():
        run_checked(workloads, workload.selfcheck(random.Random(1)), tmp_path / name)
    out = micro.measure(50, 50, str(tmp_path / "micro-cache"), 14)
    assert out["cache.bytes"] > 0


def test_every_benchmark_command_passes_its_check(perfbench, tmp_path):
    workloads, _ = perfbench
    for name, workload in workloads.WORKLOADS.items():
        commands = workload.iteration(random.Random(1))
        statuses = [run_checked(workloads, command, tmp_path / name) for command in commands]
        # only a command marked as allowed to refuse may be refused
        assert all(s == "ok" or c.may_refuse for s, c in zip(statuses, commands)), name
