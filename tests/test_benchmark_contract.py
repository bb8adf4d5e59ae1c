"""The benchmark in perfbench/ calls the CLI with options and imports names
that the rest of the package no longer needs (the global --cache-dir,
--truncation and --bound, divconv.cache.SeriesCache). This test runs each
workload's short self-check command and the cache micro-benchmark, reading
perfbench/ as it is, so that deleting one of them fails here first."""

import importlib
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from divconv.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("micro")


def test_benchmark_commands_and_micro_still_run(perfbench, tmp_path):
    workloads, micro = perfbench
    for name, workload in workloads.WORKLOADS.items():
        command = workload.selfcheck(random.Random(1))
        cache_dir = tmp_path / name
        args = [a.replace(workloads.CACHE_DIR, str(cache_dir)) for a in command.args]
        result = CliRunner().invoke(main, args)
        status, reason = workloads.check(command, result.exit_code, result.stdout, result.stderr)
        assert status in ("ok", "refused"), (name, args, reason)
    out = micro.measure(50, 50, str(tmp_path / "micro-cache"), 14)
    assert out["cache.bytes"] > 0
