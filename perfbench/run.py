#!/usr/bin/env python3
"""divconv benchmark: cold-process CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the package in ./src. Every
divconv command runs in a fresh interpreter (child.py), one at a time, so
no in-process cache carries over from one command to the next, as for a
user calling the CLI. The workload's commands are repeated, in a closed
loop with one client, until S seconds have passed; the last iteration
always finishes.

Times are scaled to a fixed machine speed: each child times a short fixed
task before, during and after its command (child.Speedometer), and every
time it reports is multiplied by child.REFERENCE_PROBE_S / (the task's mean
time). The machine is shared and its speed drifts by tens of percent within
minutes; unscaled times are printed in the log lines for comparison.

--trace 0 reports the end-to-end metrics, medians over the iterations:

    wall_s       sum over the iteration's commands of the child-side command
                 time, from CLI ready to output written
    setup_s      spawn until divconv.cli is imported, median over all spawns
    cpu_s        user + system CPU of the iteration's commands
    peak_rss_mb  largest max-RSS of any command process (wait4 rusage)
    solved_frac  commands that returned a checked result / commands run

--trace 1 runs each iteration twice, plain and with tracer.py's spans, and
reports the per-layer metrics (medians over the traced iterations), plus
micro.py's single-layer timings.

Before measuring, a short command of the workload's kind runs twice in a
row; the two runs must print the same output and take the same time within
a factor of SELFCHECK_RATIO, which shows that no warm state leaks from one
command to the next (a leak would make the second run several times faster).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A command fails when it exits with a code
its workload does not allow, or its output fails the check in
workloads.py; a refusal the workload allows (exit 3) is not a failure but
lowers solved_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REFERENCE_PROBE_S
from workloads import CACHE_DIR, WORKLOADS, check, shared_level_frac

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0  # a run must be over within 180 s
# the two self-check runs may differ by this factor, or by this many seconds
SELFCHECK_RATIO = 2.0
SELFCHECK_SLACK_S = 0.1

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "solved_frac": "ratio"}

# per-layer metric -> span names whose outermost calls it sums
INCLUSIVE = {
    "eta.euler_F_s": ("eta.euler_F",),
    "eta.expand_s": ("eta.expand_eta_quotient",),
    "eta.search_s": ("eta.search_eta_quotients",),
    "modforms.eisenstein_s": ("modforms.eisenstein_M", "modforms.eisenstein_L"),
    "modforms.build_basis_s": ("modforms.build_basis",),
    "modforms.rank_s": ("modforms.rank",),
    "modforms.select_independent_s": ("modforms.select_independent",),
    "modforms.express_s": ("modforms.express_in_basis",),
    "convolution.target_s": ("convolution.target_series",),
    "convolution.derive_s": ("convolution.derive_convolution_formula",),
    "convolution.oracle_s": ("convolution.brute_force_W",),
    "convolution.evaluate_s": ("convolution.evaluate_formula",),
    "convolution.verify_s": ("convolution.verify_formula",),
    "arith.sigma_table_s": ("arith.sigma_table",),
    "representations.formula_s": ("representations.octonary_formula",),
    "representations.oracle_s": ("representations.octonary_convolution",),
}
CALLS = {"eta.expand_calls": "eta.expand_eta_quotient", "representations.counts": "representations.octonary_formula"}
NOTED = {
    "eta.search_scanned": ("eta.search_eta_quotients", "scanned"),
    "eta.search_accepted": ("eta.search_eta_quotients", "accepted"),
    "modforms.basis_size": ("modforms.build_basis", "size"),
    "convolution.verified_coeffs": ("convolution.verify_formula", "checked"),
}
LAYERS = ("eta", "qseries", "modforms", "convolution", "arith", "representations", "cache")
MICRO = (
    "qseries.mul_s", "qseries.pow_s", "qseries.reciprocal_s", "qseries.substitute_s",
    "arith.sigma_s", "cache.put_s", "cache.get_s", "cache.bytes", "cache.get_over_expand",
)
PER_LAYER = {
    **{name: "s" for name in INCLUSIVE},
    "eta.expand_calls": "count",
    "eta.search_scanned": "count",
    "eta.search_accepted": "count",
    "eta.search_cands_per_s": "1/s",
    "qseries.mul_s": "s",
    "qseries.pow_s": "s",
    "qseries.reciprocal_s": "s",
    "qseries.substitute_s": "s",
    "qseries.max_coeff_bits": "bits",
    "modforms.basis_size": "count",
    "modforms.shared_level_frac": "ratio",
    "convolution.verified_coeffs": "count",
    "arith.sigma_s": "s",
    "representations.counts": "count",
    "cache.put_s": "s",
    "cache.get_s": "s",
    "cache.bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.get_over_expand": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.glue_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class Runner:
    """Spawns the child processes of one benchmark run, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # A fixed hash seed gives every child the same dict and set layouts;
        # with random ones, the eta search alone varied by +-10% per process.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.spawns = 0
        self.setup_samples: list[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.out_of_time = False

    def _spawn(self, argv: list[str]) -> tuple[int, str, str, Path, float]:
        """Run argv to completion and return its exit code, stdout, stderr,
        the stem of its files and its max RSS in MB. The arguments
        "@spawned", "@result" and "@spans" become the spawn time and the
        paths of the child's result and spans files."""
        self.spawns += 1
        stem = self.work / f"p{self.spawns}"
        with open(stem.with_suffix(".out"), "wb") as out, open(stem.with_suffix(".err"), "wb") as err:
            fill = {"@result": str(stem.with_suffix(".json")), "@spans": str(stem.with_suffix(".spans"))}
            fill["@spawned"] = repr(time.monotonic())
            proc = subprocess.Popen([fill.get(a, a) for a in argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                pid = 0
                while not pid:
                    time.sleep(0.005)
                    if time.monotonic() > self.deadline:
                        self.out_of_time = True
                        proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0 if self.out_of_time else os.WNOHANG)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = stem.with_suffix(".out").read_text(errors="replace")
        stderr = stem.with_suffix(".err").read_text(errors="replace")
        return proc.returncode, stdout, stderr, stem, usage.ru_maxrss / 1024

    def import_only(self) -> None:
        """A spawn that only imports: writes the bytecode caches, not measured."""
        self._spawn([sys.executable, str(HERE / "child.py"), "@spawned", "@result"])

    def command(self, command, cache_dir: Path, trace: bool) -> dict:
        args = [a.replace(CACHE_DIR, str(cache_dir)) for a in command.args]
        extra = ["--trace", "@spans"] if trace else []
        code, stdout, stderr, stem, rss_mb = self._spawn(
            [sys.executable, str(HERE / "child.py"), "@spawned", "@result", *extra, "--", *args]
        )
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        result, spans = stem.with_suffix(".json"), stem.with_suffix(".spans")
        self.attempted += 1
        sample = {"label": command.label, "stdout": stdout}
        if result.exists():
            measured = json.loads(result.read_text())
            scale = REFERENCE_PROBE_S / measured["probe_s"]
            sample.update(
                scale=scale,
                raw_command_s=measured["command_s"],
                **{key: measured[key] * scale for key in ("setup_s", "command_s", "cpu_s")},
            )
            self.setup_samples.append(sample["setup_s"])
            sample["outcome"], sample["reason"] = check(command, code, stdout, stderr)
        else:
            sample.update(outcome="failed", reason=f"child exited {code} without a result: {stderr.strip()[-300:]}")
        if trace and spans.exists():
            sample["spans"] = json.loads(spans.read_text())
        if sample["outcome"] == "failed":
            self.failed += 1
            print(f"FAILED {command.label}: {sample['reason']}", file=sys.stderr)
        return sample

    def iteration(self, commands, trace: bool = False) -> list[dict]:
        cache_dir = self.work / f"cache{self.spawns}"
        samples = []
        for command in commands:
            if self.out_of_time:
                break
            samples.append(self.command(command, cache_dir, trace))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return samples

    def micro(self, workload) -> dict:
        cache_dir = str(self.work / "micro-cache") if workload.cache_level else "-"
        argv = [sys.executable, str(HERE / "micro.py"), "@result", str(workload.truncation),
                str(workload.nmax), cache_dir, str(workload.cache_level)]
        code, _, stderr, stem, _ = self._spawn(argv)
        result = stem.with_suffix(".json")
        if code != 0 or not result.exists():
            self.attempted += 1
            self.failed += 1
            print(f"FAILED micro: exit {code}: {stderr.strip()[-300:]}", file=sys.stderr)
            return dict.fromkeys(MICRO, 0)
        return json.loads(result.read_text())


def measured_loop(runner: Runner, seconds: float, one_round) -> list:
    """Repeat one_round until `seconds` have passed; the last round finishes."""
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(one_round())
        if runner.out_of_time or time.monotonic() - start >= seconds:
            return rounds


def selfcheck(runner: Runner, workload, rng: random.Random) -> None:
    command = workload.selfcheck(rng)
    first, second = (runner.iteration([command])[0] for _ in range(2))
    if "failed" in (first["outcome"], second["outcome"]):
        return
    ratio = second["command_s"] / first["command_s"]
    print(f"self-check {command.label}: {first['command_s']:.3f} s then {second['command_s']:.3f} s (ratio {ratio:.3f})")
    problem = None
    if first["stdout"] != second["stdout"]:
        problem = "the two runs printed different output"
    elif not (1 / SELFCHECK_RATIO <= ratio <= SELFCHECK_RATIO
              or abs(second["command_s"] - first["command_s"]) <= SELFCHECK_SLACK_S):
        problem = f"second/first command time {ratio:.3f} outside [{1 / SELFCHECK_RATIO:.3f}, {SELFCHECK_RATIO}]"
    if problem:
        runner.failed += 1
        print(f"FAILED self-check {command.label}: {problem}", file=sys.stderr)


def end_to_end(runner: Runner, iterations: list[list[dict]]) -> dict:
    measured = [s for it in iterations for s in it]
    timed = [it for it in iterations if all("command_s" in s for s in it)] or [[{"command_s": 0, "raw_command_s": 0, "cpu_s": 0}]]
    for it in iterations:
        print("iteration: " + ", ".join(
            f"{s['label']} {s.get('command_s', float('nan')):.3f} s (unscaled {s.get('raw_command_s', float('nan')):.3f}) {s['outcome']}"
            for s in it
        ))
    unscaled = statistics.median(sum(s["raw_command_s"] for s in it) for it in timed)
    print(f"samples: {len(iterations)} iterations, {len(runner.setup_samples)} spawns for setup_s; unscaled wall_s {unscaled:.4f}")
    return {
        "wall_s": statistics.median(sum(s["command_s"] for s in it) for it in timed),
        "setup_s": statistics.median(runner.setup_samples or [0.0]),
        "cpu_s": statistics.median(sum(s["cpu_s"] for s in it) for it in timed),
        "peak_rss_mb": runner.peak_rss_mb,
        "solved_frac": sum(s["outcome"] == "ok" for s in measured) / max(1, len(measured)),
    }


def layer_metrics(samples: list[dict]) -> dict:
    """Per-layer numbers of one traced iteration, from its spans."""
    out = dict.fromkeys(INCLUSIVE, 0.0)
    out.update(dict.fromkeys((*CALLS, *NOTED, "cache.hits", "cache.misses", "qseries.max_coeff_bits"), 0))
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    wall = covered = 0.0
    for sample in samples:
        spans = sample.get("spans", [])
        wall += sample.get("command_s", 0.0)
        names = [s[0] for s in spans]
        durations = [(s[2] - s[1]) * sample["scale"] for s in spans]
        children = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                children[parent] += durations[i]
            else:
                covered += durations[i]
        for i, name in enumerate(names):
            out[f"{name.split('.')[0]}.self_s"] += durations[i] - children[i]
        for metric, wanted in INCLUSIVE.items():
            inside = [False] * len(spans)
            for i, (_, _, _, parent, _) in enumerate(spans):
                inside[i] = parent >= 0 and (names[parent] in wanted or inside[parent])
                if names[i] in wanted and not inside[i]:
                    out[metric] += durations[i]
        for metric, wanted in CALLS.items():
            out[metric] += names.count(wanted)
        for name, _, _, _, note in spans:
            if note is None:
                continue
            for metric, (wanted, key) in NOTED.items():
                if name == wanted:
                    out[metric] += note[key]
            if "hit" in note:
                out["cache.hits" if note["hit"] else "cache.misses"] += 1
            if "bits" in note:
                out["qseries.max_coeff_bits"] = max(out["qseries.max_coeff_bits"], note["bits"])
    out["eta.search_cands_per_s"] = out["eta.search_scanned"] / out["eta.search_s"] if out["eta.search_s"] else 0.0
    out["trace.glue_s"] = wall - covered
    out["trace.coverage"] = covered / wall if wall else 0.0
    out["_wall"] = wall
    return out


def per_layer(runner: Runner, workload, rng: random.Random, seconds: float) -> dict:
    micro = runner.micro(workload)

    def one_round():
        commands = workload.iteration(rng)
        plain = runner.iteration(commands)
        traced = runner.iteration(commands, trace=True)
        return commands, plain, traced

    rounds = measured_loop(runner, seconds, one_round)
    traced = [layer_metrics(t) for _, _, t in rounds]
    plain_wall = statistics.median(sum(s.get("command_s", 0.0) for s in p) for _, p, _ in rounds)
    traced_wall = statistics.median(t.pop("_wall") for t in traced)
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    out.update({name: micro.get(name, 0) for name in MICRO})
    out["modforms.shared_level_frac"] = shared_level_frac(rounds[0][0])
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1 if plain_wall else 0.0
    print(f"samples: {len(rounds)} traced iterations; traced wall {traced_wall:.3f} s, plain wall {plain_wall:.3f} s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not (SRC / "divconv" / "cli.py").is_file():
        print(f"perfbench: no divconv sources at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the independent checks in workloads.py
    if opts.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {opts.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[opts.workload]
    rng = random.Random(opts.seed)
    # on SIGTERM, unwind as on an error: the running child is killed and
    # waited for, and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + HARD_LIMIT_S)
    try:
        runner.import_only()
        if opts.trace:
            values, units = per_layer(runner, workload, rng, opts.seconds), PER_LAYER
        else:
            selfcheck(runner, workload, rng)
            iterations = measured_loop(runner, opts.seconds, lambda: runner.iteration(workload.iteration(rng)))
            values, units = end_to_end(runner, iterations), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if runner.out_of_time:
        runner.failed += 1
        print(f"FAILED: the run passed its {HARD_LIMIT_S:.0f} s limit", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
