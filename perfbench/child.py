"""One divconv CLI command in a fresh interpreter, timed from inside.

    python3 perfbench/child.py SPAWNED RESULT [--trace SPANS] -- CLI_ARGS...

SPAWNED is the parent's time.monotonic() just before it started this
process. The child imports divconv.cli, runs the command through
``cli.main(args, standalone_mode=False)`` with its own stdout and stderr,
and writes a JSON record to RESULT:

    setup_s    spawn until divconv.cli is imported and ready
    command_s  ready until the command's output is flushed, less the probes
    cpu_s      user + system CPU of the command (this process and its
               children), less the probes
    probe_s    mean time of one probe() (see Speedometer)
    exit_code  what the CLI would exit with

With no CLI_ARGS it only imports. With --trace the layer wrappers of
tracer.py are installed after the ready mark and the spans, timed on a
clock that leaves out the probes, are written to SPANS. CLOCK_MONOTONIC is shared by all processes, so SPAWNED and the child's
clock compare directly.
"""

import signal
import sys
import time
from fractions import Fraction
from math import isqrt

#: mean probe() time inside a command on the machine the benchmark was
#: defined on (2-vCPU Intel Xeon VM, Python 3.11). It only fixes the unit
#: of scaled times.
REFERENCE_PROBE_S = 0.0029
PROBE_INTERVAL_S = 0.1
PROBES_AROUND = 10


def probe() -> float:
    """Seconds taken by a fixed pure-Python task of about 4 ms that mixes
    the program's kinds of work: big-integer sums over lists (partition
    numbers by Euler's pentagonal recurrence), trial division, and Fraction
    arithmetic."""
    start = time.perf_counter()
    p = [1] + [0] * 600
    for m in range(1, 601):
        acc, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            acc += term if k % 2 else -term
            k += 1
        p[m] = acc
    divisor_sum = sum(d for n in range(1, 400) for d in range(1, isqrt(n) + 1) if n % d == 0)
    x = sum((Fraction(i, i + 1) * Fraction(1, i) for i in range(1, 60)), Fraction(0))
    seconds = time.perf_counter() - start
    if (p[100], divisor_sum, x.denominator) != (190569292, 5214, 3230237388259077233637600):
        raise SystemExit("the speed probe computed a wrong value")
    return seconds


class Speedometer:
    """Measures how fast the machine runs Python while a command runs.

    The machine is shared, and its speed drifts by tens of percent within
    seconds to minutes. run.py divides every time by the mean probe time
    taken here, so that it compares work rather than machine load. Probes
    run PROBES_AROUND times just before and just after the command and,
    from a SIGALRM handler, every PROBE_INTERVAL_S while it runs; the time
    of the latter is subtracted from the command's time.
    """

    def __init__(self):
        probe()  # the first run is slower: the interpreter has not specialised it yet
        self.samples: list[float] = []
        self.during = 0.0

    def clock(self) -> float:
        """time.perf_counter() less the probes run so far inside the command."""
        return time.perf_counter() - self.during

    def around(self) -> None:
        self.samples += [probe() for _ in range(PROBES_AROUND)]

    def _tick(self, signum, frame) -> None:
        seconds = probe()
        self.samples.append(seconds)
        self.during += seconds

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


def main() -> int:
    spawned = float(sys.argv[1])
    from divconv import cli

    ready = time.monotonic()

    import json
    import resource

    import click

    rest = sys.argv[2:]
    result_path = rest.pop(0)
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path = rest[1]
        rest = rest[2:]
    args = rest[1:]  # after "--"

    speed = Speedometer()
    tracer = None
    if spans_path is not None:
        import tracer as tracer_module

        tracer = tracer_module.Tracer(speed.clock)
        tracer.install()

    def cpu() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    speed.around()
    code = 0
    cpu0 = cpu()
    start = time.monotonic()
    speed.start()
    if args:
        try:
            returned = cli.main(args, standalone_mode=False)
            code = returned if isinstance(returned, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except click.exceptions.Abort:
            code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    speed.stop()
    done = time.monotonic()
    cpu1 = cpu()
    speed.around()

    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "setup_s": ready - spawned,
                "command_s": done - start - speed.during,
                "cpu_s": cpu1 - cpu0 - speed.during,
                "probe_s": speed.mean,
                "exit_code": code,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
