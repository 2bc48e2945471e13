"""End-to-end and per-layer benchmark of the `exangulate` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing is installed or built.  Each
CLI invocation is a fresh interpreter (closed loop, one client, one child at
a time), so every run pays cold caches the way a CLI user does.  The seed is
passed to each child as EXANGULATE_SEED and PYTHONHASHSEED; the program's
output must not depend on it, and every invocation's exit code, stdout and
schema-1 `--json` bytes are compared with the files in bench/expected/.  A
mismatch, crash or timeout counts as failed and never becomes a sample.

--trace 0 runs one unmeasured warm-up child (it compiles the bytecode), then
whole invocations back to back for S seconds, at least one, with setup-only
children that stop when `build_category` returns before and after them.  It
reports the end-to-end metrics of BENCHMARK.json, each the median over the
run's children.

Times are CPU times in reference seconds.  The speed of a shared CPU jumps
between a few levels, for seconds to minutes at a time (see README.md), so
the same invocation can take 1.8 times as long from one minute to the next,
in wall and in CPU time alike.  The benchmark therefore pins itself and its
children to one CPU and runs a fixed pure-Python loop (`Calibrator`) in a
thread beside them.  The scheduler alternates between the child and the loop
every few milliseconds, so both run at the same speed, whatever it is at that
moment.  A child's CPU time t, during which the loop ran at r loops per
second of its own CPU time, is reported as t * r * REFERENCE_LOOP_S: the
time it would have taken on a CPU that runs one loop in REFERENCE_LOOP_S.
The loop does not touch `src/`, so a change to the program moves only t.
Each child gets about half of the CPU, so its wall time is not reported.

--trace 1 runs the warm-up, one untraced invocation and one invocation with
the layers wrapped (layertrace.py), and reports the per-layer metrics of
BENCHMARK.json.  Span times are shares of the traced invocation's wall time;
`trace.cpu_s` is its CPU time and `trace.overhead_s` that minus the untraced
invocation's, both in reference seconds.

The last line of stdout is the result as JSON; a summary with sample counts
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected"

# Every run must end well inside the 180 s a run is allowed; a child still
# running at this point is killed and counted as a timeout.
RUN_LIMIT_S = 170.0
# Setup-only children per untraced run, half before and half after the whole
# invocations, so that their median does not hang on one moment of a shared
# machine whose speed drifts; with the whole invocations they give the
# samples of setup_s.
SETUP_PROBES = 6
# A reference second is the CPU time in which the calibration loop, sharing
# the CPU with a child, runs 1 / REFERENCE_LOOP_S times.  This value makes the
# check-a3 invocation read close to its fastest wall time when run alone on
# the machine the benchmark was written on (2 vCPUs of an Intel Xeon, Python
# 3.11).
REFERENCE_LOOP_S = 0.0002


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    exit_code: int


# Why each workload is here is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "check-a3": Workload(("check", "bench/inputs/a3-rad2.exg"), 0),
    "localize-a3-trivial": Workload(("localize", "bench/inputs/a3-rad2.exg"), 0),
}


def calibration_loop(a: list[list[int]]) -> list[list[int]]:
    """Interpreter work of the kind the program does, without calling it: a
    matrix product mod a prime over lists, and a tuple of the result."""
    product = [[sum(x * y for x, y in zip(row, col)) % 7 for col in zip(*a)]
               for row in a]
    tuple(map(tuple, product))
    return product


class Calibrator:
    """Runs `calibration_loop` in a thread until stopped, counting loops.

    Pinned to the children's CPU, it shares that CPU with each child, so its
    loops per second of its own CPU time measure the CPU's speed while the
    child runs.
    """

    def __init__(self) -> None:
        self.loops = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._clock = time.pthread_getcpuclockid(self._thread.ident)

    def _run(self) -> None:
        a = [[(i * 31 + j * 17 + 1) % 7 for j in range(12)] for i in range(12)]
        while not self._stop.is_set():
            a = calibration_loop(a)
            self.loops += 1

    def reading(self) -> tuple[int, float]:
        # Only the thread writes `loops`.  A reading can include the CPU time
        # of the loop in progress but not its count: about 0.3 ms, under 0.5%
        # of the shortest child.
        return self.loops, time.clock_gettime(self._clock)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def reference_scale(before: tuple[int, float],
                    after: tuple[int, float]) -> float | None:
    """Reference seconds per CPU second between two `Calibrator` readings."""
    loops, cpu_s = after[0] - before[0], after[1] - before[1]
    return loops / cpu_s * REFERENCE_LOOP_S if loops else None


@dataclass
class Outcome:
    """One child process: its resource use and whether its output was right.

    CPU times are as measured; multiply by `scale` for reference seconds.
    """

    failure: str | None
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_cpu_s: float | None
    scale: float | None
    trace: dict | None = field(default=None, repr=False)


class Runner:
    """Spawns the children of one run inside a scratch directory."""

    def __init__(self, name: str, seed: int, scratch: Path, deadline: float,
                 calibrator: Calibrator) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ, EXANGULATE_SEED=str(seed),
                        PYTHONHASHSEED=str(seed % 2**32))
        self.expected_stdout = (EXPECTED / f"{name}.stdout").read_bytes()
        self.expected_json = (EXPECTED / f"{name}.json").read_bytes()
        self.spawned = 0
        self.calibrator = calibrator

    def spawn(self, *, setup_only: bool = False, trace: bool = False) -> Outcome:
        self.spawned += 1
        tag = self.scratch / str(self.spawned)
        mark, report = tag.with_suffix(".mark"), tag.with_suffix(".json")
        trace_path = tag.with_suffix(".trace")
        cmd = [sys.executable, str(CHILD), "--mark", str(mark)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *self.workload.argv, "--json", str(report)]
        with open(tag.with_suffix(".stdout"), "wb") as out, \
                open(tag.with_suffix(".stderr"), "wb") as err:
            calibration = self.calibrator.reading()
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
            scale = reference_scale(calibration, self.calibrator.reading())
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        setup_cpu_s = None
        if mark.exists():
            setup_cpu_s = float(mark.read_text(encoding="utf-8"))
        failure = self._failure(code, end, tag, setup_only)
        if failure is None and scale is None:
            failure = "the calibration loop did not run beside the child"
        return Outcome(
            failure=failure, wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
            setup_cpu_s=setup_cpu_s, scale=scale,
            trace=(json.loads(trace_path.read_text(encoding="utf-8"))
                   if trace and failure is None else None))

    def _failure(self, code: int, end: float, tag: Path, setup_only: bool) -> str | None:
        if end >= self.deadline:
            return "timeout"
        expected_code = 0 if setup_only else self.workload.exit_code
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if not tag.with_suffix(".mark").exists():
            return "build_category never returned"
        if setup_only:
            return None
        if tag.with_suffix(".stdout").read_bytes() != self.expected_stdout:
            return "stdout differs from the expected output"
        report = tag.with_suffix(".json")
        if not report.exists() or report.read_bytes() != self.expected_json:
            return "--json report differs from the expected output"
        return None


def checks_in_report(name: str) -> int:
    report = json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))
    return sum(check["checked"] for check in report["checks"].values())


def end_to_end(runner: Runner, seconds: float) -> tuple[list[Outcome], dict, dict]:
    warm_up = runner.spawn(setup_only=True)  # compiles bytecode; no sample
    probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES // 2)]
    started = time.monotonic()
    full: list[Outcome] = []
    # Stop before an invocation that, as long as the last one, would end
    # after `seconds`.
    while not full or (time.monotonic() + full[-1].wall_s
                       < min(started + seconds, runner.deadline)):
        full.append(runner.spawn())
    probes += [runner.spawn(setup_only=True)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    good = [o for o in full if o.failure is None]
    checks = checks_in_report(runner.name)
    samples = {
        "cpu_s": [o.cpu_s * o.scale for o in good],
        "peak_rss_mb": [o.peak_rss_mb for o in good],
        "setup_s": [o.setup_cpu_s * o.scale for o in probes + full
                    if o.failure is None],
        "checks_per_s": [checks / (o.cpu_s * o.scale) for o in good],
    }
    values = {name: statistics.median(vals) if vals else None
              for name, vals in samples.items()}
    counts = {name: len(vals) for name, vals in samples.items()}
    return [warm_up, *probes, *full], values, counts


def span_value(trace: dict, wall_s: float, metric: str) -> float | int:
    """Value of a per-layer metric named `<span>.<field>` or `<layer>.self_pct`."""
    span, _, fld = metric.rpartition(".")
    if span not in trace:  # a whole layer: the self time of all its spans
        return 100.0 * sum(row["self_s"] for name, row in trace.items()
                           if name.startswith(span + ".")) / wall_s
    row = trace[span]
    if fld == "incl_pct":
        return 100.0 * row["incl_s"] / wall_s
    if fld == "self_pct":
        return 100.0 * row["self_s"] / wall_s
    if fld == "useful_ratio":
        return row["true"] / row["calls"] if row["calls"] else 0.0
    if fld == "hit_ratio":
        lookups = row["hits"] + row["misses"]
        return row["hits"] / lookups if lookups else 0.0
    return row[fld]  # calls, elements


def per_layer(runner: Runner, names: list[str]) -> tuple[list[Outcome], dict, dict]:
    warm_up = runner.spawn(setup_only=True)  # compiles bytecode
    reference = runner.spawn()
    traced = runner.spawn(trace=True)
    outcomes = [warm_up, reference, traced]
    if any(o.failure for o in outcomes):
        return outcomes, {name: None for name in names}, {name: 0 for name in names}
    values = {"trace.cpu_s": traced.cpu_s * traced.scale,
              "trace.overhead_s": (traced.cpu_s * traced.scale
                                   - reference.cpu_s * reference.scale)}
    for name in names:
        if name not in values:
            values[name] = span_value(traced.trace, traced.wall_s, name)
    return outcomes, {name: values[name] for name in names}, {name: 1 for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    needed = [spec_path, ROOT / "src" / "exangulate" / "cli.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_at_start = os.getloadavg()
    # The calibration thread and every child share one CPU (module docstring).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibrator = Calibrator()
    try:
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            runner = Runner(args.workload, args.seed, Path(tmp),
                            time.monotonic() + RUN_LIMIT_S, calibrator)
            if args.trace:
                outcomes, values, counts = per_layer(
                    runner, [m["name"] for m in metrics])
            else:
                outcomes, values, counts = end_to_end(runner, args.seconds)
    finally:
        calibrator.stop()
    scales = [o.scale for o in outcomes if o.scale]

    failures = [o.failure for o in outcomes if o.failure]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"load average at start {' '.join(f'{x:.2f}' for x in load_at_start)}",
          file=sys.stderr)
    for m in metrics:
        value = values[m["name"]]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<44} {shown:>12} {m['unit']:<6} "
              f"(n={counts[m['name']]})", file=sys.stderr)
    if scales:
        print(f"  reference seconds per CPU second: median "
              f"{statistics.median(scales):.4f}, range {min(scales):.4f} to "
              f"{max(scales):.4f}", file=sys.stderr)
    print(f"  fail_ratio {len(failures)}/{len(outcomes)}", file=sys.stderr)
    for why in failures:
        print(f"  failed: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
