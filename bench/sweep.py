"""Repeat bench/run.py over seeds and workloads and summarise the spread.

    python3 bench/sweep.py --seeds 1-10 --out PATH [--trace] [--repeat N]
                           [--compare OLD]

Workloads run round-robin (every workload for one seed, then the next seed;
--repeat N makes that N rounds per seed), so drift in the speed of a shared
machine spreads over all of them instead of landing on one.  The summary written to PATH holds the machine facts, every
run's result, and per workload and metric the median, the quartiles from
`statistics.quantiles(n=4)` and the spread (q3 - q1) / median.

Checks, each of which makes the exit code 1:
  * every run is correct;
  * untraced: each end-to-end spread except setup_s is within its bound;
  * --trace: every count (unit `count`) is identical across the runs of a
    workload with the same seed.  Counts that differ between seeds are listed
    under `seed_dependent_counts`: the seeded random searches of the
    decomposition and isomorphism code do a seed-dependent amount of work;
  * --compare: no median is worse than the one in OLD by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": os.getloadavg(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = list(WORKLOADS)
    facts = {"start": machine_facts()}
    runs = []
    problems = []
    for seed in seed_list(args.seeds):
        for name in workloads * args.repeat:
            cmd = [sys.executable, "bench/run.py", "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(int(args.trace))]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": name, "seed": seed, "elapsed_s": elapsed,
                         "exit_code": proc.returncode, "result": result})
            if result is None or not result["correct"]:
                problems.append(f"{name} seed {seed}: run failed\n{proc.stderr}")
            print(f"{name} seed {seed}: {elapsed:.1f} s, exit {proc.returncode}",
                  file=sys.stderr, flush=True)
    facts["end"] = machine_facts()

    old = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None
    summary: dict = {}
    seed_dependent: dict = {}
    for name in workloads:
        good = [r for r in runs if r["workload"] == name
                and r["result"] and r["result"]["correct"]]
        summary[name] = {}
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in good]
            if not values:
                continue
            row = summary[name][m["name"]] = summarise(values)
            if args.trace and m["unit"] == "count" and len(set(values)) > 1:
                by_seed: dict = {}
                for r, value in zip(good, values):
                    by_seed.setdefault(r["seed"], set()).add(value)
                if any(len(seen) > 1 for seen in by_seed.values()):
                    problems.append(f"{name} {m['name']}: counts differ at one "
                                    f"seed {values}")
                seed_dependent.setdefault(name, {})[m["name"]] = {
                    str(seed): sorted(seen) for seed, seen in by_seed.items()}
            bound = m.get("bound")
            if bound is None:
                continue
            row["bound"] = bound
            if m["name"] != "setup_s" and row["spread"] > bound:
                problems.append(f"{name} {m['name']}: spread {row['spread']:.3f} "
                                f"exceeds bound {bound}")
            if old and m["name"] in old["summary"].get(name, {}):
                before = old["summary"][name][m["name"]]["median"]
                worse = (row["median"] - before if m["better"] == "lower"
                         else before - row["median"]) / before
                row["worse_than_compared"] = worse
                if worse > bound:
                    problems.append(f"{name} {m['name']}: median {worse:+.3f} "
                                    f"worse than {args.compare}, bound {bound}")
            print(f"{name:<20} {m['name']:<14} median {row['median']:.6g} "
                  f"spread {row['spread']:.4f} (bound {bound}"
                  + (f", worse by {row['worse_than_compared']:+.4f}"
                     if "worse_than_compared" in row else "")
                  + ")", file=sys.stderr)

    for name, counts in seed_dependent.items():
        for metric, by_seed in counts.items():
            print(f"{name:<20} {metric} depends on the seed: {by_seed}",
                  file=sys.stderr)
    args.out.write_text(json.dumps({"machine": facts, "trace": args.trace,
                                    "summary": summary,
                                    "seed_dependent_counts": seed_dependent,
                                    "runs": runs, "problems": problems},
                                   indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
