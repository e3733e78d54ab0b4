"""Print every metric of every workload, or check the benchmark is steady.

    python3 perfbench/report.py                 # each workload, traced and not
    python3 perfbench/report.py --seeds 10 --no-trace --workload rack_lossy

Runs ``perfbench/run.py`` once per (workload, seed, trace) and prints its
metric lines.  With several seeds it also prints, for every end-to-end
metric, the median over seeds and the interquartile spread as a share
of the median, next to the bound BENCHMARK.json allows; a spread should
stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, spread  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", type=int, default=1, help="seeds 1..N")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced (per-layer) runs")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for trace in (0,) if args.no_trace else (0, 1):
            for seed in range(1, (args.seeds if trace == 0 else 1) + 1):
                cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                ok = ok and result["correct"]
                if args.seeds == 1 or trace == 1:
                    print("\n".join(lines[:-1]))
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                if trace == 0:
                    for name, metric in result["metrics"].items():
                        values.setdefault(name, []).append(metric["value"])
        if args.seeds > 1:
            for name, vals in values.items():
                s = spread(vals)
                print(f"spread {workload:<20} {name:<20} median {median(vals):<14.6g} "
                      f"spread {s:.4f}  bound {bounds[name]}"
                      f"{'' if s < bounds[name] / 3 else '  WIDE'}  "
                      + " ".join(f"{v:.5g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
