"""Benchmark entry point: one workload, one seed, traced or not.

    python3 perfbench/run.py --workload rack_lossy --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every sample runs in a fresh
interpreter (``perfbench/child.py``) with BLAS/OpenMP pools pinned to one
thread and the simulator's backend variables unset, so the measured
code is whatever the defaults run.  Timings are process CPU time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up
is sampled in several fresh processes and the median kept, then one
process runs the workload's closed loop for ``--seconds``.  ``--trace 1``
reports the per-layer ledger.  Human-readable lines (every metric, with
its unit, plus the environment) come first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero, and no JSON is printed, when the benchmark itself
cannot run (for instance, no ``src/repro`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.ledger import LAYERS  # noqa: E402
from perfbench.stats import check_name, check_unit, error_rate, median, tail_percentile  # noqa: E402

WORKLOAD_NAMES = ("rack_lossy", "fabric_spine_crash", "train_layers")
#: fresh processes whose set-up time is sampled per --trace 0 run
SETUP_SAMPLES = 5
#: every process of one run must end within this many seconds
RUN_BUDGET_S = 170.0

class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing it)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("REPRO_BACKEND", "REPRO_LINK_KERNEL"):
        env.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_child(mode: str, workload: str, seed: int, seconds: float,
              deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON result."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the run budget") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_revision() -> str:
    """HEAD's commit from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    import numpy

    return (f"git_rev={git_revision()} python={platform.python_version()} "
            f"numpy={numpy.__version__} nproc={len(os.sched_getaffinity(0))}")


class Report:
    """Metrics in print order.

    ``declared`` maps the names BENCHMARK.json lists for this kind of run
    to their units; those metrics also go to the JSON line, and every one
    of them must be reported.  Other metrics are printed only and carry
    their own unit.
    """

    def __init__(self, declared: dict[str, str]) -> None:
        self.declared = declared
        self.lines: list[tuple[str, float, str, str]] = []
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str | None = None,
            note: str = "") -> None:
        check_name(name)
        if name in self.declared:
            unit = self.declared[name]
            self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append((name, value, check_unit(unit), note))

    def check_complete(self, failed_run: bool) -> None:
        """Every declared metric was reported.

        A run whose ops all crashed has nothing to measure some metrics
        on; it is already incorrect, so those read 0.  On any other run
        a missing metric is a benchmark bug.
        """
        missing = sorted(set(self.declared) - set(self.metrics))
        if missing and not failed_run:
            raise BenchError(f"metrics in BENCHMARK.json not reported: {missing}")
        for name in missing:
            self.metrics[name] = {"value": 0.0, "unit": self.declared[name]}

    def print(self) -> None:
        for name, value, unit, note in self.lines:
            print(f"metric {name:<42} {value:<16.10g} {unit}{'  ' + note if note else ''}")


def end_to_end(workload: str, seed: int, seconds: float, deadline: float,
               report: Report) -> tuple[int, int, list[str]]:
    setups = [run_child("setup", workload, seed, 0, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    res = run_child("measure", workload, seed, seconds, deadline)
    ops = res["op_cpu_s"]
    report.add("setup_s", median(setups), note=f"median of {len(setups)} processes")
    if res["unit_packets"]:  # at least one unit completed
        unit_cpu = median(res["unit_op_cpu_s"])
        note = f"all-reduce CPU of the median of {len(res['unit_op_cpu_s'])} units"
        report.add("elements_per_cpu_s", res["unit_elements"] / unit_cpu, note=note)
        report.add("cpu_us_per_packet", unit_cpu * 1e6 / res["unit_packets"],
                   note=f"{note} of {res['unit_packets']} worker packets")
        report.add("op_ms_p50", median(ops) * 1e3, note=f"{len(ops)} ops")
        report.add("sim_tat_s", median(res["sim_tat_s"]), "sim_s",
                   "max per-worker TAT, median over ops")
    report.add("peak_rss_mb", res["peak_rss_mb"])
    tail = tail_percentile(ops)
    if tail is not None:
        report.add("op_ms_tail", tail[1] * 1e3, "ms", f"p{tail[0]} of {len(ops)} ops")
    report.add("error_rate", error_rate(res["attempted"], res["failed"]), "fraction")
    for key, unit in (("sim_recovery_s", "sim_s"), ("val_accuracy", "fraction")):
        if key in res["extra"]:
            report.add(key, res["extra"][key], unit)
    return res["attempted"], res["failed"], res["problems"]


def per_layer(workload: str, seed: int, seconds: float, deadline: float,
              report: Report) -> tuple[int, int, list[str]]:
    res = run_child("trace", workload, seed, seconds, deadline)
    units = res["units"]
    for layer in LAYERS:
        self_s = res["layer_self_s"][layer]
        report.add(f"{layer}.self_cpu_s", self_s / units, "s", "per unit")
        report.add(f"{layer}.self_cpu_frac", self_s / res["region_cpu_s"])
        report.add(f"{layer}.calls", res["layer_calls"][layer], note="per unit")
    report.add("bench.self_cpu_s", res["bench_self_s"] / units, "s",
               "benchmark's own code, per unit")
    report.add("trace.coverage", res["coverage"],
               note="layer self time / traced region CPU")
    report.add("trace.overhead_ratio", res["overhead_ratio"],
               note="traced / untraced CPU per unit")
    for name, value in res["counters"].items():
        report.add(name, value, note="untraced reference unit")
    return res["attempted"], res["failed"], res["problems"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no src/repro under {ROOT}")
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print(f"env {environment()}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report = Report({m["name"]: m["unit"]
                         for m in spec["per_layer" if args.trace else "end_to_end"]})
        measure = per_layer if args.trace else end_to_end
        attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, deadline, report
        )
        report.check_complete(failed_run=bool(problems) or failed > 0)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report.print()
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
