"""One benchmark process: set up a workload, then measure or trace it.

``run.py`` starts this in a fresh interpreter per sample, with thread
pools pinned and ``PYTHONPATH`` pointing at the checkout, and reads the
JSON object it prints as its last line.

Modes:

``setup``
    Build the workload and report the process CPU time spent before the
    first all-reduce call (interpreter start, imports, inputs, job build,
    fault-plan arming).
``measure``
    Set up, then run units of work in a closed loop for ``--seconds``
    with nothing traced.
``trace``
    Set up, run untraced reference units for half of ``--seconds``, then
    install the ledger and run traced units for the other half.  The
    traced units must reproduce the reference's counters exactly.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from perfbench.stats import median

#: distinct failure messages passed back to run.py
MAX_PROBLEMS = 20


def _loop(seconds: float, run_unit) -> tuple[list, list[float], list[str]]:
    """Run units until ``seconds`` of wall time have passed (at least one).

    Returns the units, each unit's CPU seconds, and crash messages; a
    crashed unit is recorded as ``None``.
    """
    units, unit_cpu, crashes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.process_time()
        try:
            units.append(run_unit())
        except Exception:  # a crash is an op failure, not a benchmark error
            if not crashes:
                traceback.print_exc(file=sys.stderr)
            crashes.append(traceback.format_exc(limit=4))
            units.append(None)
        unit_cpu.append(time.process_time() - t0)
        if time.perf_counter() >= deadline:
            return units, unit_cpu, crashes


def _summarise(units: list, crashes: list[str]) -> dict:
    """Fold units into op samples, totals and the consistency checks."""
    done = [u for u in units if u is not None]
    problems = list(crashes)
    ops, tats, failed = [], [], len(crashes)
    for u in done:
        ops.extend(u.op_cpu_s)
        tats.extend(u.sim_tat_s)
        failed += u.failed
        problems.extend(u.failures)
    if done:
        first = done[0]
        for u in done[1:]:
            if u.fingerprint != first.fingerprint or u.counters != first.counters:
                problems.append("simulated fingerprint differs between units of one seed")
                break
    extra = {key: median([u.extra[key] for u in done])
             for key in (done[0].extra if done else ())}
    return {
        "op_cpu_s": ops,
        "attempted": len(ops) + len(crashes),
        "failed": failed,
        "problems": list(dict.fromkeys(problems))[:MAX_PROBLEMS],
        # CPU of each completed unit's all-reduce calls (no job build,
        # no model math, no checks)
        "unit_op_cpu_s": [sum(u.op_cpu_s) for u in done],
        "unit_elements": done[0].elements if done else 0,
        "unit_packets": done[0].packets if done else 0,
        "sim_tat_s": tats,
        "extra": extra,
        "counters": done[0].counters if done else {},
        "fingerprint": repr(done[0].fingerprint) if done else None,
        "units": len(units),
    }


def _measure(workload, seconds: float) -> dict:
    units, _, crashes = _loop(seconds, workload.run_unit)
    return _summarise(units, crashes)


def _trace(workload, seconds: float) -> dict:
    from perfbench.ledger import LAYERS, Ledger, install

    ref_units, ref_cpu, ref_crashes = _loop(seconds / 2, workload.run_unit)
    ref = _summarise(ref_units, ref_crashes)

    ledger = Ledger()
    restore = install(ledger)
    try:
        t0 = time.process_time()
        units, unit_cpu, crashes = _loop(
            seconds / 2, lambda: ledger.span("bench", workload.run_unit)
        )
        region = time.process_time() - t0
    finally:
        restore()
    traced = _summarise(units, crashes)

    problems = ref["problems"] + traced["problems"]
    if traced["counters"] != ref["counters"] or traced["fingerprint"] != ref["fingerprint"]:
        problems.append("tracing changed the simulated counters or fingerprint")
    n = len(units)
    calls = {}
    for layer in LAYERS:
        total = ledger.calls.get(layer, 0)
        if total % n:
            problems.append(f"{layer}: {total} calls do not split evenly over {n} units")
        calls[layer] = total // n
    for layer in workload.layers:
        if calls[layer] == 0:
            problems.append(f"{layer}: no calls recorded in the traced run")

    layer_s = {layer: ledger.self_seconds(layer) for layer in LAYERS}
    return {
        "attempted": ref["attempted"] + traced["attempted"],
        "failed": ref["failed"] + traced["failed"],
        "problems": problems,
        "counters": ref["counters"],
        "units": n,
        "region_cpu_s": region,
        "layer_self_s": layer_s,
        "bench_self_s": ledger.self_seconds("bench"),
        "layer_calls": calls,
        "coverage": sum(layer_s.values()) / region,
        "overhead_ratio": median(unit_cpu) / median(ref_cpu),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    out = {"setup_s": time.process_time()}
    if args.mode == "measure":
        out.update(_measure(workload, args.seconds))
    elif args.mode == "trace":
        out.update(_trace(workload, args.seconds))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
