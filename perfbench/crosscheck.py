"""Cross-check the ledger's per-layer attribution against cProfile.

    PYTHONPATH=src:. python3 perfbench/crosscheck.py --workload rack_lossy

Runs one unit of the workload under cProfile and one under the ledger,
in the same process, and prints each layer's share of CPU by both
methods.  cProfile self time is grouped by the module a function is
defined in; time in functions outside the layer modules (builtins such
as ``heapq``, numpy, helper modules like ``repro.core.packet``) is
charged to the layers of their direct callers, in proportion to the
time each caller spent in them.  The two methods distort differently
(cProfile costs per call, the ledger per wrapped entry point), so
shares agreeing to a few points is the expected outcome.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

from perfbench.ledger import LAYERS, Ledger, install
from perfbench.workloads import WORKLOADS

SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro")


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or None outside the layers."""
    if not filename.startswith(SRC):
        return None
    parts = Path(filename[len(SRC) + 1:]).with_suffix("").parts
    for depth in (1, 2):
        name = ".".join(parts[:depth])
        if name in LAYERS:
            return name
    return None


def profile_shares(run_unit) -> dict[str, float]:
    profiler = cProfile.Profile()
    profiler.runcall(run_unit)
    stats = pstats.Stats(profiler).stats
    seconds: dict[str, float] = {}
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        layer = layer_of(filename)
        if layer is not None:
            seconds[layer] = seconds.get(layer, 0.0) + tottime
            continue
        for (caller_file, _, _), (_, _, caller_tt, _) in callers.items():
            owner = layer_of(caller_file) or "other"
            seconds[owner] = seconds.get(owner, 0.0) + caller_tt
        if not callers:
            seconds["other"] = seconds.get("other", 0.0) + tottime
    total = sum(seconds.values())
    return {k: v / total for k, v in seconds.items()}


def ledger_shares(run_unit) -> dict[str, float]:
    book = Ledger()
    restore = install(book)
    try:
        book.span("bench", run_unit)
    finally:
        restore()
    total = sum(book.self_ns.values())
    return {k: v / total for k, v in book.self_ns.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    workload.run_unit()  # warm-up, and consumes the pre-built job
    # the ledger first: its units build their jobs after install()
    traced = ledger_shares(workload.run_unit)
    profiled = profile_shares(workload.run_unit)
    print(f"{'layer':<22} {'ledger':>8} {'cProfile':>9}")
    for layer in (*LAYERS, "bench", "other"):
        a, b = traced.get(layer, 0.0), profiled.get(layer, 0.0)
        if a or b:
            print(f"{layer:<22} {a:>8.3f} {b:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
