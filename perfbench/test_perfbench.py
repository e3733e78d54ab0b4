"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import child, ledger, run  # noqa: E402
from perfbench.stats import (  # noqa: E402
    check_name,
    check_unit,
    error_rate,
    tail_percentile,
)


# ---------------------------------------------------------------- tail rule
@pytest.mark.parametrize(
    "n, expected_p",
    [(880, 98), (1000, 99), (100, 90), (20, 50), (19, None), (5, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    values = [float(v) for v in range(1, n + 1)]
    tail = tail_percentile(values)
    if expected_p is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected_p
    assert sum(v > value for v in values) >= 10
    if p < 99:  # one percentile higher leaves fewer than ten beyond
        assert n - math.ceil((p + 1) / 100 * n) < 10


def test_tail_percentile_ignores_input_order():
    values = list(np.random.default_rng(0).permutation(200).astype(float))
    assert tail_percentile(values) == (95, 189.0)


# ------------------------------------------------------- self time of spans
class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    book = ledger.Ledger(clock=clock)
    book.enter("outer")          # t=0
    clock.now = 10
    book.enter("inner")          # t=10
    clock.now = 25
    book.enter("leaf")           # t=25
    clock.now = 30
    book.exit()                  # leaf: 5
    clock.now = 40
    book.exit()                  # inner: 30, self 25
    clock.now = 50
    book.enter("inner")          # t=50
    clock.now = 53
    book.exit()                  # inner: 3
    clock.now = 60
    book.exit()                  # outer: 60, self 60 - 30 - 3
    assert book.self_ns == {"leaf": 5, "inner": 28, "outer": 27}
    assert book.calls == {"leaf": 1, "inner": 2, "outer": 1}
    assert sum(book.self_ns.values()) == 60


def test_wrapped_call_closes_its_span_on_error():
    clock = FakeClock()
    book = ledger.Ledger(clock=clock)

    def fails():
        clock.now += 7
        raise ValueError("boom")

    traced = book.wrap("layer", fails)
    with pytest.raises(ValueError):
        book.span("root", traced)
    assert book.self_ns == {"layer": 7, "root": 0}
    assert book._stack == []


def test_install_wraps_entry_points_and_restore_undoes_it():
    from repro.core.job import SwitchMLConfig, SwitchMLJob
    from repro.net.link import Link

    original = Link.__dict__["send"]
    book = ledger.Ledger()
    restore = ledger.install(book)
    try:
        assert Link.__dict__["send"] is not original
        job = SwitchMLJob(SwitchMLConfig(num_workers=2, pool_size=4))
        tensors = [np.arange(64, dtype=np.int64) * (w + 1) for w in range(2)]
        result = book.span("bench", lambda: job.all_reduce(tensors))
    finally:
        restore()
    assert Link.__dict__["send"] is original
    assert (result.results[0] == np.arange(64) * 3).all()
    for layer in ("sim.engine", "core.worker", "core.switch_program", "core.job",
                  "dataplane.registers", "net.link", "net.host",
                  "net.switchchassis"):
        assert book.calls.get(layer, 0) > 0, layer
    assert book.calls.get("net.fabric", 0) == 0


# --------------------------------------------------------- failure counting
def _unit(failed=0, failures=(), fingerprint=("fp",), ops=(0.1, 0.2)):
    return SimpleNamespace(
        op_cpu_s=list(ops), failed=failed, failures=list(failures),
        elements=10, packets=4, fingerprint=fingerprint, counters={"c": 1},
        sim_tat_s=[1.0], extra={},
    )


def test_summary_counts_failed_ops_and_crashes():
    units = [_unit(), _unit(failed=2, failures=["wrong sum", "wrong sum"]), None]
    out = child._summarise(units, crashes=["Traceback: boom"])
    assert out["attempted"] == 2 + 2 + 1
    assert out["failed"] == 2 + 1
    assert out["problems"] == ["Traceback: boom", "wrong sum"]
    assert error_rate(out["attempted"], out["failed"]) == pytest.approx(3 / 5)


def test_summary_flags_a_fingerprint_that_changes_between_units():
    out = child._summarise([_unit(), _unit(fingerprint=("other",))], crashes=[])
    assert out["failed"] == 0
    assert any("fingerprint" in p for p in out["problems"])


def test_error_rate_rejects_impossible_counts():
    assert error_rate(0, 0) == 0.0
    with pytest.raises(ValueError):
        error_rate(3, 4)


# ------------------------------------------------------------ metric names
@pytest.mark.parametrize("name", ["setup_s", "core.worker.calls", "9lives", "a-b.c_d"])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "µs", "x" * 65, "a/b"])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_units_charset():
    for unit in ("s", "ms", "elem/s", "%", "count", "sim_s"):
        assert check_unit(unit) == unit
    for unit in ("", "µs", "x" * 17, "a b"):
        with pytest.raises(ValueError):
            check_unit(unit)


def test_declared_names_are_valid_and_cover_the_ledger():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        check_name(m["name"])
        check_unit(m["unit"])
    for layer in ledger.LAYERS:
        assert {f"{layer}.self_cpu_frac", f"{layer}.calls"} <= set(names)


def test_report_requires_every_declared_metric():
    report = run.Report({"a": "s", "b": "count"})
    report.add("a", 1.5)
    report.add("extra", 2.0, "ms")
    assert report.metrics == {"a": {"value": 1.5, "unit": "s"}}
    with pytest.raises(run.BenchError):
        report.check_complete(failed_run=False)
    report.add("b", 3)
    report.check_complete(failed_run=False)


def test_report_of_a_failed_run_still_lists_every_declared_metric():
    report = run.Report({"a": "s", "b": "count"})
    report.add("a", 1.5)
    report.check_complete(failed_run=True)
    assert report.metrics["b"] == {"value": 0.0, "unit": "count"}
