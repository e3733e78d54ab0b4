"""The performance machinery must not change simulation results.

Acceptance gates for the engine/packet-path overhaul:

* the timer wheel vs. the legacy heap produce identical simulations --
  event order (via trace ticks and event counts), final tensors, stats;
* the zero-copy buffer-reuse paths (worker freelists, pooled switch
  multicast) vs. fresh allocations likewise;
* the benchmark harness emits a schema-complete BENCH document and its
  regression gate trips exactly on real regressions.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import job as job_module
from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.loss import BernoulliLoss, NoLoss
from repro.sim.engine import Simulator


def _run(scheduler: str, reuse: bool | None, loss: float = 0.01):
    cfg = SwitchMLConfig(
        num_workers=4,
        pool_size=16,
        elements_per_packet=4,
        seed=11,
        loss_factory=(lambda: BernoulliLoss(loss)) if loss else NoLoss,
        reuse_buffers=reuse,
        timeout_s=1e-4,
    )
    # the scheduler is a test-only oracle, not a config knob: inject the
    # engine the job builds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            job_module, "Simulator",
            functools.partial(Simulator, scheduler=scheduler),
        )
        job = SwitchMLJob(cfg)
    assert job.sim.scheduler == scheduler
    rng = np.random.default_rng(3)
    tensors = [
        rng.integers(-1000, 1000, 512).astype(np.int64) for _ in range(4)
    ]
    result = job.all_reduce(tensors)
    return job, result


def _fingerprint(job, result):
    """Everything observable: event order (trace ticks carry firing
    times in sequence), counts, final tensors, per-worker stats."""
    return {
        "events": job.sim.events_processed,
        "final_time": job.sim.now,
        "ticks": {
            name: result.trace.series(name) for name in result.trace.names()
        },
        "tensors": [t.tolist() for t in result.results],
        "retx": result.retransmissions,
        "lost": result.frames_lost,
        "multicasts": result.switch_multicasts,
        "per_worker": [
            (s.packets_sent, s.results_received, s.retransmissions,
             s.tensor_aggregation_time)
            for s in result.worker_stats
        ],
    }


class TestWheelVsHeapDeterminism:
    @pytest.mark.parametrize("loss", [0.0, 0.01, 0.05])
    def test_identical_simulation_results(self, loss):
        heap_fp = _fingerprint(*_run("heap", reuse=None, loss=loss))
        wheel_fp = _fingerprint(*_run("wheel", reuse=None, loss=loss))
        assert heap_fp == wheel_fp

    def test_correct_aggregate_under_loss(self):
        _, result = _run("wheel", reuse=None, loss=0.02)
        assert result.completed
        for t in result.results:
            assert t is not None
        # all workers agree, and all_reduce(verify=True default) already
        # checked the sum against numpy; assert agreement explicitly
        for t in result.results[1:]:
            assert np.array_equal(t, result.results[0])


class TestBufferReuseEquivalence:
    @pytest.mark.parametrize("loss", [0.0, 0.02])
    def test_reuse_on_off_identical(self, loss):
        on_fp = _fingerprint(*_run("wheel", reuse=True, loss=loss))
        off_fp = _fingerprint(*_run("wheel", reuse=False, loss=loss))
        assert on_fp == off_fp


class TestHarness:
    def test_bench_document_schema(self):
        from repro.perf import SCHEMA, run_suite

        doc = run_suite(names=["fig4_lossy"], scale=0.01, repeats=1)
        assert doc["schema"] == SCHEMA
        m = doc["workloads"]["fig4_lossy"]
        for key in ("wall_s", "events", "events_per_s", "packets",
                    "packets_per_s", "extra"):
            assert key in m
        assert m["events"] > 0
        assert m["events_per_s"] > 0
        assert m["extra"]["completed"] is True

    def test_engine_churn_runs(self):
        from repro.perf import run_workload

        m = run_workload("engine_churn", scale=0.05)
        assert m["events"] > 0
        assert m["packets"] == 0

    def test_regression_gate(self):
        from repro.perf import check_regression

        def doc(rate):
            return {
                "schema": "repro-bench/1",
                "workloads": {"fig4_lossy": {
                    "wall_s": 1.0, "events": 1000, "events_per_s": rate,
                    "packets": 10, "packets_per_s": 10.0, "extra": {},
                }},
            }

        assert check_regression(doc(100.0), doc(100.0)) == []
        assert check_regression(doc(85.0), doc(100.0)) == []   # within 20%
        failures = check_regression(doc(70.0), doc(100.0))
        assert len(failures) == 1 and "fig4_lossy" in failures[0]
        # tightening the tolerance trips the borderline case
        assert check_regression(doc(85.0), doc(100.0), max_regression=0.1)

    def test_bench_json_round_trip(self, tmp_path):
        from repro.perf import attach_baseline, load_bench, run_suite, write_bench

        doc = run_suite(names=["engine_churn"], scale=0.02, repeats=1)
        base = run_suite(names=["engine_churn"], scale=0.02, repeats=1)
        attach_baseline(doc, base)
        assert "engine_churn" in doc["deltas"]
        path = tmp_path / "BENCH.json"
        write_bench(doc, path)
        loaded = load_bench(path)
        assert loaded == doc

    def test_load_rejects_unknown_schema(self, tmp_path):
        import json

        from repro.perf import load_bench

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            load_bench(path)
