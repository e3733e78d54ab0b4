"""End-to-end tests of SwitchMLJob on the simulated rack."""

import numpy as np
import pytest

from repro.core.job import SwitchMLConfig, SwitchMLJob
from repro.net.link import LinkSpec
from repro.net.loss import BernoulliLoss, GilbertElliottLoss


def small_job(**kwargs):
    defaults = dict(num_workers=4, pool_size=8, elements_per_packet=32)
    defaults.update(kwargs)
    return SwitchMLJob(SwitchMLConfig(**defaults))


def tensors_for(job, size, seed=0, lo=-1000, hi=1000):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(lo, hi, size).astype(np.int64)
        for _ in range(job.config.num_workers)
    ]


class TestLosslessAllReduce:
    def test_result_is_exact_integer_sum(self):
        job = small_job()
        tensors = tensors_for(job, 32 * 8 * 3)
        out = job.all_reduce(tensors)  # verify=True raises on mismatch
        assert out.completed
        expected = np.sum(tensors, axis=0)
        for res in out.results:
            assert np.array_equal(res, expected)

    def test_unaligned_tensor_is_padded_and_unpadded(self):
        job = small_job()
        tensors = tensors_for(job, 1000)  # not a multiple of 32
        out = job.all_reduce(tensors)
        assert out.completed
        assert len(out.results[0]) == 1000

    def test_no_retransmissions_without_loss(self):
        job = small_job()
        out = job.all_reduce(tensors_for(job, 32 * 64))
        assert out.retransmissions == 0
        assert out.frames_lost == 0
        assert out.switch_ignored_duplicates == 0

    def test_tats_are_positive_and_close_across_workers(self):
        job = small_job()
        out = job.all_reduce(tensors_for(job, 32 * 256))
        assert all(t > 0 for t in out.tats)
        assert out.max_tat < 2 * min(out.tats)

    def test_phantom_run_reports_timing_only(self):
        job = small_job()
        out = job.all_reduce(num_elements=32 * 128)
        assert out.completed
        assert out.results == [None] * 4
        assert out.max_tat > 0

    def test_ate_metric(self):
        job = small_job()
        n = 32 * 256
        out = job.all_reduce(num_elements=n)
        assert out.aggregated_elements_per_second(n) == pytest.approx(n / out.max_tat)

    def test_wrong_tensor_count_rejected(self):
        job = small_job()
        with pytest.raises(ValueError):
            job.all_reduce([np.ones(32)] * 3)

    def test_mismatched_lengths_rejected(self):
        job = small_job()
        with pytest.raises(ValueError):
            job.all_reduce([np.ones(32), np.ones(32), np.ones(64), np.ones(32)])

    def test_phantom_requires_num_elements(self):
        job = small_job()
        with pytest.raises(ValueError):
            job.all_reduce()

    def test_job_reusable_across_reductions(self):
        job = small_job()
        first = job.all_reduce(tensors_for(job, 32 * 16, seed=1))
        second = job.all_reduce(tensors_for(job, 32 * 16, seed=2))
        assert first.completed and second.completed


class TestLossyAllReduce:
    @pytest.mark.parametrize("loss", [0.001, 0.01])
    def test_recovers_and_stays_exact(self, loss):
        job = small_job(
            num_workers=8,
            pool_size=16,
            loss_factory=lambda: BernoulliLoss(loss),
            check_invariants=True,
            seed=11,
        )
        tensors = tensors_for(job, 32 * 16 * 10, seed=3)
        out = job.all_reduce(tensors)  # verify=True
        assert out.completed
        if out.frames_lost:
            assert out.retransmissions > 0

    def test_bursty_loss_recovered(self):
        job = small_job(
            num_workers=4,
            pool_size=8,
            loss_factory=lambda: GilbertElliottLoss(
                p_good_to_bad=0.002, p_bad_to_good=0.2, loss_bad=0.5
            ),
            check_invariants=True,
            seed=5,
        )
        out = job.all_reduce(tensors_for(job, 32 * 8 * 8, seed=4))
        assert out.completed

    def test_heavy_loss_inflates_tat(self):
        base = small_job(seed=9)
        lossy = small_job(loss_factory=lambda: BernoulliLoss(0.02), seed=9)
        n = 32 * 8 * 16
        t_base = base.all_reduce(num_elements=n).max_tat
        t_lossy = lossy.all_reduce(num_elements=n).max_tat
        assert t_lossy > t_base

    def test_switch_serves_unicast_retransmits_under_loss(self):
        job = small_job(
            num_workers=8,
            pool_size=4,
            loss_factory=lambda: BernoulliLoss(0.05),
            seed=13,
        )
        out = job.all_reduce(tensors_for(job, 32 * 4 * 20, seed=6))
        assert out.completed
        assert out.switch_unicast_retransmits > 0


class TestLosslessSwitchAblation:
    def test_algorithm1_breaks_under_loss(self):
        """The ablation behind Algorithm 3: with the lossless switch
        program, retransmissions double-count or the job hangs."""
        job = small_job(
            num_workers=4,
            pool_size=8,
            lossless_switch=True,
            loss_factory=lambda: BernoulliLoss(0.02),
            timeout_s=1e-4,
            seed=21,
        )
        tensors = tensors_for(job, 32 * 8 * 10, seed=7)
        out = job.all_reduce(tensors, deadline_s=0.5, verify=False)
        expected = np.sum(tensors, axis=0)
        corrupted = out.completed and any(
            not np.array_equal(res, expected) for res in out.results
        )
        assert corrupted or not out.completed

    def test_algorithm1_fine_without_loss(self):
        job = small_job(lossless_switch=True)
        tensors = tensors_for(job, 32 * 8 * 4)
        out = job.all_reduce(tensors)
        assert out.completed


class TestStragglersAndStartSkew:
    def test_staggered_starts_self_clock(self):
        """SS6: the self-clocking mechanism slows the system to the rate
        of the slowest worker without breaking correctness."""
        job = small_job()
        tensors = tensors_for(job, 32 * 8 * 4)
        late = 2e-3
        out = job.all_reduce(tensors, start_times=[0.0, 0.0, 0.0, late])
        assert out.completed
        # the straggler gates completion: everyone finishes after it starts
        assert all(s.finish_time >= late for s in out.worker_stats)

    def test_straggler_does_not_cause_retransmission_storm(self):
        job = small_job(timeout_s=50e-3)  # timeout > straggler delay
        out = job.all_reduce(
            tensors_for(job, 32 * 8 * 2), start_times=[0.0, 0.0, 0.0, 5e-3]
        )
        assert out.retransmissions == 0


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run(seed):
            job = small_job(
                num_workers=4,
                pool_size=8,
                loss_factory=lambda: BernoulliLoss(0.01),
                seed=seed,
            )
            out = job.all_reduce(num_elements=32 * 8 * 8)
            return (out.max_tat, out.retransmissions, out.frames_lost, out.sim_events)

        assert run(42) == run(42)

    def test_different_seed_different_loss_pattern(self):
        def run(seed):
            job = small_job(
                num_workers=4,
                pool_size=8,
                loss_factory=lambda: BernoulliLoss(0.01),
                seed=seed,
            )
            out = job.all_reduce(num_elements=32 * 8 * 16)
            return (out.max_tat, out.frames_lost)

        assert run(1) != run(2)


class TestLinkRates:
    def test_faster_link_lowers_tat(self):
        n = 32 * 8 * 32
        slow = small_job(link=LinkSpec(rate_gbps=10.0), pool_size=128)
        fast = small_job(link=LinkSpec(rate_gbps=100.0), pool_size=512)
        assert fast.all_reduce(num_elements=n).max_tat < slow.all_reduce(
            num_elements=n
        ).max_tat

    def test_float16_wire_halves_frames_bytes(self):
        job16 = small_job(bytes_per_element=2, elements_per_packet=64)
        job32 = small_job(bytes_per_element=4, elements_per_packet=32)
        n = 64 * 8 * 16
        t16 = job16.all_reduce(num_elements=n).max_tat
        t32 = job32.all_reduce(num_elements=n).max_tat
        assert t16 < t32


class TestConfigValidation:
    """Out-of-domain configs fail at construction with ValueError, not
    deep inside (or forever inside) a run."""

    def test_zero_timeout_rejected(self):
        # regression: timeout_s=0 re-armed every timer at its own firing
        # instant, so all_reduce(num_elements=1024) never returned
        with pytest.raises(ValueError, match="timeout_s"):
            SwitchMLConfig(timeout_s=0)

    def test_negative_timeout_rejected(self):
        # regression: surfaced as a SimulationError from the engine
        # ("cannot schedule event at t=-1.0")
        with pytest.raises(ValueError, match="timeout_s"):
            SwitchMLConfig(timeout_s=-1)

    def test_zero_elements_per_packet_rejected(self):
        # regression: surfaced as a register-array error
        with pytest.raises(ValueError, match="elements_per_packet"):
            SwitchMLConfig(elements_per_packet=0)

    @pytest.mark.parametrize("field,value", [
        ("num_workers", 0),
        ("pool_size", 0),
        ("bytes_per_element", 0),
        ("timeout_mode", "eager"),
        ("pipeline_latency_s", -1e-9),
        ("max_retries", -1),
        ("epoch", -1),
        ("granularity", "frame"),
        ("burst_epsilon", -1e-9),
    ])
    def test_out_of_domain_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SwitchMLConfig(**{field: value})

    def test_epsilon_requires_burst(self):
        with pytest.raises(ValueError, match="burst_epsilon"):
            SwitchMLConfig(burst_epsilon=1e-6)
        assert SwitchMLConfig(granularity="burst", burst_epsilon=1e-6)

    def test_fp16_and_lossless_exclusive(self):
        with pytest.raises(ValueError, match="exclusive"):
            SwitchMLConfig(fp16_switch=True, lossless_switch=True)

    def test_fabric_config_validated(self):
        from repro.net.fabric import FabricConfig

        for kw in ({"timeout_s": 0}, {"timeout_s": -1},
                   {"elements_per_packet": 0}, {"num_spines": 0},
                   {"probe_interval_s": 0}, {"budget_fraction": 0.0}):
            with pytest.raises(ValueError, match=next(iter(kw))):
                FabricConfig(**kw)
        assert FabricConfig().num_workers == 16
