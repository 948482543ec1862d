"""Quantile sketches and the zero-drift reset contract.

The load-bearing assertions: the log-histogram sketch's quantiles land
within bucket resolution of the truth, and resetting (``zero_gauges``)
is idempotent — a second reset changes nothing, and no sketch state
survives the first.
"""

import pytest

from repro.obs import LogHistogram, Observer


class TestLogHistogram:
    def test_quantiles_within_bucket_resolution(self):
        sketch = LogHistogram()
        values = [0.001 * i for i in range(1, 1001)]  # 1ms .. 1s
        for v in values:
            sketch.observe(v)
        # One bucket spans 2^(1/8) ~ 9%; the midpoint is within ~4.5%.
        assert sketch.quantile(0.5) == pytest.approx(0.5, rel=0.06)
        assert sketch.quantile(0.99) == pytest.approx(0.99, rel=0.06)
        assert sketch.count == 1000
        assert sketch.total == pytest.approx(sum(values))

    def test_zero_and_negative_land_in_zero_bucket(self):
        sketch = LogHistogram()
        for v in (0.0, -1.0, 0.0, 5.0):
            sketch.observe(v)
        assert sketch.zero_count == 3
        assert sketch.quantile(0.5) == 0.0


class TestZeroDrift:
    def _dirty_observer(self) -> Observer:
        obs = Observer()
        obs.count("vpu.cache.hits", 5)
        obs.gauge("vpu.cache.size", 3)
        obs.gauge("vpu.cache.lookups", 9)
        obs.observe_value("vpu.cache.age_s", 1.5)
        obs.observe_value("serve.latency_s", 0.01)
        return obs

    def test_zero_gauges_drops_sketches_and_histograms(self):
        obs = self._dirty_observer()
        reset = obs.zero_gauges("vpu.cache.")
        assert reset >= 3
        assert obs.metrics.gauges["vpu.cache.size"] == 0
        assert "vpu.cache.age_s" not in obs.metrics.sketches
        assert "vpu.cache.age_s" not in obs.metrics.histograms
        # Unrelated series are untouched.
        assert "serve.latency_s" in obs.metrics.sketches

    def test_reset_is_idempotent(self):
        """A second reset observes exactly the state the first left —
        the zero-drift contract cache-reset paths rely on."""
        obs = self._dirty_observer()
        obs.zero_gauges("vpu.cache.")
        first = obs.metrics.snapshot()
        assert obs.zero_gauges("vpu.cache.") >= 0
        assert obs.metrics.snapshot() == first

    def test_backend_clear_caches_resets_obs_state(self):
        """The backend module reset hooks the observer: cache gauges
        zeroed, and a second call is a no-op."""
        from repro.fhe import backend as backend_mod
        from repro.obs import install_obs_hook

        def state(obs):
            # Monotone counters (e.g. cache-clear tallies) may advance on
            # every call; the zero-drift contract covers the rest.
            snap = obs.metrics.snapshot()
            snap.pop("counters", None)
            return snap

        obs = self._dirty_observer()
        previous = install_obs_hook(obs)
        try:
            backend_mod.clear_caches()
            snap = state(obs)
            backend_mod.clear_caches()
            assert state(obs) == snap
        finally:
            install_obs_hook(previous)
