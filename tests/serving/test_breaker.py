"""The tier breaker's state machine, driven observation by observation."""

import pytest

from repro.serving import BreakerConfig, ShardHealth, TierBreaker

#: The state machine is ladder-agnostic; a three-rung ladder also drives
#: the multi-step demotion and recovery paths a two-rung ladder skips.
LADDER = ("fast", "int8", "exact")

GOOD = ShardHealth()
BAD = ShardHealth(recall_probe=0.0)


def make_breaker(**overrides):
    config = BreakerConfig(**{"failure_threshold": 2, "cooldown": 3,
                              "promote_threshold": 2, **overrides})
    return TierBreaker(LADDER, config)


class TestHealthRule:
    def test_default_observation_is_healthy(self):
        assert BreakerConfig().is_healthy(ShardHealth())

    @pytest.mark.parametrize("health", [
        ShardHealth(errors=1),
        ShardHealth(recall_probe=0.5),
        ShardHealth(drift_events=5),
    ])
    def test_each_observable_can_fail_alone(self, health):
        assert not BreakerConfig().is_healthy(health)

    def test_missing_recall_probe_is_not_a_failure(self):
        assert BreakerConfig().is_healthy(ShardHealth(recall_probe=None))


class TestDemotion:
    def test_starts_at_the_top_tier_closed(self):
        breaker = make_breaker()
        assert breaker.tier == "fast"
        assert breaker.state == "closed"
        assert not breaker.degraded

    def test_consecutive_failures_demote_one_rung(self):
        breaker = make_breaker()
        breaker.observe(BAD)
        assert breaker.tier == "fast"     # one failure is not enough
        breaker.observe(BAD)
        assert breaker.tier == "int8"
        assert breaker.state == "open"
        assert breaker.degraded
        assert breaker.demotions == 1

    def test_interleaved_success_resets_the_failure_count(self):
        breaker = make_breaker()
        for _ in range(5):
            breaker.observe(BAD)
            breaker.observe(GOOD)
        assert breaker.tier == "fast"
        assert breaker.demotions == 0

    def test_keeps_demoting_down_to_the_exact_floor(self):
        breaker = make_breaker()
        for _ in range(10):
            breaker.observe(BAD)
        assert breaker.tier == "exact"
        assert breaker.demotions == 2

    def test_the_floor_cannot_be_demoted_past(self):
        breaker = TierBreaker(("exact",), BreakerConfig(failure_threshold=1))
        for _ in range(5):
            breaker.observe(BAD)
        assert breaker.tier == "exact"
        assert breaker.demotions == 0

    def test_empty_ladder_is_rejected(self):
        with pytest.raises(ValueError):
            TierBreaker(())


class TestRepromotion:
    def demoted(self):
        breaker = make_breaker()
        breaker.observe(BAD)
        breaker.observe(BAD)
        assert breaker.tier == "int8"
        return breaker

    def test_cooldown_then_probes_then_promotion(self):
        breaker = self.demoted()
        for _ in range(3):                  # cooldown at the demoted tier
            breaker.observe(GOOD)
        assert breaker.state == "half_open"
        assert breaker.tier == "fast"       # probes serve the promoted tier
        breaker.observe(GOOD)
        breaker.observe(GOOD)
        assert breaker.tier == "fast"
        assert breaker.state == "closed"
        assert breaker.promotions == 1
        assert not breaker.degraded

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker = self.demoted()
        for _ in range(3):
            breaker.observe(GOOD)
        assert breaker.state == "half_open"
        breaker.observe(BAD)                # the probe fails
        assert breaker.state == "open"
        assert breaker.tier == "int8"
        assert breaker.promotions == 0
        # The full cooldown is owed again before the next probe window.
        breaker.observe(GOOD)
        breaker.observe(GOOD)
        assert breaker.state == "open"
        breaker.observe(GOOD)
        assert breaker.state == "half_open"

    def test_unhealthy_while_open_keeps_demoting(self):
        breaker = self.demoted()
        breaker.observe(BAD)
        breaker.observe(BAD)
        assert breaker.tier == "exact"
        assert breaker.state == "open"

    def test_two_rung_recovery_passes_through_the_middle_tier(self):
        breaker = make_breaker()
        for _ in range(4):
            breaker.observe(BAD)
        assert breaker.tier == "exact"
        # exact -> int8
        for _ in range(3):
            breaker.observe(GOOD)
        breaker.observe(GOOD)
        breaker.observe(GOOD)
        assert breaker.tier == "int8"
        assert breaker.state == "open"      # still below the top rung
        # int8 -> pq
        for _ in range(3):
            breaker.observe(GOOD)
        breaker.observe(GOOD)
        breaker.observe(GOOD)
        assert breaker.tier == "fast"
        assert breaker.state == "closed"
        assert breaker.promotions == 2
