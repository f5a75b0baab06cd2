"""Unit tests for the deterministic fault-injection subsystem."""

import pickle

import pytest

from repro.errors import FaultSpecError
from repro.faults import (
    DEFAULT_CTEST_RETRY,
    DEFAULT_LAUNCH_RETRY,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    current_fault_plan,
    fault_context,
)
from repro.faults.plan import hashed_uniform


class TestFaultSpecParsing:
    def test_parses_aliases(self):
        spec = FaultSpec.parse(
            "launch=0.1,slow=0.05,slow_seconds=2.5,ctest=0.02,death=0.01,"
            "cell=0.3,seed=7"
        )
        assert spec.launch_error_rate == 0.1
        assert spec.slow_launch_rate == 0.05
        assert spec.slow_launch_seconds == 2.5
        assert spec.ctest_noise_rate == 0.02
        assert spec.ctest_death_rate == 0.01
        assert spec.cell_error_rate == 0.3
        assert spec.seed == 7

    def test_parses_full_field_names(self):
        spec = FaultSpec.parse("launch_error_rate=0.2,cell_error_rate=0.4")
        assert spec.launch_error_rate == 0.2
        assert spec.cell_error_rate == 0.4

    def test_empty_entries_and_whitespace_tolerated(self):
        spec = FaultSpec.parse(" launch = 0.1 , , seed = 3 ")
        assert spec.launch_error_rate == 0.1
        assert spec.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault spec key"):
            FaultSpec.parse("warp=0.5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(FaultSpecError, match="duplicate"):
            FaultSpec.parse("launch=0.1,launch=0.2")

    def test_alias_and_full_name_collide(self):
        with pytest.raises(FaultSpecError, match="duplicate"):
            FaultSpec.parse("cell=0.1,cell_error_rate=0.2")

    def test_missing_equals_rejected(self):
        with pytest.raises(FaultSpecError, match="key=value"):
            FaultSpec.parse("launch")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(FaultSpecError, match="not a number"):
            FaultSpec.parse("launch=lots")

    @pytest.mark.parametrize("bad", ["launch=1.5", "ctest=-0.1", "death=2"])
    def test_out_of_range_rates_rejected(self, bad):
        with pytest.raises(FaultSpecError, match=r"\[0, 1\]"):
            FaultSpec.parse(bad)

    def test_negative_slow_seconds_rejected(self):
        with pytest.raises(FaultSpecError, match="slow_launch_seconds"):
            FaultSpec(slow_launch_seconds=-1.0)

    def test_enabled_property(self):
        assert not FaultSpec().enabled
        assert not FaultSpec(seed=99).enabled  # a seed alone injects nothing
        assert FaultSpec(cell_error_rate=0.01).enabled


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(FaultSpec(launch_error_rate=0.3, seed=11))
        b = FaultPlan(FaultSpec(launch_error_rate=0.3, seed=11))
        decisions_a = [a.launch_fails(f"i-{k}", 0) for k in range(200)]
        decisions_b = [b.launch_fails(f"i-{k}", 0) for k in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_order_independent(self):
        """The schedule is a pure function of the token, not of call order."""
        a = FaultPlan(FaultSpec(ctest_noise_rate=0.5, seed=3))
        b = FaultPlan(FaultSpec(ctest_noise_rate=0.5, seed=3))
        tokens = [f"b{i}:inst-{j}" for i in range(10) for j in range(5)]
        forward = {t: a.ctest_noise(t) for t in tokens}
        backward = {t: b.ctest_noise(t) for t in reversed(tokens)}
        assert forward == backward

    def test_different_seeds_differ(self):
        a = FaultPlan(FaultSpec(cell_error_rate=0.5, seed=1))
        b = FaultPlan(FaultSpec(cell_error_rate=0.5, seed=2))
        decisions_a = [a.cell_fails(f"c{k}", 0) for k in range(100)]
        decisions_b = [b.cell_fails(f"c{k}", 0) for k in range(100)]
        assert decisions_a != decisions_b

    def test_retry_attempt_is_a_fresh_draw(self):
        """Some instance that fails attempt 0 must succeed on a retry —
        otherwise bounded retries could never recover anything."""
        plan = FaultPlan(FaultSpec(launch_error_rate=0.4, seed=5))
        failed_then_ok = [
            iid
            for iid in (f"i-{k}" for k in range(100))
            if plan.launch_fails(iid, 0) and not plan.launch_fails(iid, 1)
        ]
        assert failed_then_ok

    def test_rate_is_approximately_honored(self):
        plan = FaultPlan(FaultSpec(launch_error_rate=0.25, seed=0))
        n = 4000
        hits = sum(plan.launch_fails(f"i-{k}", 0) for k in range(n))
        assert 0.20 < hits / n < 0.30

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(FaultSpec(seed=123))
        assert not any(plan.launch_fails(f"i-{k}", 0) for k in range(50))
        assert all(plan.slow_launch_penalty(f"i-{k}") == 0.0 for k in range(50))
        assert plan.ctest_death_round("b0:i-0", 60) is None
        assert plan.counters.total_injected == 0

    def test_survives_pickling(self):
        plan = FaultPlan(FaultSpec(cell_error_rate=0.5, seed=9))
        clone = pickle.loads(pickle.dumps(plan))
        assert [clone.cell_fails(f"c{k}", 0) for k in range(50)] == [
            plan.cell_fails(f"c{k}", 0) for k in range(50)
        ]


class TestFaultPlanSites:
    def test_death_round_in_range_and_deterministic(self):
        plan = FaultPlan(FaultSpec(ctest_death_rate=0.5, seed=2))
        rounds = [plan.ctest_death_round(f"b0:i-{k}", 60) for k in range(200)]
        deaths = [r for r in rounds if r is not None]
        assert deaths
        assert all(0 <= r < 60 for r in deaths)
        assert len(set(deaths)) > 1  # the *when* varies, not just the *if*
        again = FaultPlan(FaultSpec(ctest_death_rate=0.5, seed=2))
        assert rounds == [again.ctest_death_round(f"b0:i-{k}", 60) for k in range(200)]

    def test_slow_launch_penalty_value(self):
        plan = FaultPlan(
            FaultSpec(slow_launch_rate=0.5, slow_launch_seconds=3.0, seed=4)
        )
        penalties = {plan.slow_launch_penalty(f"i-{k}") for k in range(100)}
        assert penalties == {0.0, 3.0}

    def test_counters_track_injections(self):
        plan = FaultPlan(FaultSpec(launch_error_rate=0.5, ctest_noise_rate=0.5, seed=6))
        launch_hits = sum(plan.launch_fails(f"i-{k}", 0) for k in range(100))
        noise_hits = sum(plan.ctest_noise(f"t{k}") for k in range(100))
        assert plan.counters.launch_errors == launch_hits
        assert plan.counters.ctest_noise == noise_hits
        assert plan.counters.total_injected == launch_hits + noise_hits
        assert str(launch_hits) in plan.counters.summary()

    def test_from_spec_roundtrip(self):
        plan = FaultPlan.from_spec("cell=0.25,seed=42")
        assert plan.enabled
        assert plan.spec.cell_error_rate == 0.25
        assert plan.spec.seed == 42
        assert not FaultPlan().enabled


def reference_decisions(spec: FaultSpec, tokens: list[str]) -> tuple[list, dict]:
    """Every site's decisions as ``hashed_uniform(...) < rate``, hashing
    even at rate 0, with the counter each site would have kept."""
    def hit(site, token, rate):
        return hashed_uniform(spec.seed, site, token) < rate

    decisions, counts = [], dict.fromkeys(
        ("launch", "slow", "noise", "death", "probe", "cell"), 0
    )
    for token in tokens:
        launch = hit("launch", f"{token}#a1", spec.launch_error_rate)
        slow = hit("slow-launch", token, spec.slow_launch_rate)
        noise = hit("ctest-noise", token, spec.ctest_noise_rate)
        draw = hashed_uniform(spec.seed, "ctest-death", token)
        death = (
            min(int(draw / spec.ctest_death_rate * 60), 59)
            if draw < spec.ctest_death_rate
            else None
        )
        probe = hit("probe-noise", token, spec.probe_noise_rate)
        cell = hit("cell", f"{token}#a0", spec.cell_error_rate)
        decisions.append(
            (
                launch,
                spec.slow_launch_seconds if slow else 0.0,
                noise,
                death,
                spec.probe_noise_seconds if probe else 0.0,
                cell,
            )
        )
        for name, fired in zip(counts, (launch, slow, noise, death is not None, probe, cell)):
            counts[name] += fired
    return decisions, counts


class TestZeroRateSites:
    TOKENS = [f"b{k % 7}:svc#{k:05d}" for k in range(300)]

    def decide(self, plan: FaultPlan) -> list:
        return [
            (
                plan.launch_fails(token, 1),
                plan.slow_launch_penalty(token),
                plan.ctest_noise(token),
                plan.ctest_death_round(token, 60),
                plan.probe_delay_seconds(token),
                plan.cell_fails(token, 0),
            )
            for token in self.TOKENS
        ]

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.5, 1.0])
    def test_decisions_and_counters_match_hashing_every_site(self, rate):
        spec = FaultSpec(
            launch_error_rate=rate,
            slow_launch_rate=rate,
            ctest_noise_rate=rate,
            ctest_death_rate=rate,
            probe_noise_rate=rate,
            cell_error_rate=rate,
            seed=9,
        )
        plan = FaultPlan(spec)
        expected, counts = reference_decisions(spec, self.TOKENS)
        assert self.decide(plan) == expected
        c = plan.counters
        assert (
            c.launch_errors, c.slow_launches, c.ctest_noise,
            c.ctest_deaths, c.probe_noise, c.cell_errors,
        ) == tuple(counts.values())
        if 0.0 < rate < 1.0:
            assert 0 < c.total_injected < 6 * len(self.TOKENS)

    def test_zero_rate_sites_never_hash(self, monkeypatch):
        plan = FaultPlan(FaultSpec(launch_error_rate=0.3, seed=9))
        sites: list[str] = []
        original = plan.uniform

        def counting(site, token):
            sites.append(site)
            return original(site, token)

        monkeypatch.setattr(plan, "uniform", counting)
        self.decide(plan)
        assert set(sites) == {"launch"}


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_retries=3, backoff_seconds=0.5, backoff_multiplier=2.0)
        assert [policy.backoff(a) for a in range(3)] == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(FaultSpecError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(FaultSpecError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(FaultSpecError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_defaults_match_historical_behavior(self):
        # One re-run of an inconsistent CTest, immediately — exactly the
        # pre-faults verifier behavior, so clean accounting is unchanged.
        assert DEFAULT_CTEST_RETRY.max_retries == 1
        assert DEFAULT_CTEST_RETRY.backoff(0) == 0.0
        assert DEFAULT_LAUNCH_RETRY.max_retries == 2


class TestFaultContext:
    def test_default_is_none(self):
        assert current_fault_plan() is None

    def test_context_sets_and_restores(self):
        plan = FaultPlan(FaultSpec(cell_error_rate=0.1))
        with fault_context(plan):
            assert current_fault_plan() is plan
            with fault_context(None):
                assert current_fault_plan() is None
            assert current_fault_plan() is plan
        assert current_fault_plan() is None
