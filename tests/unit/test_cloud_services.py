"""Unit tests for services and container sizes (Table 1)."""

import math

import pytest

from repro.cloud.services import (
    CONTAINER_SIZES,
    LARGE,
    MEDIUM,
    PICO,
    SMALL,
    Service,
    ServiceConfig,
)
from repro.errors import CloudError


class TestContainerSizes:
    def test_table1_pico(self):
        assert PICO.vcpus == 0.25
        assert PICO.memory_gb == pytest.approx(0.256)

    def test_table1_small_is_default_shape(self):
        assert SMALL.vcpus == 1.0
        assert SMALL.memory_gb == pytest.approx(0.512)

    def test_table1_medium(self):
        assert MEDIUM.vcpus == 2.0
        assert MEDIUM.memory_gb == pytest.approx(1.0)

    def test_table1_large(self):
        assert LARGE.vcpus == 4.0
        assert LARGE.memory_gb == pytest.approx(4.0)

    def test_lookup_by_name(self):
        assert CONTAINER_SIZES["Small"] is SMALL
        assert set(CONTAINER_SIZES) == {"Pico", "Small", "Medium", "Large"}

    def test_slots_ordering(self):
        """Bigger containers consume more host capacity."""
        assert PICO.slots < SMALL.slots < MEDIUM.slots < LARGE.slots

    def test_small_is_exactly_one_slot(self):
        assert SMALL.slots == 1.0

    def test_large_displaces_four_smalls(self):
        assert LARGE.slots == pytest.approx(4.0)


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig(name="svc")
        assert config.generation == "gen1"
        assert config.max_instances == 100
        assert config.concurrency == 1
        assert config.size is SMALL

    def test_invalid_generation_rejected(self):
        with pytest.raises(CloudError):
            ServiceConfig(name="svc", generation="gen3")

    @pytest.mark.parametrize("bad", [0, -5, 1001, 5000])
    def test_max_instances_bounds(self, bad):
        with pytest.raises(CloudError):
            ServiceConfig(name="svc", max_instances=bad)

    def test_max_instances_cloud_run_cap(self):
        """Cloud Run allows up to 1000 instances per service."""
        ServiceConfig(name="svc", max_instances=1000)

    def test_concurrency_must_be_positive(self):
        with pytest.raises(CloudError):
            ServiceConfig(name="svc", concurrency=0)


class TestService:
    def test_qualified_name(self):
        service = Service(
            config=ServiceConfig(name="login"), account_id="acct", image_id="img-1"
        )
        assert service.qualified_name == "acct/login"

    def test_fresh_service_has_no_helpers_or_demand(self):
        service = Service(
            config=ServiceConfig(name="x"), account_id="a", image_id="i"
        )
        assert service.helper_host_ids == []
        assert service.last_hot_demand_at == -math.inf
