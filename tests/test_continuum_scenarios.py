"""Tests for repro.continuum.scenarios."""

import pytest

from repro.continuum.network import get_link
from repro.continuum.scenarios import (
    OfflineScenario,
    OnlineScenario,
    RealTimeScenario,
)
from repro.hardware.platform import A100, JETSON


class TestOnlineScenario:
    def test_upload_time_uses_link(self):
        scenario = OnlineScenario(link=get_link("field_lte"))
        assert scenario.upload_seconds(1e6) == pytest.approx(
            get_link("field_lte").transfer_seconds(1e6))

    def test_valid_on_cloud_and_edge(self):
        scenario = OnlineScenario()
        scenario.validate_platform(A100)
        scenario.validate_platform(JETSON)  # edge online allowed

    def test_default_slo(self):
        assert OnlineScenario().slo_seconds == 0.5


class TestOfflineScenario:
    def test_rejects_edge_platform(self):
        with pytest.raises(ValueError, match="edge"):
            OfflineScenario().validate_platform(JETSON)

    def test_accepts_cloud(self):
        OfflineScenario().validate_platform(A100)

    def test_defaults(self):
        scenario = OfflineScenario()
        assert scenario.tile_size == 224


class TestRealTimeScenario:
    def test_rejects_cloud_platform(self):
        with pytest.raises(ValueError, match="edge"):
            RealTimeScenario().validate_platform(A100)

    def test_accepts_jetson(self):
        RealTimeScenario().validate_platform(JETSON)

    def test_default_deadline_is_60qps_line(self):
        scenario = RealTimeScenario()
        assert scenario.deadline_seconds == pytest.approx(1 / 60)
        assert scenario.frame_interval_seconds == pytest.approx(1 / 60)

    def test_camera_is_4k(self):
        assert RealTimeScenario().camera_resolution == (3840, 2160)
