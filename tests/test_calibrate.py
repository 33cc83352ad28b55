"""Smoke tests for tools/calibrate.py against the frozen calibration fixture.

Only the measurement functions are called: ``main()`` rewrites the fixture.
"""

import importlib.util
from pathlib import Path

import pytest

CALIBRATE = Path(__file__).resolve().parent.parent / "tools" / "calibrate.py"


@pytest.fixture(scope="module")
def calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_amplitude_uniformity_reproduces_fixture_exactly(calibrate, calibration):
    assert calibrate.amplitude_uniformity() == calibration["measured"]["ray_amplitude_uniformity"]


def test_carrier_rel_rms_reproduces_fixture(calibrate, calibration):
    measured = calibration["measured"]
    rel_rms, period = calibrate.carrier_rel_rms(10, 20, 3)
    assert rel_rms == pytest.approx(measured["carrier_rel_rms_n10_m20"], rel=0, abs=1e-12)
    assert period == pytest.approx(measured["carrier_period_n10_m20"], rel=0, abs=1e-12)
