"""Smoke tests for tools/calibrate.py against the frozen calibration fixture.

``main()`` runs only on a copy of the fixture: it rewrites the file it
calibrates.
"""

import importlib.util
import json
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


def test_ring_drifts_reproduce_fixture_exactly(calibrate, calibration):
    assert calibrate.ring_drifts() == calibration["measured"]["ring"]


def test_carrier_rel_rms_reproduces_fixture(calibrate, calibration):
    measured = calibration["measured"]
    rel_rms, period = calibrate.carrier_rel_rms(10, 20, 3)
    assert rel_rms == pytest.approx(measured["carrier_rel_rms_n10_m20"], rel=0, abs=1e-12)
    assert period == pytest.approx(measured["carrier_period_n10_m20"], rel=0, abs=1e-12)


def test_main_refreshes_measured_and_keeps_every_frozen_bound(calibrate, calibration, tmp_path,
                                                              monkeypatch):
    frozen = dict(calibration, fan_rel_freq_error_bound_n50=0.0042, measured={"stale": 1.0})
    del frozen["ring_eigen_drift_cells_per_period"]  # a bound the fixture lacks is set
    copy = tmp_path / "calibration.json"
    copy.write_text(json.dumps(frozen))
    monkeypatch.setattr(calibrate, "OUT", copy)
    calibrate.main()
    written = json.loads(copy.read_text())
    measured = written.pop("measured")
    del frozen["measured"]
    assert written == dict(frozen, ring_eigen_drift_cells_per_period=0.1)
    assert measured.keys() == calibration["measured"].keys()
    assert measured["ray_amplitude_uniformity"] == calibrate.amplitude_uniformity()
