"""Confidence estimators and path confidence."""

import random

import pytest

from repro.branch import (
    CompositeConfidenceEstimator,
    JRSEstimator,
    PathConfidence,
    SelfCounterEstimator,
    UpDownEstimator,
)


def test_jrs_resets_on_mispredict():
    e = JRSEstimator(entries=64)
    for _ in range(10):
        e.update(0x40, 0, correct=True)
    high = e.probability(0x40, 0)
    e.update(0x40, 0, correct=False)
    assert e.probability(0x40, 0) < high
    assert e.probability(0x40, 0) == pytest.approx(0.70)


def test_jrs_history_distinguishes_contexts():
    e = JRSEstimator(entries=1024)
    for _ in range(10):
        e.update(0x40, 0x1, correct=True)
    assert e.probability(0x40, 0x1) > e.probability(0x40, 0x2)


def test_updown_moves_gradually():
    e = UpDownEstimator(entries=64)
    start = e.probability(0x40)
    e.update(0x40, 0, correct=True)
    assert e.probability(0x40) > start
    for _ in range(20):
        e.update(0x40, 0, correct=False)
    assert e.probability(0x40) == pytest.approx(0.70)


def test_self_counter_tracks_direction_streaks():
    e = SelfCounterEstimator(entries=64)
    for _ in range(10):
        e.update(0x40, 0, correct=True, taken=True)
    high = e.probability(0x40)
    e.update(0x40, 0, correct=True, taken=False)  # direction change
    assert e.probability(0x40) < high


def test_composite_is_mean_of_components():
    c = CompositeConfidenceEstimator(entries=64)
    p = c.probability(0x80, 0)
    parts = (
        c.jrs.probability(0x80, 0)
        + c.updown.probability(0x80, 0)
        + c.selfc.probability(0x80, 0)
    ) / 3.0
    assert p == pytest.approx(parts)


def test_composite_probability_bounds():
    c = CompositeConfidenceEstimator(entries=64)
    for _ in range(100):
        c.update(0x10, 0, correct=True, taken=True)
    assert 0.5 < c.probability(0x10, 0) <= 1.0


def test_composite_storage_fits_2kb_budget():
    bits = CompositeConfidenceEstimator(entries=1024).storage_bits()
    assert bits <= 2 * 8 * 1024


def test_path_confidence_product():
    path = PathConfidence(threshold=0.75)
    path.extend(0.9)
    path.extend(0.9)
    assert path.value == pytest.approx(0.81)
    assert path.confident
    path.extend(0.9)
    assert not path.confident
    assert path.depth == 3


def test_path_confidence_validates_inputs():
    with pytest.raises(ValueError):
        PathConfidence(threshold=0.0)
    path = PathConfidence()
    with pytest.raises(ValueError):
        path.extend(1.5)


def test_path_confidence_depth_at_threshold():
    """At the paper's 0.75 threshold with ~0.97 per-branch confidence the
    lookahead should run roughly 8-10 blocks deep."""
    path = PathConfidence(threshold=0.75)
    while path.confident:
        path.extend(0.97)
    assert 7 <= path.depth <= 11


def test_composite_matches_component_mean_bit_for_bit():
    """The flat composite read keeps the component sum order, so the path
    products the lookahead builds from it are unchanged."""
    import random
    rng = random.Random(7)
    c = CompositeConfidenceEstimator(entries=64)
    for _ in range(2000):
        pc = rng.randrange(0, 1 << 12) << 2
        c.update(pc, rng.randrange(1 << 12), rng.random() < 0.8,
                 rng.random() < 0.5)
    for _ in range(2000):
        pc = rng.randrange(0, 1 << 12) << 2
        history = rng.randrange(1 << 20)
        assert c.probability(pc, history) == (
            c.jrs.probability(pc, history)
            + c.updown.probability(pc, history)
            + c.selfc.probability(pc, history)
        ) / 3.0
