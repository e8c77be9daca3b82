"""Direction predictors: bimodal, gshare, local, tournament."""

import random

import pytest

from repro.branch import (
    BimodalPredictor,
    GsharePredictor,
    LocalPredictor,
    TournamentConfig,
    TournamentPredictor,
)


def train(predictor, pc, outcomes):
    for taken in outcomes:
        predictor.update(pc, taken)


def test_bimodal_learns_bias():
    p = BimodalPredictor(entries=64)
    train(p, 0x100, [True] * 4)
    assert p.predict(0x100)
    train(p, 0x100, [False] * 6)
    assert not p.predict(0x100)


def test_bimodal_counter_saturates():
    p = BimodalPredictor(entries=64)
    train(p, 0x100, [True] * 100)
    index = p._index(0x100)
    assert p.table[index] == p.max_count


def test_bimodal_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        BimodalPredictor(entries=100)


def test_gshare_distinguishes_history_contexts():
    p = GsharePredictor(entries=1024, history_bits=4)
    # alternating pattern: after T the branch is NT and vice versa
    for _ in range(64):
        p.update(0x40, p.history & 1 == 0)
    correct = 0
    for _ in range(32):
        taken = p.history & 1 == 0
        correct += p.predict(0x40) == taken
        p.update(0x40, taken)
    assert correct >= 30


def test_gshare_speculative_lookup_has_no_side_effects():
    p = GsharePredictor(entries=256)
    before = (list(p.table), p.history)
    p.predict(0x123, history=0x5A)
    assert (list(p.table), p.history) == before


def test_local_learns_short_period_pattern():
    p = LocalPredictor(history_entries=64, history_bits=8)
    pattern = [True, True, False]
    for i in range(300):
        p.update(0x80, pattern[i % 3])
    correct = 0
    for i in range(30):
        taken = pattern[i % 3]
        correct += p.predict(0x80) == taken
        p.update(0x80, taken)
    assert correct >= 28


def test_tournament_beats_components_on_mixed_workload():
    p = TournamentPredictor(TournamentConfig())
    # branch A: biased taken; branch B: alternating (local-predictable)
    hits = 0
    total = 0
    state = [True]
    for i in range(2000):
        taken_a = True
        hits += p.predict(0x100) == taken_a
        p.update(0x100, taken_a)
        taken_b = state[0]
        state[0] = not state[0]
        hits += p.predict(0x200) == taken_b
        p.update(0x200, taken_b)
        total += 2
    assert hits / total > 0.95


def test_tournament_scaled_sizes():
    small = TournamentConfig(scale=0.5)
    big = TournamentConfig(scale=4.0)
    assert small.global_entries < big.global_entries
    assert TournamentPredictor(big).storage_bits() > \
        TournamentPredictor(small).storage_bits()


def test_tournament_speculative_history_lookup():
    p = TournamentPredictor()
    for _ in range(50):
        p.update(0x300, True)
    state = p.gshare.history
    p.predict(0x300, history=0x3FF)
    assert p.gshare.history == state


def test_storage_bits_positive_and_scale_monotonic():
    sizes = [
        TournamentPredictor(TournamentConfig(scale=s)).storage_bits()
        for s in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] > 0


def test_tournament_predict_matches_chooser_over_components():
    """The flat tournament read returns the component the chooser picks,
    for the live history and for speculative histories alike."""
    rng = random.Random(11)
    p = TournamentPredictor(TournamentConfig(scale=0.25))
    for _ in range(3000):
        p.update(rng.randrange(0, 1 << 10) << 2, rng.random() < 0.6)
    for _ in range(3000):
        pc = rng.randrange(0, 1 << 10) << 2
        for history in (None, rng.randrange(1 << 20)):
            live = p.gshare.history if history is None else history
            expected = (p.gshare.predict(pc, live)
                        if p.chooser[live & p._cmask] >= 2
                        else p.local.predict(pc))
            assert p.predict(pc, history) == expected
