"""Unit tests for the gshare branch predictor."""

import pytest

from repro.errors import ConfigurationError
from repro.frontend.gshare import GSharePredictor


class TestConstruction:
    def test_power_of_two_required(self):
        with pytest.raises(ConfigurationError):
            GSharePredictor(num_entries=1000)

    def test_negative_history_rejected(self):
        with pytest.raises(ConfigurationError):
            GSharePredictor(num_entries=1024, history_bits=-1)

    def test_default_table_size_matches_paper(self):
        predictor = GSharePredictor()
        assert predictor.num_entries == 64 * 1024


class TestPrediction:
    def test_learns_always_taken_branch(self):
        predictor = GSharePredictor(num_entries=1024)
        pc = 0x4000
        for _ in range(50):
            predicted, checkpoint = predictor.predict(pc)
            predictor.update(pc, True, checkpoint, predicted)
        predicted, _ = predictor.predict(pc)
        assert predicted is True

    def test_learns_never_taken_branch(self):
        predictor = GSharePredictor(num_entries=1024)
        pc = 0x4000
        for _ in range(50):
            predicted, checkpoint = predictor.predict(pc)
            predictor.update(pc, False, checkpoint, predicted)
        predicted, _ = predictor.predict(pc)
        assert predicted is False

    def test_learns_alternating_pattern_through_history(self):
        predictor = GSharePredictor(num_entries=4096, history_bits=8)
        pc = 0x1234
        outcomes = [True, False] * 200
        mispredictions = 0
        for outcome in outcomes:
            predicted, checkpoint = predictor.predict(pc)
            if predicted != outcome:
                mispredictions += 1
            predictor.update(pc, outcome, checkpoint, predicted)
        # After warm-up the alternating pattern is captured by the history.
        assert mispredictions < len(outcomes) * 0.2

    def test_history_repair_on_misprediction(self):
        predictor = GSharePredictor(num_entries=256, history_bits=4)
        predicted, checkpoint = predictor.predict(0x40)
        # Force the opposite outcome; history must contain the real outcome.
        actual = not predicted
        predictor.update(0x40, actual, checkpoint, predicted)
        expected_history = ((checkpoint << 1) | int(actual)) & 0xF
        assert predictor._history == expected_history
