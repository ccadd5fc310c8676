"""Modern-predictor subsystem: perceptron and TAGE scalar reference models.

These are the authoritative scalar semantics the vector kernels and
streaming scorers must reproduce bit-exactly (see tests/sim); here we pin
the update rules themselves — threshold training and weight clamping for
the perceptron, provider/altpred selection, useful bits and allocation for
TAGE — against hand-walked micro-traces.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.predictors.modern import (
    CTR_MAX,
    CTR_MIN,
    MAX_HISTORY,
    MAX_TABLES,
    U_MAX,
    WEIGHT_MAX,
    WEIGHT_MIN,
    PerceptronPredictor,
    TagePredictor,
    fold_history,
    perceptron_threshold,
    tage_geometries,
    tage_index,
    tage_tag,
)
TARGET = 0x40


def _run(predictor, outcomes, pc=0x1000):
    predictions = []
    for taken in outcomes:
        predictions.append(predictor.predict(pc, TARGET))
        predictor.update(pc, TARGET, taken)
    return predictions


class TestPerceptron:
    def test_threshold_formula(self):
        # Jimenez & Lin: theta = floor(1.93 h + 14)
        assert perceptron_threshold(12) == 37
        assert perceptron_threshold(1) == 15

    def test_initial_prediction_is_taken(self):
        # zero weights give y = 0, and the decision rule is y >= 0
        predictor = PerceptronPredictor(4, rows=8)
        assert predictor.predict(0x1000, TARGET) is True

    def test_learns_alternating_pattern(self):
        predictor = PerceptronPredictor(8, rows=4)
        pattern = [True, False] * 80
        predictions = _run(predictor, pattern)
        assert predictions[-20:] == pattern[-20:]

    def test_learns_history_copy(self):
        # taken = outcome two branches ago — a pure function of one history
        # bit, linearly separable, the case the paper's counters struggle
        # with unless the pattern table sees the right history window
        predictor = PerceptronPredictor(6, rows=4)
        stream = [True, True]
        for i in range(150):
            stream.append(stream[-2])
            stream[-1] = bool((i * 7 + 3) % 5 % 2) if i < 2 else stream[-2]
        predictions = _run(predictor, stream)
        tail = [p == t for p, t in zip(predictions[-30:], stream[-30:])]
        assert sum(tail) >= 28

    def test_weights_clamp(self):
        predictor = PerceptronPredictor(2, rows=1)
        for _ in range(600):
            predictor.predict(0x1000, TARGET)
            predictor.update(0x1000, TARGET, True)
        assert all(
            WEIGHT_MIN <= w <= WEIGHT_MAX
            for row in predictor.state.weights.values()
            for w in row
        )

    def test_row_aliasing(self):
        # (pc >> 2) % rows: with one row, distinct pcs share weights
        one_row = PerceptronPredictor(4, rows=1)
        for _ in range(50):
            one_row.predict(0x1000, TARGET)
            one_row.update(0x1000, TARGET, True)
        assert one_row.predict(0x2004, TARGET) is True

    def test_validation(self):
        with pytest.raises(ConfigError):
            PerceptronPredictor(0)
        with pytest.raises(ConfigError):
            PerceptronPredictor(MAX_HISTORY + 1)
        with pytest.raises(ConfigError):
            PerceptronPredictor(8, rows=0)

    def test_reset_restores_initial_state(self):
        predictor = PerceptronPredictor(4, rows=2)
        _run(predictor, [True, False, False, True] * 10)
        predictor.reset()
        fresh = PerceptronPredictor(4, rows=2)
        assert _run(predictor, [False, True] * 10) == _run(
            fresh, [False, True] * 10
        )

    def test_name(self):
        assert PerceptronPredictor(12, rows=512).name == "perceptron(12,512)"


class TestTageHashing:
    def test_geometries_double(self):
        assert tage_geometries(4) == [4, 8, 16, 32]
        assert tage_geometries(1) == [4]

    def test_fold_is_xor_of_chunks(self):
        # history 0b1101_0110 folded to 4 bits: 0b1101 ^ 0b0110
        assert fold_history(0b11010110, 8, 4) == 0b1101 ^ 0b0110
        # fixed chunk count: high zero chunks do not change the fold
        assert fold_history(0b0110, 8, 4) == fold_history(0b0110, 4, 4)

    def test_index_and_tag_in_range(self):
        for length in tage_geometries(4):
            index = tage_index(0x1F40, 0xDEADBEEF, length, 9)
            assert 0 <= index < 512
            tag = tage_tag(0x1F40, 0xDEADBEEF, length)
            assert 0 <= tag < 256

    def test_different_lengths_decorrelate(self):
        hist = 0b101101110101
        indices = {
            tage_index(0x1000, hist, length, 9)
            for length in tage_geometries(4)
        }
        assert len(indices) > 1


class TestTagePredictor:
    def test_base_predicts_taken_initially(self):
        predictor = TagePredictor(4, entry_bits=9)
        assert predictor.predict(0x1000, TARGET) is True

    def test_learns_bias(self):
        predictor = TagePredictor(2, entry_bits=5)
        predictions = _run(predictor, [False] * 30)
        assert predictions[-10:] == [False] * 10

    def test_learns_alternating_pattern(self):
        predictor = TagePredictor(4, entry_bits=9)
        pattern = [True, False] * 100
        predictions = _run(predictor, pattern)
        assert sum(
            1 for p, t in zip(predictions[-40:], pattern[-40:]) if p == t
        ) >= 36

    def test_counters_stay_in_range(self):
        predictor = TagePredictor(2, entry_bits=4)
        outcomes = [bool((i // 3) % 2) for i in range(400)]
        for i, taken in enumerate(outcomes):
            pc = 0x1000 + (i % 5) * 4
            predictor.predict(pc, TARGET)
            predictor.update(pc, TARGET, taken)
        for table in range(predictor.state.tables):
            for ctr in predictor.state.ctr[table]:
                assert CTR_MIN <= ctr <= CTR_MAX
            for u in predictor.state.useful[table]:
                assert 0 <= u <= U_MAX

    def test_validation(self):
        with pytest.raises(ConfigError):
            TagePredictor(0)
        with pytest.raises(ConfigError):
            TagePredictor(MAX_TABLES + 1)
        with pytest.raises(ConfigError):
            TagePredictor(4, entry_bits=0)

    def test_reset_restores_initial_state(self):
        predictor = TagePredictor(2, entry_bits=5)
        _run(predictor, [True, True, False] * 30)
        predictor.reset()
        fresh = TagePredictor(2, entry_bits=5)
        stream = [False, True, True] * 20
        assert _run(predictor, stream) == _run(fresh, stream)

    def test_name(self):
        assert TagePredictor(4, entry_bits=9).name == "tage(4,9)"

    def test_deterministic(self):
        stream = [bool((i * 5 + 1) % 7 % 2) for i in range(200)]
        a = _run(TagePredictor(3, entry_bits=6), stream)
        b = _run(TagePredictor(3, entry_bits=6), stream)
        assert a == b
