"""Differential tests against brute-force reference models.

The production structures are optimised (packed ints, OrderedDict LRU,
inlined shift arithmetic); these tests check them against transparently
simple reference implementations over hypothesis-generated access
sequences, so any optimisation bug shows up as a divergence.
"""

import math
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.automata import A2
from repro.predictors.base import measure_accuracy
from repro.predictors.hrt import AHRT, _index_hash
from repro.predictors.pattern_table import PatternTable
from repro.predictors.two_level import (
    CachedPredictionTwoLevel,
    DelayedUpdatePredictor,
    TwoLevelAdaptivePredictor,
)
from repro.predictors.hrt import IHRT
from repro.predictors.modern import (
    WEIGHT_MAX,
    WEIGHT_MIN,
    PerceptronPredictor,
    PerceptronState,
    TageState,
)
from repro.sim.engine import simulate
from repro.trace.record import BranchClass, BranchRecord


# ----------------------------------------------------------------------
# reference: a saturating counter defined arithmetically
# ----------------------------------------------------------------------
class TestA2AgainstArithmeticCounter:
    @given(outcomes=st.lists(st.booleans(), max_size=200))
    def test_equivalent(self, outcomes):
        state = 3
        counter = 3
        for taken in outcomes:
            state = A2.next_state(state, taken)
            counter = min(3, counter + 1) if taken else max(0, counter - 1)
            assert state == counter
            assert A2.predict(state) == (counter >= 2)


# ----------------------------------------------------------------------
# reference: AHRT against a dict-of-lists LRU model
# ----------------------------------------------------------------------
class _ReferenceAHRT:
    """Transparent model: per set, a python list ordered LRU -> MRU."""

    def __init__(self, entries: int, init_payload: int, associativity: int = 4):
        self.num_sets = entries // associativity
        self.associativity = associativity
        self.init_payload = init_payload
        self.sets: Dict[int, List[Tuple[int, int]]] = {}
        self.free: Dict[int, int] = {}

    def get(self, pc: int) -> int:
        index = _index_hash(pc, self.num_sets)
        ways = self.sets.setdefault(index, [])
        for position, (tag, payload) in enumerate(ways):
            if tag == pc:
                ways.append(ways.pop(position))  # move to MRU
                return payload
        remaining_free = self.free.get(index, self.associativity)
        if remaining_free > 0:
            self.free[index] = remaining_free - 1
            payload = self.init_payload
        else:
            _victim, payload = ways.pop(0)  # LRU, payload inherited
        ways.append((pc, payload))
        return payload

    def put(self, pc: int, payload: int) -> None:
        index = _index_hash(pc, self.num_sets)
        ways = self.sets.setdefault(index, [])
        for position, (tag, _old) in enumerate(ways):
            if tag == pc:
                ways.pop(position)
                ways.append((pc, payload))
                return


class TestAHRTAgainstReference:
    @given(
        entries=st.sampled_from([4, 8, 32]),
        operations=st.lists(
            st.tuples(
                st.integers(0, 40).map(lambda n: 0x1000 + 4 * n),
                st.one_of(st.none(), st.integers(0, 255)),
            ),
            max_size=300,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_payload_stream(self, entries, operations):
        """Interleaved get/put sequences return identical payloads."""
        real = AHRT(entries, init_payload=7)
        model = _ReferenceAHRT(entries, init_payload=7)
        for pc, maybe_payload in operations:
            assert real.get(pc) == model.get(pc), pc
            if maybe_payload is not None:
                real.put(pc, maybe_payload)
                model.put(pc, maybe_payload)


# ----------------------------------------------------------------------
# reference: the full AT predictor written naively
# ----------------------------------------------------------------------
class _ReferenceTwoLevel:
    """AT with an ideal table, written with no shared state tricks."""

    def __init__(self, k: int):
        self.k = k
        self.histories: Dict[int, List[bool]] = {}
        self.states: Dict[Tuple[bool, ...], int] = {}

    def _history(self, pc: int) -> Tuple[bool, ...]:
        return tuple(self.histories.get(pc, [True] * self.k))

    def predict(self, pc: int) -> bool:
        state = self.states.get(self._history(pc), 3)
        return state >= 2

    def update(self, pc: int, taken: bool) -> None:
        pattern = self._history(pc)
        state = self.states.get(pattern, 3)
        self.states[pattern] = min(3, state + 1) if taken else max(0, state - 1)
        history = list(self.histories.get(pc, [True] * self.k))
        history.pop(0)
        history.append(taken)
        self.histories[pc] = history


_EVENTS = st.lists(
    st.tuples(st.integers(0, 12).map(lambda n: 0x100 + 4 * n), st.booleans()),
    max_size=400,
)


class TestTwoLevelAgainstReference:
    @given(k=st.sampled_from([2, 4, 8]), events=_EVENTS)
    @settings(max_examples=40, deadline=None)
    def test_identical_predictions(self, k, events):
        real = TwoLevelAdaptivePredictor(IHRT(), PatternTable(k, A2))
        model = _ReferenceTwoLevel(k)
        for pc, taken in events:
            assert real.predict(pc, 0) == model.predict(pc)
            real.update(pc, 0, taken)
            model.update(pc, taken)


# ----------------------------------------------------------------------
# wrapper equivalences
# ----------------------------------------------------------------------
def _trace_from_events(events) -> List[BranchRecord]:
    return [
        BranchRecord(pc, BranchClass.CONDITIONAL, taken, pc + 0x40)
        for pc, taken in events
    ]


class TestWrapperEquivalences:
    @given(events=_EVENTS)
    @settings(max_examples=30, deadline=None)
    def test_delay_zero_is_transparent(self, events):
        trace = _trace_from_events(events)
        plain = TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2))
        wrapped = DelayedUpdatePredictor(
            TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2)), delay=0
        )
        assert measure_accuracy(plain, trace) == measure_accuracy(wrapped, trace)

    @given(
        outcomes=st.lists(st.booleans(), max_size=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_prediction_equals_plain_for_single_branch(self, outcomes):
        """With one branch the cached bit can never be stale, so the §3.2
        optimisation is behaviourally invisible."""
        trace = _trace_from_events([(0x500, taken) for taken in outcomes])
        plain = TwoLevelAdaptivePredictor(IHRT(), PatternTable(5, A2))
        cached = CachedPredictionTwoLevel(IHRT(), PatternTable(5, A2))
        plain_stream = []
        cached_stream = []
        for record in trace:
            plain_stream.append(plain.predict(record.pc, record.target))
            plain.update(record.pc, record.target, record.taken)
            cached_stream.append(cached.predict(record.pc, record.target))
            cached.update(record.pc, record.target, record.taken)
        assert plain_stream == cached_stream

    @given(events=_EVENTS)
    @settings(max_examples=30, deadline=None)
    def test_engine_matches_measure_accuracy(self, events):
        trace = _trace_from_events(events)
        first = TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2))
        second = TwoLevelAdaptivePredictor(IHRT(), PatternTable(6, A2))
        engine_accuracy = simulate(first, trace).accuracy
        helper_accuracy = measure_accuracy(second, trace)
        if trace:
            assert engine_accuracy == helper_accuracy


# ----------------------------------------------------------------------
# reference: the textbook perceptron (docs/predictors.md, written out)
# ----------------------------------------------------------------------
def _inputs(history: int, h: int) -> Tuple[int, ...]:
    """``PerceptronState``'s input tuple: bias, then bits 0 .. h-1 as +-1."""
    return (1,) + tuple(1 if (history >> i) & 1 else -1 for i in range(h))


def _clamp(weight: int) -> int:
    return min(WEIGHT_MAX, max(WEIGHT_MIN, weight))


class _TextbookPerceptron:
    """``y = w0 + sum_i w_i x_i`` over bipolar history bits, predict taken
    iff ``y >= 0``; on a mispredict or ``|y| <= theta`` (``theta =
    floor(1.93 h + 14)``) every weight moves one step toward the outcome
    and clamps to ``[-128, 127]``."""

    def __init__(self, h: int):
        self.h = h
        self.theta = math.floor(1.93 * h + 14)
        self.w: Dict[int, List[int]] = {}

    def step(self, row: int, history: int, taken: bool) -> bool:
        w = self.w.setdefault(row, [0] * (self.h + 1))
        x = [1 if (history >> i) & 1 else -1 for i in range(self.h)]
        y = w[0]
        for i in range(self.h):
            y += w[i + 1] * x[i]
        prediction = y >= 0
        if prediction != taken or abs(y) <= self.theta:
            t = 1 if taken else -1
            w[0] = _clamp(w[0] + t)
            for i in range(self.h):
                w[i + 1] = _clamp(w[i + 1] + t * x[i])
        return prediction


_WEIGHT = st.one_of(
    st.sampled_from([WEIGHT_MIN, WEIGHT_MIN + 1, WEIGHT_MAX - 1, WEIGHT_MAX]),
    st.integers(WEIGHT_MIN, WEIGHT_MAX),
)


@st.composite
def _perceptron_streams(draw):
    """(h, rows, preset weights, [(row, history, taken)]); preset rows start
    at or near the clamps so saturation is exercised, not just reached."""
    h = draw(st.sampled_from([1, 2, 5, 12, 62]))
    rows = draw(st.integers(1, 4))
    preset = {
        row: draw(st.lists(_WEIGHT, min_size=h + 1, max_size=h + 1))
        for row in draw(st.sets(st.integers(0, rows - 1)))
    }
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, rows - 1),
                st.integers(0, (1 << h) - 1),
                st.booleans(),
            ),
            max_size=300,
        )
    )
    return h, rows, preset, events


class TestPerceptronAgainstTextbook:
    @given(stream=_perceptron_streams())
    @settings(max_examples=80, deadline=None)
    def test_state_step(self, stream):
        h, rows, preset, events = stream
        state = PerceptronState(h, rows)
        model = _TextbookPerceptron(h)
        for row, weights in preset.items():
            state.weights[row] = list(weights)
            model.w[row] = list(weights)
        for row, history, taken in events:
            x = _inputs(history, h)
            before = state.output(row, x) >= 0
            prediction = state.step(row, x, taken)
            assert prediction == before == model.step(row, history, taken)
        for row, weights in model.w.items():
            assert state.weights.get(row, [0] * (h + 1)) == weights
        assert set(state.weights) <= set(model.w)

    def test_clamps_at_both_bounds(self):
        # y = 127 - 128 = -1 mispredicts a taken branch: w0 would go to 128
        state = PerceptronState(1, rows=1)
        model = _TextbookPerceptron(1)
        state.weights[0] = [WEIGHT_MAX, WEIGHT_MIN]
        model.w[0] = [WEIGHT_MAX, WEIGHT_MIN]
        assert state.step(0, _inputs(1, 1), True) is False
        assert model.step(0, 1, True) is False
        assert state.weights[0] == model.w[0] == [WEIGHT_MAX, WEIGHT_MIN + 1]
        # a correct not-taken prediction inside theta (y = -1) still
        # trains: w1 would go to -129
        state.weights[0] = [WEIGHT_MAX, WEIGHT_MIN]
        model.w[0] = [WEIGHT_MAX, WEIGHT_MIN]
        assert state.step(0, _inputs(1, 1), False) is False
        assert model.step(0, 1, False) is False
        assert state.weights[0] == model.w[0] == [WEIGHT_MAX - 1, WEIGHT_MIN]

    @pytest.mark.parametrize("taken", [True, False])
    def test_trains_at_exactly_theta(self, taken):
        # h=1: theta = 15; y = +-15 predicts correctly yet still trains
        sign = 1 if taken else -1
        state = PerceptronState(1, rows=1)
        model = _TextbookPerceptron(1)
        assert state.theta == model.theta == 15
        state.weights[0] = [sign * 15, 0]
        model.w[0] = [sign * 15, 0]
        assert state.step(0, _inputs(1, 1), taken) is taken
        assert model.step(0, 1, taken) is taken
        assert state.weights[0] == model.w[0] == [sign * 16, sign]

    @given(
        h=st.sampled_from([1, 3, 12]),
        rows=st.integers(1, 5),
        events=st.lists(
            st.tuples(st.integers(0, 9).map(lambda n: 0x400 + 4 * n), st.booleans()),
            max_size=300,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_predictor_global_history(self, h, rows, events):
        """The scalar predictor's shifted input tuple is the textbook
        global history: bit j-1 is the outcome j branches ago, init 0."""
        predictor = PerceptronPredictor(h, rows)
        model = _TextbookPerceptron(h)
        history = 0
        for pc, taken in events:
            prediction = predictor.predict(pc, 0)
            predictor.update(pc, 0, taken)
            assert prediction == model.step((pc >> 2) % rows, history, taken)
            history = ((history << 1) | taken) & ((1 << h) - 1)


# ----------------------------------------------------------------------
# reference: TAGE with separate valid and tag tables
# ----------------------------------------------------------------------
class _ReferenceTage:
    """The docs/predictors.md rule over explicit valid bits: the longest
    valid tag match provides, the next match (else the base counter) is the
    altpred; the provider's useful counter moves when the two disagree; a
    mispredict allocates in the first longer table whose ``u`` is 0, else
    decays every longer candidate's ``u``."""

    def __init__(self, tables: int, entry_bits: int):
        size = 1 << entry_bits
        self.tables = tables
        self.base = [2] * (size << 2)
        self.valid = [[False] * size for _ in range(tables)]
        self.tag = [[0] * size for _ in range(tables)]
        self.ctr = [[0] * size for _ in range(tables)]
        self.useful = [[0] * size for _ in range(tables)]

    def _matches(self, indices, tags) -> List[int]:
        return [
            i
            for i in range(self.tables)
            if self.valid[i][indices[i]] and self.tag[i][indices[i]] == tags[i]
        ]

    def predict(self, base_index, indices, tags) -> bool:
        matches = self._matches(indices, tags)
        if not matches:
            return self.base[base_index] >= 2
        return self.ctr[matches[-1]][indices[matches[-1]]] >= 0

    def step(self, base_index, indices, tags, taken) -> bool:
        matches = self._matches(indices, tags)
        base_prediction = self.base[base_index] >= 2
        if matches:
            provider = matches[-1]
            index = indices[provider]
            prediction = self.ctr[provider][index] >= 0
            if len(matches) > 1:
                alt = self.ctr[matches[-2]][indices[matches[-2]]] >= 0
            else:
                alt = base_prediction
            if prediction != alt:
                u = self.useful[provider][index] + (1 if prediction == taken else -1)
                self.useful[provider][index] = min(3, max(0, u))
            counter = self.ctr[provider][index] + (1 if taken else -1)
            self.ctr[provider][index] = min(3, max(-4, counter))
        else:
            provider = -1
            prediction = base_prediction
            counter = self.base[base_index] + (1 if taken else -1)
            self.base[base_index] = min(3, max(0, counter))
        if prediction != taken:
            longer = range(provider + 1, self.tables)
            free = [j for j in longer if self.useful[j][indices[j]] == 0]
            if free:
                j = free[0]
                self.valid[j][indices[j]] = True
                self.tag[j][indices[j]] = tags[j]
                self.ctr[j][indices[j]] = 0 if taken else -1
            else:
                for j in longer:
                    self.useful[j][indices[j]] = max(0, self.useful[j][indices[j]] - 1)
        return prediction


@st.composite
def _tage_streams(draw):
    """(tables, entry_bits, preset tables, [(base_index, indices, tags,
    taken)]) over tiny tables and a 2-bit tag alphabet, so hits, misses,
    aliasing and allocation pressure all occur within a few hundred
    records; the preset starts counters anywhere in their ranges (so
    saturation and the no-free-slot decay are reached) and gives invalid
    entries a stale tag the match must ignore."""
    tables = draw(st.integers(1, 4))
    entry_bits = draw(st.integers(1, 3))
    size = 1 << entry_bits

    def column(values):
        return draw(st.lists(values, min_size=size, max_size=size))

    if not draw(st.booleans()):
        preset = None  # fresh tables: every tagged entry starts invalid
    else:
        preset = {
            "base": draw(
                st.lists(st.integers(0, 3), min_size=size << 2, max_size=size << 2)
            ),
            "valid": [column(st.booleans()) for _ in range(tables)],
            "tag": [column(st.integers(0, 3)) for _ in range(tables)],
            "ctr": [column(st.integers(-4, 3)) for _ in range(tables)],
            "useful": [column(st.integers(0, 3)) for _ in range(tables)],
        }
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, (size << 2) - 1),
                st.lists(st.integers(0, size - 1), min_size=tables, max_size=tables),
                st.lists(st.integers(0, 3), min_size=tables, max_size=tables),
                st.booleans(),
            ),
            max_size=400,
        )
    )
    return tables, entry_bits, preset, events


class TestTageStateAgainstReference:
    @given(stream=_tage_streams())
    @settings(max_examples=80, deadline=None)
    def test_identical_walk(self, stream):
        tables, entry_bits, preset, events = stream
        state = TageState(tables, entry_bits)
        model = _ReferenceTage(tables, entry_bits)
        if preset is not None:
            model.base = list(preset["base"])
            state.base = list(preset["base"])
            for name in ("valid", "tag", "ctr", "useful"):
                setattr(model, name, [list(row) for row in preset[name]])
            state.ctr = [list(row) for row in preset["ctr"]]
            state.useful = [list(row) for row in preset["useful"]]
            state.tag = [
                [tag if valid else -1 for tag, valid in zip(tags, valids)]
                for tags, valids in zip(preset["tag"], preset["valid"])
            ]
        for base_index, indices, tags, taken in events:
            assert state.peek(base_index, indices, tags) == model.predict(
                base_index, indices, tags
            )
            assert state.step(base_index, indices, tags, taken) == model.step(
                base_index, indices, tags, taken
            )
        assert state.base == model.base
        assert state.ctr == model.ctr
        assert state.useful == model.useful
        for i in range(tables):
            assert state.tag[i] == [
                tag if valid else -1
                for tag, valid in zip(model.tag[i], model.valid[i])
            ]
