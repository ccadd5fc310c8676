"""Incremental (streaming) predictor scoring sessions.

The offline engines score a *complete* trace in one call.  The prediction
service (:mod:`repro.serve`) instead receives records in arbitrary chunks
over a connection and must answer each chunk before the next arrives, while
the predictor's state persists across chunks.  A :class:`StreamingScorer`
is that session object: feed it record batches in trace order and it
returns the per-record predictions, accumulating the same
:class:`~repro.sim.results.PredictionStats` the offline engine would have
produced for the concatenated stream.

Two implementations exist, mirroring :mod:`repro.sim.backend`:

* the **scalar** scorer wraps the predictor object built by
  :meth:`~repro.predictors.spec.PredictorSpec.build` and dispatches its
  fused ``observe`` per record — always available, the reference;
* the **vector** scorer re-derives the batched kernels of
  :mod:`repro.sim.kernels` in *carried-state* form: history registers,
  automaton state tables and the global history register survive between
  ``feed`` calls, so scoring a stream chunk-by-chunk is bit-exact with
  scoring it whole.  The finite HRT front-ends carry their state too — an
  HHRT session just re-keys the tables by hashed slot, and an AHRT session
  keeps a persistent :class:`~repro.sim.kernels.AhrtReplay` whose LRU
  recency stacks advance with every batch, so register ids (and the
  payloads they carry across evictions) are chunking-invariant.

Bit-exactness holds for *any* chunking: ``feed(a); feed(b)`` produces the
same predictions and statistics as ``feed(a + b)``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.predictors.automata import A2
from repro.predictors.modern import DEFAULT_ENTRY_BITS, PerceptronState, TageState
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.sim.kernels import (
    AhrtReplay,
    _composition_tables,
    _hash_buckets,
    _history_global,
    _np,
    _perceptron_predictions,
    _profile_bias,
    _preset_bits,
    _segment_positions,
    _tage_predictions,
    choose_backend,
)
from repro.sim.results import PredictionStats
from repro.trace.columnar import _CLS_MASK, PackedTrace
from repro.trace.record import BranchClass, BranchRecord

__all__ = [
    "StreamingScorer",
    "ScalarStreamingScorer",
    "VectorStreamingScorer",
    "FusedPredictions",
    "MultiSessionScorer",
    "ScalarMultiSessionScorer",
    "VectorMultiSessionScorer",
    "make_scorer",
    "make_multi_scorer",
    "needs_training",
]

SpecLike = Union[str, PredictorSpec]

#: schemes whose session needs training records before scoring starts.
_TRAINING_SCHEMES = ("ST", "Profile")


def needs_training(spec: PredictorSpec) -> bool:
    """Whether a session for ``spec`` must be given training records."""
    return spec.scheme in _TRAINING_SCHEMES


def _as_spec(spec: SpecLike) -> PredictorSpec:
    return spec if isinstance(spec, PredictorSpec) else parse_spec(spec)


class StreamingScorer:
    """Base class: an incremental scoring session for one predictor spec.

    ``feed`` takes records in trace order and returns one entry per input
    record: the predicted direction (``bool``) for conditional records,
    ``None`` for records the direction predictor does not score (calls,
    returns, unconditional jumps).  ``stats`` accumulates across calls.
    """

    backend = "scalar"

    def __init__(self, spec: PredictorSpec):
        self.spec = spec
        self.stats = PredictionStats()

    def feed(self, records: Sequence[BranchRecord]) -> List[Optional[bool]]:
        raise NotImplementedError


class ScalarStreamingScorer(StreamingScorer):
    """Streaming session over the scalar engine's fused ``observe`` hook."""

    backend = "scalar"

    def __init__(
        self,
        spec: PredictorSpec,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ):
        super().__init__(spec)
        if needs_training(spec) and training_records is None:
            raise ConfigError(
                f"{spec.canonical()}: session needs training records before scoring"
            )
        self._predictor = spec.build(training_records=training_records)

    def feed(self, records: Sequence[BranchRecord]) -> List[Optional[bool]]:
        observe = self._predictor.observe
        stats = self.stats
        out: List[Optional[bool]] = []
        append = out.append
        CONDITIONAL = BranchClass.CONDITIONAL
        for record in records:
            if record.cls is CONDITIONAL:
                prediction = observe(record.pc, record.target, record.taken)
                stats.conditional_total += 1
                if prediction == record.taken:
                    stats.conditional_correct += 1
                append(prediction)
            else:
                append(None)
        return out


# ----------------------------------------------------------------------
# carried-state vector kernels
# ----------------------------------------------------------------------
def _gather_states(np: Any, states: Any, keys: Any, default: int) -> Any:
    """Current automaton state per key from a dict- or array-backed table."""
    if isinstance(states, dict):
        return np.fromiter(
            (states.get(int(key), default) for key in keys),
            dtype=np.intp,
            count=len(keys),
        )
    return states[keys]


def _scatter_states(states: Any, keys: Any, values: Any) -> None:
    if isinstance(states, dict):
        for key, value in zip(keys, values):
            states[int(key)] = int(value)
    else:
        states[keys] = values


def _fsm_predictions_carried(
    np: Any, keys: Any, taken: Any, automaton: Any, states: Any
) -> Any:
    """Per-record predictions from replaying each key's outcome subsequence
    through ``automaton``, *starting from and updating* ``states``.

    The batched twin of :func:`repro.sim.kernels._fsm_predictions` with the
    per-bucket initial state read from ``states`` (dict keyed by bucket, or
    a dense array indexed by bucket) instead of ``automaton.init_state``;
    after the call ``states`` holds each touched bucket's post-batch state,
    so consecutive calls replay a stream chunk-by-chunk bit-exactly.
    """
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=bool)
    predictions_lut = np.array(automaton.predictions, dtype=bool)
    compose, decode = _composition_tables(np)
    order, pos = _segment_positions(np, keys)
    sorted_keys = keys[order]
    taken_sorted = taken[order].astype(np.intp)
    transitions = np.asarray(automaton.transitions, dtype=np.int64)
    step_codes = np.zeros(2, dtype=np.intp)
    for state in range(automaton.num_states):
        step_codes |= transitions[state].astype(np.intp) << (2 * state)
    codes = step_codes[taken_sorted].astype(np.uint8)
    by_pos = np.argsort(pos, kind="stable")
    pos_sorted = pos[by_pos]
    distance = 1
    while True:
        active = by_pos[np.searchsorted(pos_sorted, distance):]
        if active.size == 0:
            break
        codes[active] = compose[codes[active], codes[active - distance]]
        distance <<= 1
    seg_start = pos == 0
    starts = np.nonzero(seg_start)[0]
    seg_keys = sorted_keys[starts]
    init_states = _gather_states(np, states, seg_keys, automaton.init_state)
    seg_init = init_states[np.cumsum(seg_start) - 1]
    state_before = seg_init.copy()
    inner = np.nonzero(pos > 0)[0]
    state_before[inner] = decode[codes[inner - 1], seg_init[inner]]
    ends = np.append(starts[1:], n) - 1
    _scatter_states(states, seg_keys, decode[codes[ends], init_states])
    out = np.empty(n, dtype=bool)
    out[order] = predictions_lut[state_before]
    return out


def _branch_histories_carried(
    np: Any, pc: Any, taken: Any, history_length: int, table: Dict[int, int], init_value: int
) -> Any:
    """Per-record k-bit history *before* each record, carried across batches.

    Bits below a record's in-batch occurrence index come from the batch's
    own outcome window (the :func:`_history_per_branch` sliding window with
    init bit 0); the higher bits are the branch's carried register shifted
    into place.  ``table`` is updated with each branch's post-batch register.
    """
    n = len(pc)
    mask = (1 << history_length) - 1
    order, pos = _segment_positions(np, pc)
    sorted_pc = pc[order]
    taken_sorted = taken[order].astype(np.int64)
    window = np.zeros(n, dtype=np.int64)
    max_pos = int(pos.max()) if n else 0
    for j in range(1, history_length + 1):
        if j > max_pos:
            break
        previous = np.empty(n, dtype=np.int64)
        previous[:j] = 0
        previous[j:] = taken_sorted[:-j]
        window |= np.where(pos >= j, previous, 0) << (j - 1)
    seg_start = pos == 0
    starts = np.nonzero(seg_start)[0]
    seg_keys = sorted_pc[starts]
    carried = np.fromiter(
        (table.get(int(key), init_value) for key in seg_keys),
        dtype=np.int64,
        count=len(starts),
    )
    # a register contributes nothing once shifted past k bits; clamping the
    # shift to k keeps the int64 shift in range for arbitrarily long batches
    shift = np.minimum(pos, history_length)
    histories = window | ((carried[np.cumsum(seg_start) - 1] << shift) & mask)
    ends = np.append(starts[1:], n) - 1
    new_values = ((histories[ends] << 1) | taken_sorted[ends]) & mask
    for key, value in zip(seg_keys, new_values):
        table[int(key)] = int(value)
    out = np.empty(n, dtype=np.int64)
    out[order] = histories
    return out


def _global_histories_carried(
    np: Any, taken: Any, history_length: int, carried: int
) -> "tuple[Any, int]":
    """Per-record global history before each record, plus the new register."""
    n = len(taken)
    mask = (1 << history_length) - 1
    window = _history_global(np, taken, history_length, 0)
    shift = np.minimum(np.arange(n, dtype=np.int64), history_length)
    histories = window | ((carried << shift) & mask)
    if n:
        carried = int(((int(histories[-1]) << 1) | int(taken[-1])) & mask)
    return histories, carried


class VectorStreamingScorer(StreamingScorer):
    """Streaming session scored with carried-state NumPy batch kernels.

    Supports exactly the specs :func:`repro.sim.kernels.vectorizable`
    accepts; construct through :func:`make_scorer`, which applies the
    scalar fallback for the rest.
    """

    backend = "vector"

    def __init__(
        self,
        spec: PredictorSpec,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ):
        super().__init__(spec)
        np = _np()
        scheme = spec.scheme
        self._ahrt: Optional[AhrtReplay] = None
        if scheme in ("AT", "ST", "LS"):
            if spec.hrt_kind == "AHRT":
                assert spec.hrt_entries is not None
                self._ahrt = AhrtReplay(spec.hrt_entries, spec.hrt_associativity)
            elif spec.hrt_kind == "HHRT" and (spec.hrt_entries or 0) < 1:
                raise ConfigError("HHRT entries must be >= 1")
        if needs_training(spec):
            if training_records is None:
                raise ConfigError(
                    f"{spec.canonical()}: session needs training records before scoring"
                )
            t_pc, t_taken = self._training_columns(np, training_records)
        if scheme == "Profile":
            self._profile_pc, self._profile_bias = _profile_bias(np, (t_pc, t_taken))
        elif scheme == "ST":
            assert spec.history_length is not None
            self._preset = _preset_bits(np, (t_pc, t_taken), spec.history_length)
            self._histories: Dict[int, int] = {}
        elif scheme == "AT":
            assert spec.history_length is not None and spec.pt_automaton is not None
            self._histories = {}
            self._pt_states = np.full(
                1 << spec.history_length, spec.pt_automaton.init_state, dtype=np.intp
            )
        elif scheme == "LS":
            assert spec.hrt_automaton is not None
            self._site_states: Dict[int, int] = {}
        elif scheme in ("GAg", "gshare"):
            assert spec.history_length is not None
            mask = (1 << spec.history_length) - 1
            self._global = mask if scheme == "GAg" else 0
            self._pt_states = np.full(
                1 << spec.history_length,
                (spec.pt_automaton or A2).init_state,
                dtype=np.intp,
            )
        elif scheme == "Perceptron":
            assert spec.history_length is not None and spec.rows is not None
            self._perceptron = PerceptronState(spec.history_length, spec.rows)
            self._global = 0
        elif scheme == "TAGE":
            assert spec.tage_tables is not None
            self._tage = TageState(
                spec.tage_tables, spec.tage_entry_bits or DEFAULT_ENTRY_BITS
            )
            self._global = 0
        elif scheme not in ("AlwaysTaken", "AlwaysNotTaken", "BTFN"):
            raise ConfigError(f"no streaming vector kernel for {spec.canonical()!r}")

    @staticmethod
    def _training_columns(np: Any, training_records: Iterable[BranchRecord]) -> "tuple[Any, Any]":
        pairs = [
            (record.pc, 1 if record.taken else 0)
            for record in training_records
            if record.cls is BranchClass.CONDITIONAL
        ]
        pc = np.array([pair[0] for pair in pairs], dtype=np.int64)
        taken = np.array([pair[1] for pair in pairs], dtype=np.int8)
        return pc, taken

    # ------------------------------------------------------------------
    def feed(self, records: Sequence[BranchRecord]) -> List[Optional[bool]]:
        np = _np()
        out: List[Optional[bool]] = [None] * len(records)
        CONDITIONAL = BranchClass.CONDITIONAL
        cond_indices = [
            index for index, record in enumerate(records) if record.cls is CONDITIONAL
        ]
        if not cond_indices:
            return out
        m = len(cond_indices)
        pc = np.fromiter((records[i].pc for i in cond_indices), dtype=np.int64, count=m)
        target = np.fromiter(
            (records[i].target for i in cond_indices), dtype=np.int64, count=m
        )
        taken = np.fromiter(
            (1 if records[i].taken else 0 for i in cond_indices), dtype=np.int8, count=m
        )
        predictions = self._predict_batch(np, pc, target, taken)
        self.stats.conditional_total += m
        self.stats.conditional_correct += int(
            (predictions == taken.astype(bool)).sum()
        )
        for offset, index in enumerate(cond_indices):
            out[index] = bool(predictions[offset])
        return out

    def _hrt_batch_keys(self, np: Any, pc: Any) -> Any:
        """Bucket keys for the batch under the spec's HRT front-end — the
        streaming twin of :func:`repro.sim.kernels._hrt_keys`.  The AHRT
        branch advances the session's carried LRU replay, so it must be
        called exactly once per fed batch, in stream order."""
        spec = self.spec
        if self._ahrt is not None:
            return self._ahrt.assign(np, pc)
        if spec.hrt_kind == "HHRT":
            assert spec.hrt_entries is not None
            return _hash_buckets(np, pc, spec.hrt_entries)
        return pc

    def _predict_batch(self, np: Any, pc: Any, target: Any, taken: Any) -> Any:
        spec = self.spec
        scheme = spec.scheme
        if scheme == "AlwaysTaken":
            return np.ones(len(pc), dtype=bool)
        if scheme == "AlwaysNotTaken":
            return np.zeros(len(pc), dtype=bool)
        if scheme == "BTFN":
            return target < pc
        if scheme == "Profile":
            unique_pc, bias = self._profile_pc, self._profile_bias
            if len(unique_pc) == 0:
                return np.ones(len(pc), dtype=bool)
            slot = np.searchsorted(unique_pc, pc)
            clamped = np.minimum(slot, len(unique_pc) - 1)
            known = (slot < len(unique_pc)) & (unique_pc[clamped] == pc)
            return np.where(known, bias[clamped], True)
        if scheme == "LS":
            keys = self._hrt_batch_keys(np, pc)
            return _fsm_predictions_carried(
                np, keys, taken, spec.hrt_automaton, self._site_states
            )
        if scheme == "AT":
            assert spec.history_length is not None
            mask = (1 << spec.history_length) - 1
            keys = self._hrt_batch_keys(np, pc)
            patterns = _branch_histories_carried(
                np, keys, taken, spec.history_length, self._histories, mask
            )
            return _fsm_predictions_carried(
                np, patterns, taken, spec.pt_automaton, self._pt_states
            )
        if scheme == "ST":
            assert spec.history_length is not None
            mask = (1 << spec.history_length) - 1
            keys = self._hrt_batch_keys(np, pc)
            patterns = _branch_histories_carried(
                np, keys, taken, spec.history_length, self._histories, mask
            )
            return self._preset[patterns]
        if scheme == "GAg":
            assert spec.history_length is not None
            histories, self._global = _global_histories_carried(
                np, taken, spec.history_length, self._global
            )
            return _fsm_predictions_carried(
                np, histories, taken, spec.pt_automaton or A2, self._pt_states
            )
        if scheme == "gshare":
            assert spec.history_length is not None
            mask = (1 << spec.history_length) - 1
            histories, self._global = _global_histories_carried(
                np, taken, spec.history_length, self._global
            )
            index = ((pc >> 2) ^ histories) & mask
            return _fsm_predictions_carried(
                np, index, taken, spec.pt_automaton or A2, self._pt_states
            )
        if scheme == "Perceptron":
            assert spec.history_length is not None and spec.rows is not None
            histories, self._global = _global_histories_carried(
                np, taken, spec.history_length, self._global
            )
            rows_index = (pc >> 2) % spec.rows
            return _perceptron_predictions(
                np, rows_index, histories, taken, self._perceptron
            )
        if scheme == "TAGE":
            assert spec.history_length is not None
            histories, self._global = _global_histories_carried(
                np, taken, spec.history_length, self._global
            )
            return _tage_predictions(np, pc, histories, taken, self._tage)
        raise ConfigError(f"no streaming vector kernel for {spec.canonical()!r}")


# ----------------------------------------------------------------------
# cross-session batch fusion
# ----------------------------------------------------------------------
#: per-session namespace shift: wire records carry 32-bit pcs, so
#: ``(slot << 32) | key`` is collision-free for every per-branch key space
#: (addresses, HHRT slots, AHRT register ids, history patterns).
_NS_SHIFT = 32
_NS_LIMIT = 1 << _NS_SHIFT

#: schemes whose per-branch keys are derived from the pc and therefore
#: require pcs below the namespace limit to fuse (always true on the wire).
_PC_KEYED_SCHEMES = ("Profile", "LS", "AT", "ST")


class FusedPredictions(NamedTuple):
    """Columnar prediction result for one :class:`PackedTrace` batch.

    ``length`` records were submitted; the conditionals among them sit at
    positions ``index`` (ascending) and carry a predicted-direction column
    and the echoed actual-outcome column.  Equivalent to the list form —
    position ``index[j]`` holds ``bool(predicted[j])``, every other
    position ``None`` — without boxing a Python object per record.
    """

    length: int
    index: Any  # intp array: positions of the conditional records
    predicted: Any  # bool array, one entry per conditional
    taken: Any  # int8 array: actual outcomes, aligned with ``predicted``

    def to_list(self) -> "List[Optional[bool]]":
        out: "List[Optional[bool]]" = [None] * self.length
        for position, prediction in zip(self.index, self.predicted):
            out[position] = bool(prediction)
        return out


class MultiSessionScorer:
    """Many concurrent scoring sessions of *one* spec, fed as fused batches.

    The serve tier's cross-session fusion primitive: every open session
    shares this object with all other sessions of the same spec+backend,
    and a single :meth:`feed_many` call scores queued record batches from
    *all* of them at once.  Per-session state is namespaced so sessions
    never read each other's predictor state — the predictions (and the
    per-session :class:`~repro.sim.results.PredictionStats`) are bit-exact
    with running each session through its own
    :class:`StreamingScorer`, under any chunking and any interleaving of
    sessions within and across ``feed_many`` calls.
    """

    backend = "scalar"

    def __init__(self, spec: SpecLike):
        self.spec = _as_spec(spec)

    # -- session lifecycle ---------------------------------------------
    def open_session(
        self,
        key: int,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ) -> None:
        """Start a new logical session under the caller-chosen ``key``."""
        raise NotImplementedError

    def close_session(self, key: int) -> PredictionStats:
        """End session ``key``, free its state, return its final stats."""
        raise NotImplementedError

    def session_stats(self, key: int) -> PredictionStats:
        raise NotImplementedError

    @property
    def active(self) -> int:
        raise NotImplementedError

    def feed_many(self, batches: "Sequence[tuple]") -> "List[Any]":
        """Score ``[(session key, records), ...]`` as one fused batch.

        Batches appear in arrival order; several batches may name the same
        session (pipelined frames) and are scored in list order.  Returns
        one result per input batch, aligned with its records: a prediction
        list for record-list batches, and (on the vector engine) a
        :class:`FusedPredictions` for :class:`PackedTrace` batches — the
        columnar path never boxes per-record Python objects end to end.
        """
        raise NotImplementedError


class ScalarMultiSessionScorer(MultiSessionScorer):
    """Fusion-shaped facade over independent scalar sessions.

    The scalar engine has no batch dispatch to amortise, so "fusion" here
    is simply feeding each batch to its session's
    :class:`ScalarStreamingScorer` — same interface, same per-session
    results, used when NumPy is absent or the backend resolves scalar.
    """

    backend = "scalar"

    def __init__(self, spec: SpecLike):
        super().__init__(spec)
        self._sessions: Dict[int, ScalarStreamingScorer] = {}

    def open_session(
        self,
        key: int,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ) -> None:
        if key in self._sessions:
            raise ConfigError(f"session {key} is already open")
        self._sessions[key] = ScalarStreamingScorer(self.spec, training_records)

    def close_session(self, key: int) -> PredictionStats:
        return self._sessions.pop(key).stats

    def session_stats(self, key: int) -> PredictionStats:
        return self._sessions[key].stats

    @property
    def active(self) -> int:
        return len(self._sessions)

    def feed_many(
        self, batches: "Sequence[tuple]"
    ) -> "List[List[Optional[bool]]]":
        out = []
        for key, records in batches:
            scorer = self._sessions.get(key)
            if scorer is None:
                raise ConfigError(f"session {key} is not open")
            out.append(scorer.feed(records))
        return out


class VectorMultiSessionScorer(MultiSessionScorer):
    """Cross-session fusion on the carried-state NumPy kernels.

    Each open session owns a *slot* — a compact namespace index — and every
    per-branch key the kernels bucket by is prefixed with it:

    * per-address keys (branch pc, HHRT slot, AHRT register id) become
      ``(slot << 32) | key`` — disjoint int64 ranges, so the stable
      segmented sort that makes per-bucket replay exact (see
      :mod:`repro.sim.kernels`) simultaneously isolates sessions and
      preserves each session's own stream order;
    * pattern-table state lives in one dense array of ``2**k`` rows per
      slot, indexed by ``(slot << k) | pattern``;
    * the global history register of GAg/gshare is carried *per slot* by
      reusing the per-branch history machinery with the slot itself as the
      bucket key — a session's global history is just a "branch" whose
      address is the session;
    * an AHRT session keeps its own carried
      :class:`~repro.sim.kernels.AhrtReplay`, advanced over the session's
      records only (extracted from the fused batch in stream order), so
      LRU state never leaks between sessions.

    Slots are recycled: closing a session sweeps its dict entries and a
    reopened slot's dense rows are re-initialised, so long-running servers
    hold state proportional to *open* sessions only.
    """

    backend = "vector"

    def __init__(self, spec: SpecLike):
        super().__init__(spec)
        np = _np()
        spec = self.spec
        scheme = spec.scheme
        self._slots: Dict[int, int] = {}
        self._free: List[int] = []
        self._capacity = 0
        self._stats: Dict[int, PredictionStats] = {}
        self._guard_pc = scheme in _PC_KEYED_SCHEMES
        self._ahrt_template = None
        if scheme in ("AT", "ST", "LS"):
            if spec.hrt_kind == "AHRT":
                assert spec.hrt_entries is not None
                # validate the geometry once; sessions clone fresh replays
                AhrtReplay(spec.hrt_entries, spec.hrt_associativity)
                self._ahrt_template = (spec.hrt_entries, spec.hrt_associativity)
            elif spec.hrt_kind == "HHRT" and (spec.hrt_entries or 0) < 1:
                raise ConfigError("HHRT entries must be >= 1")
        self._ahrt: Dict[int, AhrtReplay] = {}
        if scheme in ("AT", "ST"):
            assert spec.history_length is not None
            self._histories: Dict[int, int] = {}
        if scheme == "AT":
            assert spec.pt_automaton is not None
            self._pt_bits = spec.history_length
            self._pt_init = spec.pt_automaton.init_state
            self._pt_states = np.zeros(0, dtype=np.intp)
        elif scheme == "ST":
            self._preset = np.zeros((0, 1 << spec.history_length), dtype=bool)
        elif scheme == "LS":
            assert spec.hrt_automaton is not None
            self._site_states: Dict[int, int] = {}
        elif scheme == "Profile":
            self._profiles: Dict[int, "tuple"] = {}
            self._profile_keys = None
            self._profile_bias = None
        elif scheme in ("GAg", "gshare"):
            assert spec.history_length is not None
            self._ghist: Dict[int, int] = {}
            self._ghist_init = (
                (1 << spec.history_length) - 1 if scheme == "GAg" else 0
            )
            self._pt_bits = spec.history_length
            self._pt_init = (spec.pt_automaton or A2).init_state
            self._pt_states = np.zeros(0, dtype=np.intp)
        elif scheme in ("Perceptron", "TAGE"):
            assert spec.history_length is not None
            # per-slot mutable state (PerceptronState / TageState) plus each
            # session's carried global history register
            self._modern: Dict[int, Any] = {}
            self._modern_ghist: Dict[int, int] = {}
        elif scheme not in ("AlwaysTaken", "AlwaysNotTaken", "BTFN", "AT", "ST", "LS"):
            raise ConfigError(f"no streaming vector kernel for {spec.canonical()!r}")

    # -- session lifecycle ---------------------------------------------
    def open_session(
        self,
        key: int,
        training_records: Optional[Iterable[BranchRecord]] = None,
    ) -> None:
        np = _np()
        if key in self._slots:
            raise ConfigError(f"session {key} is already open")
        spec = self.spec
        if needs_training(spec) and training_records is None:
            raise ConfigError(
                f"{spec.canonical()}: session needs training records before scoring"
            )
        scheme = spec.scheme
        # derive training-dependent state *before* allocating the slot so a
        # bad open (unusable training records) leaks nothing
        preset_row = profile = None
        if scheme == "ST":
            assert training_records is not None
            t_pc, t_taken = VectorStreamingScorer._training_columns(
                np, training_records
            )
            preset_row = _preset_bits(np, (t_pc, t_taken), spec.history_length)
        elif scheme == "Profile":
            assert training_records is not None
            t_pc, t_taken = VectorStreamingScorer._training_columns(
                np, training_records
            )
            if len(t_pc) and (
                int(t_pc.min()) < 0 or int(t_pc.max()) >= _NS_LIMIT
            ):
                raise ConfigError("fused sessions require pcs below 2^32")
            profile = _profile_bias(np, (t_pc, t_taken))
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._capacity
            if slot >= _NS_LIMIT:
                raise ConfigError("too many concurrent sessions to namespace")
            self._capacity += 1
            self._grow(np)
        if scheme in ("AT", "GAg", "gshare"):
            bits = self._pt_bits
            self._pt_states[slot << bits:(slot + 1) << bits] = self._pt_init
        if scheme == "Perceptron":
            self._modern[slot] = PerceptronState(spec.history_length, spec.rows)
            self._modern_ghist[slot] = 0
        elif scheme == "TAGE":
            self._modern[slot] = TageState(
                spec.tage_tables, spec.tage_entry_bits or DEFAULT_ENTRY_BITS
            )
            self._modern_ghist[slot] = 0
        if self._ahrt_template is not None:
            self._ahrt[slot] = AhrtReplay(*self._ahrt_template)
        if preset_row is not None:
            self._preset[slot] = preset_row
        if profile is not None:
            self._profiles[slot] = profile
            self._profile_keys = None  # combined table is stale
        self._slots[key] = slot
        self._stats[key] = PredictionStats()

    def close_session(self, key: int) -> PredictionStats:
        if key not in self._slots:
            raise ConfigError(f"session {key} is not open")
        slot = self._slots.pop(key)
        scheme = self.spec.scheme
        if scheme in ("AT", "ST"):
            self._sweep(self._histories, slot)
        if scheme == "LS":
            self._sweep(self._site_states, slot)
        if scheme in ("GAg", "gshare"):
            self._ghist.pop(slot, None)
        if scheme in ("Perceptron", "TAGE"):
            self._modern.pop(slot, None)
            self._modern_ghist.pop(slot, None)
        if scheme == "Profile":
            self._profiles.pop(slot, None)
            self._profile_keys = None
        self._ahrt.pop(slot, None)
        self._free.append(slot)
        return self._stats.pop(key)

    def session_stats(self, key: int) -> PredictionStats:
        return self._stats[key]

    @property
    def active(self) -> int:
        return len(self._slots)

    def _grow(self, np: Any) -> None:
        """Extend the dense per-slot tables for one more slot."""
        scheme = self.spec.scheme
        if scheme in ("AT", "GAg", "gshare"):
            block = np.full(1 << self._pt_bits, self._pt_init, dtype=np.intp)
            self._pt_states = np.concatenate([self._pt_states, block])
        elif scheme == "ST":
            row = np.zeros((1, self._preset.shape[1]), dtype=bool)
            self._preset = np.concatenate([self._preset, row])

    @staticmethod
    def _sweep(table: Dict[int, int], slot: int) -> None:
        """Drop a closed slot's namespaced keys from a carried-state dict."""
        prefix = slot << _NS_SHIFT
        stale = [key for key in table if key & ~(_NS_LIMIT - 1) == prefix]
        for key in stale:
            del table[key]

    # -- fused scoring --------------------------------------------------
    def feed_many(self, batches: "Sequence[tuple]") -> "List[Any]":
        np = _np()
        CONDITIONAL = BranchClass.CONDITIONAL
        # Normalise every batch to conditional-only columns.  PackedTrace
        # batches (the serve tier's wire fast path) stay columnar end to
        # end; record lists go through the boxed extraction loop.
        cols = []  # (length, index, pc, target, taken, packed)
        slot_of = []
        for key, records in batches:
            slot = self._slots.get(key)
            if slot is None:
                raise ConfigError(f"session {key} is not open")
            slot_of.append(slot)
            if isinstance(records, PackedTrace):
                flags = np.frombuffer(records.flags, dtype=np.uint8)
                index = np.nonzero((flags & _CLS_MASK) == 0)[0]
                pc = np.asarray(records.pc)[index].astype(np.int64)
                target = np.asarray(records.target)[index].astype(np.int64)
                taken = (flags[index] & 1).astype(np.int8)
                cols.append((len(records), index, pc, target, taken, True))
            else:
                idx, pcs, targets, takens = [], [], [], []
                for i, record in enumerate(records):
                    if record.cls is CONDITIONAL:
                        idx.append(i)
                        pcs.append(record.pc)
                        targets.append(record.target)
                        takens.append(1 if record.taken else 0)
                cols.append(
                    (
                        len(records),
                        np.asarray(idx, dtype=np.intp),
                        np.asarray(pcs, dtype=np.int64),
                        np.asarray(targets, dtype=np.int64),
                        np.asarray(takens, dtype=np.int8),
                        False,
                    )
                )
        counts = [len(entry[1]) for entry in cols]
        total = sum(counts)
        if total:
            pc = np.concatenate([entry[2] for entry in cols])
            target = np.concatenate([entry[3] for entry in cols])
            taken = np.concatenate([entry[4] for entry in cols])
            slots = np.repeat(np.asarray(slot_of, dtype=np.int64), counts)
            if self._guard_pc and (
                int(pc.min()) < 0 or int(pc.max()) >= _NS_LIMIT
            ):
                raise ConfigError("fused sessions require pcs below 2^32")
            predictions = self._predict_fused(np, slots, pc, target, taken)
            correct = predictions == taken.astype(bool)
        else:
            predictions = np.zeros(0, dtype=bool)
            correct = predictions
        outs: "List[Any]" = []
        start = 0
        for b, (key, _records) in enumerate(batches):
            length, index, _pc, _target, batch_taken, packed = cols[b]
            stop = start + counts[b]
            stats = self._stats[key]
            stats.conditional_total += counts[b]
            stats.conditional_correct += int(correct[start:stop].sum())
            if packed:
                outs.append(
                    FusedPredictions(
                        length, index, predictions[start:stop], batch_taken
                    )
                )
            else:
                out: "List[Optional[bool]]" = [None] * length
                for j in range(start, stop):
                    out[index[j - start]] = bool(predictions[j])
                outs.append(out)
            start = stop
        return outs

    def _hrt_fused_keys(self, np: Any, slots: Any, pc: Any) -> Any:
        """Namespaced bucket keys for the fused batch's HRT front-end."""
        spec = self.spec
        if self._ahrt_template is not None:
            keys = np.empty(len(pc), dtype=np.int64)
            for slot in np.unique(slots):
                mask = slots == slot
                keys[mask] = self._ahrt[int(slot)].assign(np, pc[mask])
        elif spec.hrt_kind == "HHRT":
            assert spec.hrt_entries is not None
            keys = _hash_buckets(np, pc, spec.hrt_entries)
        else:
            keys = pc
        return (slots << _NS_SHIFT) | keys

    def _predict_fused(
        self, np: Any, slots: Any, pc: Any, target: Any, taken: Any
    ) -> Any:
        spec = self.spec
        scheme = spec.scheme
        if scheme == "AlwaysTaken":
            return np.ones(len(pc), dtype=bool)
        if scheme == "AlwaysNotTaken":
            return np.zeros(len(pc), dtype=bool)
        if scheme == "BTFN":
            return target < pc
        if scheme == "Profile":
            if self._profile_keys is None:
                self._rebuild_profile(np)
            combined_keys, bias = self._profile_keys, self._profile_bias
            if len(combined_keys) == 0:
                return np.ones(len(pc), dtype=bool)
            queries = (slots << _NS_SHIFT) | pc
            found = np.searchsorted(combined_keys, queries)
            clamped = np.minimum(found, len(combined_keys) - 1)
            known = (found < len(combined_keys)) & (
                combined_keys[clamped] == queries
            )
            return np.where(known, bias[clamped], True)
        if scheme == "LS":
            keys = self._hrt_fused_keys(np, slots, pc)
            return _fsm_predictions_carried(
                np, keys, taken, spec.hrt_automaton, self._site_states
            )
        if scheme in ("AT", "ST"):
            assert spec.history_length is not None
            mask = (1 << spec.history_length) - 1
            keys = self._hrt_fused_keys(np, slots, pc)
            patterns = _branch_histories_carried(
                np, keys, taken, spec.history_length, self._histories, mask
            )
            if scheme == "ST":
                return self._preset[slots, patterns]
            return _fsm_predictions_carried(
                np,
                (slots << self._pt_bits) | patterns,
                taken,
                spec.pt_automaton,
                self._pt_states,
            )
        if scheme in ("GAg", "gshare"):
            assert spec.history_length is not None
            mask = (1 << spec.history_length) - 1
            # per-session global history: the slot is the bucket key, so the
            # per-branch carried-history kernel gives each session its own
            # register with zero cross-talk
            histories = _branch_histories_carried(
                np, slots, taken, spec.history_length, self._ghist,
                self._ghist_init,
            )
            if scheme == "gshare":
                index = ((pc >> 2) ^ histories) & mask
            else:
                index = histories
            return _fsm_predictions_carried(
                np,
                (slots << self._pt_bits) | index,
                taken,
                spec.pt_automaton or A2,
                self._pt_states,
            )
        if scheme in ("Perceptron", "TAGE"):
            assert spec.history_length is not None
            # per-slot sub-batches, like the AHRT fused replay: boolean-mask
            # gathers preserve stream order inside every session, and the
            # carried history register round-trips through the slot dict
            out = np.empty(len(pc), dtype=bool)
            for slot in np.unique(slots):
                mask = slots == slot
                slot_index = int(slot)
                histories, carried = _global_histories_carried(
                    np, taken[mask], spec.history_length,
                    self._modern_ghist[slot_index],
                )
                self._modern_ghist[slot_index] = carried
                if scheme == "Perceptron":
                    assert spec.rows is not None
                    rows_index = (pc[mask] >> 2) % spec.rows
                    out[mask] = _perceptron_predictions(
                        np, rows_index, histories, taken[mask],
                        self._modern[slot_index],
                    )
                else:
                    out[mask] = _tage_predictions(
                        np, pc[mask], histories, taken[mask],
                        self._modern[slot_index],
                    )
            return out
        raise ConfigError(f"no streaming vector kernel for {spec.canonical()!r}")

    def _rebuild_profile(self, np: Any) -> None:
        """Merge the per-slot profile tables into one sorted combined table."""
        keys, bias = [], []
        for slot, (unique_pc, slot_bias) in self._profiles.items():
            keys.append((slot << _NS_SHIFT) | unique_pc)
            bias.append(slot_bias)
        if keys:
            combined = np.concatenate(keys)
            combined_bias = np.concatenate(bias)
            order = np.argsort(combined)
            self._profile_keys = combined[order]
            self._profile_bias = combined_bias[order]
        else:
            self._profile_keys = np.zeros(0, dtype=np.int64)
            self._profile_bias = np.zeros(0, dtype=bool)


def make_multi_scorer(
    spec: SpecLike, backend: Optional[str] = None
) -> MultiSessionScorer:
    """Build the fused multi-session scorer for ``spec`` on ``backend``.

    Backend resolution matches :func:`make_scorer` exactly, so a fusion
    group and the equivalent independent sessions always score on the same
    engine — and therefore produce identical predictions.
    """
    parsed = _as_spec(spec)
    if choose_backend(parsed, backend) == "vector":
        return VectorMultiSessionScorer(parsed)
    return ScalarMultiSessionScorer(parsed)


def make_scorer(
    spec: SpecLike,
    backend: Optional[str] = None,
    training_records: Optional[Iterable[BranchRecord]] = None,
) -> StreamingScorer:
    """Build the streaming scorer for ``spec`` on the chosen backend.

    ``backend`` accepts the usual ``auto`` / ``scalar`` / ``vector`` (or
    ``None`` for the process default); the resolution rules are those of
    the offline dispatch (:func:`repro.sim.kernels.choose_backend`).  Every
    registry spec family — finite HRTs included — now has a vector session,
    and the predictions are identical whichever backend runs.
    """
    parsed = _as_spec(spec)
    if training_records is not None and not isinstance(training_records, (list, tuple)):
        training_records = list(training_records)
    if choose_backend(parsed, backend) == "vector":
        return VectorStreamingScorer(parsed, training_records)
    return ScalarStreamingScorer(parsed, training_records)
