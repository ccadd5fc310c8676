"""Vectorized predictor kernels over packed traces (the ``vector`` backend).

The scalar engine dispatches one Python ``observe()`` call per conditional
record — the wall-clock floor of every full-figure sweep.  This module
scores whole predictor families with columnar batch operations instead:

* **Stateless schemes** (Always Taken / Not Taken, BTFN, per-branch
  profiling) reduce to pure column comparisons.
* **Small-FSM schemes** decompose into *independent buckets* whose state
  evolutions never interact in the scalar engine either:

  - Lee & Smith per-address automata (``LS(IHRT(,Atm),,)``) — one bucket
    per branch address;
  - the two-level AT pattern table under an ideal HRT
    (``AT(IHRT(,kSR),PT(2^k,Atm),)``) — one bucket per k-bit history
    pattern, with each record's pattern derived by a vectorized per-branch
    sliding window over the outcome column;
  - Static Training under an ideal HRT (profiled preset bits, so the test
    pass is a pure table lookup after the same history derivation);
  - the global-history extensions GAg and gshare (single global window).

* **Modern schemes** (:mod:`repro.predictors.modern`) are tight walks
  over the state rule the scalar predictors run, so they are bit-exact by
  construction; NumPy does only the per-record arithmetic around it:

  - the perceptron's row and global-history columns are precomputed, and
    each distinct history value's bipolar input tuple is built once; the
    walk then hands every record to
    :meth:`~repro.predictors.modern.PerceptronState.step` (one dot
    product, and a weight update on ~20% of records at ``h=12``).  Rows
    are allocated on first touch, so a huge ``rows`` costs nothing.
  - TAGE's tables couple through provider selection and allocation, so
    its per-record state walk is inherently sequential; the kernel lifts
    all the *hash* work — per-table folded indices and tags over the
    global-history column — into whole-column NumPy passes, then walks
    :meth:`~repro.predictors.modern.TageState.step`.

  Each bucket's outcome sequence is replayed through the automaton's
  precomputed (at most 4-state) transition table with a segmented
  function-composition doubling scan: ``O(n * states * log n)`` NumPy work
  in place of ``n`` interpreter dispatches.

* **Finite HRT front-ends** (AHRT / HHRT) reduce to the same bucket
  machinery through a *key remap*:

  - the hashed HHRT's collisions are just a different pc→bucket map —
    every branch hashing to a slot shares one register, so replaying the
    slot's merged outcome sequence reproduces the interference exactly;
  - the set-associative AHRT's payloads live in *physical registers*
    (eviction inherits the victim's bits — section 4.2), so each record is
    keyed by the register that services it.  The register assignment is a
    pure function of the pc touch sequence (LRU order never reads payloads
    or outcomes) and decomposes per way-set; sets whose touch alphabet
    fits in the ways — the common case — assign fully columnarly, and only
    *conflicted* sets walk their recency stack (see :class:`AhrtReplay`).

Every kernel is **bit-exact** against the scalar engine: the per-record
predictions are identical, so :class:`~repro.sim.results.PredictionStats`
and per-site accuracies match exactly.  Every spec family the registry can
parse now has a kernel — :func:`vectorizable` returns ``True`` across the
board and the scalar engine remains only as the independent reference.

NumPy is an optional dependency (see :mod:`repro.sim.backend`); everything
here raises :class:`~repro.errors.KernelError` when it is missing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigError, KernelError
from repro.predictors.automata import A2, Automaton
from repro.predictors.hrt import _HASH_MULTIPLIER
from repro.predictors.modern import (
    BASE_EXTRA_BITS,
    DEFAULT_ENTRY_BITS,
    TAG_BITS,
    PerceptronState,
    TageState,
)
from repro.predictors.spec import PredictorSpec
from repro.sim.backend import numpy_or_none
from repro.sim.results import PredictionStats
from repro.trace.columnar import PackedTrace

_CLS_MASK = 0x0E

#: spec schemes whose kernels need a training trace (profiling pass).
_NEEDS_TRAINING = ("ST", "Profile")


def _np() -> Any:
    numpy = numpy_or_none()
    if numpy is None:
        raise KernelError("vectorized kernels require NumPy, which is not installed")
    return numpy


def vectorizable(spec: PredictorSpec) -> bool:
    """Whether the vector backend can score ``spec`` bit-exactly.

    ``True`` for every spec family the registry can parse.  The finite HRTs
    (AHRT/HHRT), once excluded because their cross-branch state sharing is
    order-dependent, are handled by remapping each record to its *register*
    key before the bucket replay — see :func:`_hrt_keys` — so the function
    now only rejects genuinely unknown schemes.
    """
    if spec.scheme in ("AlwaysTaken", "AlwaysNotTaken", "BTFN", "Profile"):
        return True
    if spec.scheme in ("GAg", "gshare"):
        return spec.history_length is not None
    if spec.scheme in ("AT", "ST", "LS"):
        return spec.hrt_kind in ("IHRT", "AHRT", "HHRT")
    if spec.scheme == "Perceptron":
        return spec.history_length is not None
    if spec.scheme == "TAGE":
        return spec.tage_tables is not None
    return False


# ----------------------------------------------------------------------
# column extraction
# ----------------------------------------------------------------------
def _uint_view(np: Any, column: Any) -> Any:
    """Zero-copy NumPy view of an ``array('I')``/``array('L')`` column."""
    return np.frombuffer(column, dtype=np.dtype(f"=u{column.itemsize}"))


def _conditional_columns(packed: PackedTrace) -> Tuple[Any, Any, Any]:
    """The conditional-only ``(pc, target, taken)`` columns as int64/int64/
    int8 arrays, straight from the packed byte columns (the lazily-derived
    tuple columns are never materialised on this path)."""
    np = _np()
    flags = np.frombuffer(packed.flags, dtype=np.uint8)
    conditional = (flags & _CLS_MASK) == 0
    pc = _uint_view(np, packed.pc)[conditional].astype(np.int64)
    target = _uint_view(np, packed.target)[conditional].astype(np.int64)
    taken = (flags[conditional] & 1).astype(np.int8)
    return pc, target, taken


# ----------------------------------------------------------------------
# bucket machinery
# ----------------------------------------------------------------------
def _segment_positions(np: Any, keys: Any) -> Tuple[Any, Any]:
    """Stable sort by bucket key; returns ``(order, position-within-bucket)``.

    The stable sort preserves trace order inside every bucket, which is what
    makes per-bucket replay equivalent to the scalar engine's interleaved
    updates: entries of different buckets never read each other's state.
    """
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    if n == 0:
        return order, np.zeros(0, dtype=np.int64)
    sorted_keys = keys[order]
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=seg_start[1:])
    indices = np.arange(n, dtype=np.int64)
    start_index = np.where(seg_start, indices, 0)
    np.maximum.accumulate(start_index, out=start_index)
    return order, indices - start_index


def _history_per_branch(
    np: Any, pc: Any, taken: Any, history_length: int, init_bit: int
) -> Any:
    """Per-record k-bit history register value *before* each record.

    Equivalent to replaying ``new = ((old << 1) | taken) & mask`` per bucket
    key (branch address, AHRT register, or HHRT slot — whatever ``pc``
    holds) with registers initialised to all ``init_bit`` bits: bit ``j-1``
    of a record's history is that branch's outcome ``j`` occurrences earlier
    (or ``init_bit`` before its first occurrence).  Computed as a sliding
    window over the outcome column in branch-sorted order — ``k`` vector
    passes, no per-record dispatch.
    """
    n = len(pc)
    order, pos = _segment_positions(np, pc)
    taken_sorted = taken[order].astype(np.int64)
    history = np.zeros(n, dtype=np.int64)
    max_pos = int(pos.max()) if n else 0
    for j in range(1, history_length + 1):
        if j > max_pos:
            # every remaining (older) bit is the init bit for all records
            if init_bit:
                remaining = history_length - j + 1
                history |= ((1 << remaining) - 1) << (j - 1)
            break
        previous = np.empty(n, dtype=np.int64)
        previous[:j] = init_bit
        previous[j:] = taken_sorted[:-j]
        bit = np.where(pos >= j, previous, init_bit)
        history |= bit << (j - 1)
    out = np.empty(n, dtype=np.int64)
    out[order] = history
    return out


def _history_global(np: Any, taken: Any, history_length: int, init_bit: int) -> Any:
    """Single global history register — the per-branch window degenerated to
    one bucket, so no sort is needed at all."""
    n = len(taken)
    taken64 = taken.astype(np.int64)
    history = np.zeros(n, dtype=np.int64)
    for j in range(1, history_length + 1):
        boundary = min(j, n)
        if init_bit:
            history[:boundary] |= 1 << (j - 1)
        if j < n:
            history[j:] |= taken64[:-j] << (j - 1)
    return history


# ----------------------------------------------------------------------
# finite-HRT key remaps (AHRT / HHRT)
# ----------------------------------------------------------------------
def _hash_buckets(np: Any, pc: Any, buckets: int) -> Any:
    """Columnar twin of :func:`repro.predictors.hrt._index_hash`.

    Safe in int64 arithmetic: the shifted pc is below ``2**30``, so the
    pre-mask product stays below ``2**62``.
    """
    return (((pc >> 2) * _HASH_MULTIPLIER) & 0xFFFFFFFF) % buckets


class AhrtReplay:
    """Incremental AHRT register assignment (the streaming scorers' carry).

    Maps each access to the *physical register* that services it.  The
    AHRT's one coupling between branches — LRU eviction, whose victim's
    payload is inherited rather than re-initialised (section 4.2) — never
    reads payloads or outcomes, so the register sequence is a pure function
    of the pc touch sequence and can be computed up front; after the remap,
    payload evolution is ordinary independent-bucket replay keyed by
    register.  This class walks every touched set's recency stack one touch
    at a time (consecutive repeats short-circuited), allocating register
    ids globally on first use so they are stable across ``assign`` calls:
    feeding a trace through one instance chunk by chunk yields exactly the
    ids a single whole-trace call would (chunking invariance).
    """

    def __init__(self, entries: int, associativity: int):
        if entries < 1 or associativity < 1:
            raise ConfigError("AHRT entries and associativity must be >= 1")
        if entries % associativity:
            raise ConfigError(
                f"AHRT entries ({entries}) must be a multiple of"
                f" associativity ({associativity})"
            )
        self.associativity = associativity
        self.num_sets = entries // associativity
        #: per touched set: ({tag: register}, [tags in LRU..MRU order])
        self._sets: Dict[int, Tuple[Dict[int, int], list]] = {}
        self._next_register = 0
        self.evictions = 0

    def assign(self, np: Any, pc: Any) -> Any:
        """Register id serving each access in ``pc``, advancing the LRU state."""
        sets = _hash_buckets(np, pc, self.num_sets)
        out = [0] * len(pc)
        assoc = self.associativity
        tables = self._sets
        last_set = last_tag = last_register = -1
        for i, (set_index, tag) in enumerate(zip(sets.tolist(), pc.tolist())):
            if set_index == last_set and tag == last_tag:
                out[i] = last_register
                continue
            ways = tables.get(set_index)
            if ways is None:
                ways = ({}, [])
                tables[set_index] = ways
            tagmap, recency = ways
            register = tagmap.get(tag)
            if register is None:
                if len(tagmap) < assoc:  # untagged physical registers remain
                    register = self._next_register
                    self._next_register += 1
                else:  # evict LRU; its register (and payload) is inherited
                    victim = recency.pop(0)
                    register = tagmap.pop(victim)
                    self.evictions += 1
                tagmap[tag] = register
                recency.append(tag)
            elif recency[-1] != tag:
                recency.remove(tag)
                recency.append(tag)
            out[i] = register
            last_set, last_tag, last_register = set_index, tag, register
        return np.asarray(out, dtype=np.int64)


def _ahrt_registers(np: Any, pc: Any, entries: int, associativity: int) -> Any:
    """One-shot AHRT register assignment for a whole pc column.

    LRU decomposes per way-set, and a set whose whole touch alphabet fits
    in its ways can never evict — every (set, tag) pair keeps the register
    it first allocated, so its assignment is just the dense pair id from
    ``np.unique``.  With the paper's geometries (e.g. 128 sets for
    AHRT(512)) that covers nearly every set; only *conflicted* sets (more
    distinct tags than ways) walk their touch sequence through
    :class:`AhrtReplay`, renumbered into per-set id ranges disjoint from
    the pair ids.
    """
    replay = AhrtReplay(entries, associativity)  # validates the geometry
    num_sets = replay.num_sets
    if num_sets > 0x7FFFFFFF:  # pair packing needs the set id in 31 bits
        return replay.assign(np, pc)
    sets = _hash_buckets(np, pc, num_sets)
    pairs = (sets << np.int64(32)) | pc
    unique_pairs, pair_ids = np.unique(pairs, return_inverse=True)
    distinct_per_set = np.bincount(unique_pairs >> 32, minlength=num_sets)
    conflicted = distinct_per_set > associativity
    registers = pair_ids.astype(np.int64)
    if not conflicted.any():
        return registers
    touched = np.nonzero(conflicted[sets])[0]
    order = touched[np.argsort(sets[touched], kind="stable")]
    boundaries = np.nonzero(np.diff(sets[order]))[0] + 1
    base = len(unique_pairs)
    for chunk in np.split(order, boundaries):
        # a conflicted set allocates all `associativity` of its registers
        set_replay = AhrtReplay(entries, associativity)
        registers[chunk] = set_replay.assign(np, pc[chunk]) + base
        base += associativity
    return registers


def _hrt_keys(np: Any, spec: PredictorSpec, pc: Any) -> Any:
    """The bucket-key column for the spec's HRT front-end.

    The branch address under IHRT; the hashed slot under HHRT (colliding
    branches merge into one bucket, reproducing the paper's history
    interference exactly); the servicing physical register under AHRT
    (payload inheritance rides along for free — an evicted register's
    bucket replay simply continues from wherever the previous branch left
    its bits).
    """
    if spec.hrt_kind == "AHRT":
        assert spec.hrt_entries is not None
        return _ahrt_registers(np, pc, spec.hrt_entries, spec.hrt_associativity)
    if spec.hrt_kind == "HHRT":
        assert spec.hrt_entries is not None
        if spec.hrt_entries < 1:
            raise ConfigError("HHRT entries must be >= 1")
        return _hash_buckets(np, pc, spec.hrt_entries)
    return pc


_COMPOSE_TABLE: Any = None
_DECODE_TABLE: Any = None


def _composition_tables(np: Any) -> Tuple[Any, Any]:
    """The (compose, decode) lookup tables for byte-coded state mappings.

    Any function ``{0..3} -> {0..3}`` packs into one byte (two bits per
    input state), so composing two mappings is a single gather in a
    precomputed 256x256 table — automaton-independent, built once.
    ``decode[code, s]`` evaluates the coded mapping at state ``s``;
    ``compose[a, b]`` codes ``a after b`` (``b`` applied first).
    """
    global _COMPOSE_TABLE, _DECODE_TABLE
    if _COMPOSE_TABLE is None:
        codes = np.arange(256, dtype=np.intp)
        decode = (codes[:, None] >> (2 * np.arange(4))) & 3  # (256, 4)
        chained = decode[codes[:, None, None], decode[None, :, :]]  # (256, 256, 4)
        _COMPOSE_TABLE = (
            (chained << (2 * np.arange(4))).sum(axis=-1).astype(np.uint8)
        )
        _DECODE_TABLE = decode
    return _COMPOSE_TABLE, _DECODE_TABLE


def _fsm_predictions(np: Any, buckets: Any, taken: Any, automaton: Automaton) -> Any:
    """Per-record predictions from replaying each bucket's outcome sequence
    through ``automaton`` (entries initialised to its init state).

    Uses a segmented Hillis–Steele scan over *function composition*: each
    record's outcome is a state→state mapping, packed into one byte (the
    automata have at most four states); after ``ceil(log2(longest bucket))``
    doubling rounds, record ``i`` holds the composed mapping of its whole
    bucket prefix, and the state seen by record ``i`` is its predecessor's
    composition evaluated at the init state.  Each round is one uint8 gather
    through the precomputed composition table — whole-column NumPy work, no
    per-record dispatch.
    """
    n = len(buckets)
    predictions_lut = np.array(automaton.predictions, dtype=bool)
    if n == 0:
        return np.zeros(0, dtype=bool)
    compose, decode = _composition_tables(np)
    order, pos = _segment_positions(np, buckets)
    taken_sorted = taken[order].astype(np.intp)
    # per-record mapping code: state s -> transitions[s][taken]
    transitions = np.asarray(automaton.transitions, dtype=np.int64)  # (S, 2)
    step_codes = np.zeros(2, dtype=np.intp)
    for state in range(automaton.num_states):
        step_codes |= transitions[state].astype(np.intp) << (2 * state)
    codes = step_codes[taken_sorted].astype(np.uint8)
    # the rounds' active sets are nested (pos >= distance), so one ascending
    # sort by position serves every round as a suffix view
    by_pos = np.argsort(pos, kind="stable")
    pos_sorted = pos[by_pos]
    distance = 1
    while True:
        active = by_pos[np.searchsorted(pos_sorted, distance):]
        if active.size == 0:
            break
        # window ending at i = (records through i) after (records through i-d)
        codes[active] = compose[codes[active], codes[active - distance]]
        distance <<= 1
    state_before = np.full(n, automaton.init_state, dtype=np.intp)
    inner = np.nonzero(pos > 0)[0]
    state_before[inner] = decode[codes[inner - 1], automaton.init_state]
    out = np.empty(n, dtype=bool)
    out[order] = predictions_lut[state_before]
    return out


# ----------------------------------------------------------------------
# scheme kernels
# ----------------------------------------------------------------------
def _profile_bias(np: Any, training: Tuple[Any, Any]) -> Tuple[Any, Any]:
    """Sorted unique training pcs and their majority direction (ties taken)."""
    train_pc, train_taken = training
    unique_pc, inverse = np.unique(train_pc, return_inverse=True)
    net = np.bincount(
        inverse, weights=(2 * train_taken.astype(np.int64) - 1), minlength=len(unique_pc)
    )
    return unique_pc, net >= 0


def _preset_bits(
    np: Any, training: Tuple[Any, Any], history_length: int
) -> Any:
    """Static Training's profiled pattern table: majority outcome per
    history pattern over the training trace (ties and unseen predict taken),
    exactly :func:`repro.predictors.static_training.profile_pattern_table`."""
    train_pc, train_taken = training
    histories = _history_per_branch(np, train_pc, train_taken, history_length, 1)
    net = np.bincount(
        histories,
        weights=(2 * train_taken.astype(np.int64) - 1),
        minlength=1 << history_length,
    )
    return net >= 0


# ----------------------------------------------------------------------
# modern-subsystem kernels (perceptron / TAGE)
# ----------------------------------------------------------------------
#: records per perceptron walk chunk: bounds the per-chunk input tuples
#: (one per distinct history value) at any history length.
_PERCEPTRON_CHUNK = 1 << 16


def _perceptron_predictions(
    np: Any, rows_index: Any, histories: Any, taken: Any, state: PerceptronState
) -> Any:
    """Perceptron predictions from a walk of :meth:`PerceptronState.step`.

    The row and global-history columns are precomputed; each distinct
    history value's bipolar input tuple is built once per chunk with one
    NumPy pass, and the walk hands every record's tuple to the *same*
    training rule the scalar predictor runs, mutating ``state`` in place
    so streaming sessions can carry it across batches.
    """
    out = bytearray()
    shifts = np.arange(state.history_length, dtype=np.int64)
    for start in range(0, len(taken), _PERCEPTRON_CHUNK):
        stop = start + _PERCEPTRON_CHUNK
        unique, inverse = np.unique(histories[start:stop], return_inverse=True)
        bipolar = ((unique[:, None] >> shifts) & 1) * 2 - 1
        inputs = [(1, *x) for x in bipolar.tolist()]
        out += bytearray(
            map(
                state.step,
                rows_index[start:stop].tolist(),
                map(inputs.__getitem__, inverse.tolist()),
                taken[start:stop].tolist(),
            )
        )
    return np.frombuffer(out, dtype=bool)


def _tage_fold_columns(np: Any, histories: Any, length: int, bits: int) -> Any:
    """Columnar twin of :func:`repro.predictors.modern.fold_history`."""
    folded = np.zeros(len(histories), dtype=histories.dtype)
    value = histories & ((1 << length) - 1)
    mask = (1 << bits) - 1
    for _ in range((length + bits - 1) // bits):
        folded ^= value & mask
        value = value >> bits
    return folded


def _tage_predictions(
    np: Any, pc: Any, histories: Any, taken: Any, state: TageState
) -> Any:
    """TAGE predictions with columnar hashing and a sequential state walk.

    All per-table folded indices and tags — the per-record arithmetic that
    dominates the scalar predictor — are precomputed as whole columns;
    the remaining walk drives :meth:`TageState.step` (the *same* update
    rule the scalar predictor runs), mutating ``state`` in place so
    streaming sessions can carry it across batches.
    """
    entry_bits = state.entry_bits
    index_mask = (1 << entry_bits) - 1
    tag_mask = (1 << TAG_BITS) - 1
    # every hash keeps only low bits of its inputs (geometries reach 32
    # history bits), so uint32 columns are exact and fold ~2.5x faster
    histories = histories.astype(np.uint32)
    pc_word = (pc >> 2).astype(np.uint32)
    base_index = (pc_word & ((1 << (entry_bits + BASE_EXTRA_BITS)) - 1)).tolist()
    index_columns = []
    tag_columns = []
    for length in state.lengths:
        index_columns.append(
            (
                (pc_word ^ _tage_fold_columns(np, histories, length, entry_bits))
                & index_mask
            ).tolist()
        )
        tag_columns.append(
            (
                (
                    pc_word
                    ^ _tage_fold_columns(np, histories, length, TAG_BITS)
                    ^ (_tage_fold_columns(np, histories, length, TAG_BITS - 1) << 1)
                )
                & tag_mask
            ).tolist()
        )
    out = bytearray(
        map(
            state.step,
            base_index,
            zip(*index_columns),
            zip(*tag_columns),
            taken.tolist(),
        )
    )
    return np.frombuffer(out, dtype=bool)


def correct_mask(
    spec: PredictorSpec,
    packed: PackedTrace,
    training: Optional[PackedTrace] = None,
) -> Any:
    """Boolean per-conditional-record correctness vector, in trace order.

    This is the kernels' primitive: summing it gives the
    :class:`PredictionStats` counters, bucketing it by pc gives per-site
    accuracy.  Raises :class:`~repro.errors.KernelError` for specs
    :func:`vectorizable` rejects or when a required training trace is
    missing.
    """
    np = _np()
    if not vectorizable(spec):
        raise KernelError(f"no vector kernel for spec {spec.canonical()!r}")
    pc, target, taken = _conditional_columns(packed)
    taken_bool = taken.astype(bool)

    training_columns: Optional[Tuple[Any, Any]] = None
    if spec.scheme in _NEEDS_TRAINING:
        if training is None:
            raise KernelError(
                f"{spec.canonical()}: kernel needs a training trace (profiling pass)"
            )
        t_pc, _t_target, t_taken = _conditional_columns(training)
        training_columns = (t_pc, t_taken)

    if spec.scheme == "AlwaysTaken":
        return taken_bool.copy()
    if spec.scheme == "AlwaysNotTaken":
        return ~taken_bool
    if spec.scheme == "BTFN":
        return (target < pc) == taken_bool
    if spec.scheme == "Profile":
        assert training_columns is not None
        unique_pc, bias = _profile_bias(np, training_columns)
        if len(unique_pc) == 0:
            prediction = np.ones(len(pc), dtype=bool)  # default_taken
        else:
            slot = np.searchsorted(unique_pc, pc)
            clamped = np.minimum(slot, len(unique_pc) - 1)
            known = (slot < len(unique_pc)) & (unique_pc[clamped] == pc)
            prediction = np.where(known, bias[clamped], True)
        return prediction == taken_bool
    if spec.scheme == "LS":
        assert spec.hrt_automaton is not None
        keys = _hrt_keys(np, spec, pc)
        prediction = _fsm_predictions(np, keys, taken, spec.hrt_automaton)
        return prediction == taken_bool
    if spec.scheme == "AT":
        assert spec.history_length is not None and spec.pt_automaton is not None
        keys = _hrt_keys(np, spec, pc)
        patterns = _history_per_branch(np, keys, taken, spec.history_length, 1)
        prediction = _fsm_predictions(np, patterns, taken, spec.pt_automaton)
        return prediction == taken_bool
    if spec.scheme == "ST":
        assert spec.history_length is not None and training_columns is not None
        # profiling always runs through an IHRT (software accounting), so the
        # preset bits ignore the test HRT; only the test pass is re-keyed
        preset = _preset_bits(np, training_columns, spec.history_length)
        keys = _hrt_keys(np, spec, pc)
        patterns = _history_per_branch(np, keys, taken, spec.history_length, 1)
        return preset[patterns] == taken_bool
    if spec.scheme == "GAg":
        assert spec.history_length is not None
        history = _history_global(np, taken, spec.history_length, 1)
        prediction = _fsm_predictions(np, history, taken, spec.pt_automaton or A2)
        return prediction == taken_bool
    if spec.scheme == "gshare":
        assert spec.history_length is not None
        mask = (1 << spec.history_length) - 1
        history = _history_global(np, taken, spec.history_length, 0)
        index = ((pc >> 2) ^ history) & mask
        prediction = _fsm_predictions(np, index, taken, spec.pt_automaton or A2)
        return prediction == taken_bool
    if spec.scheme == "Perceptron":
        assert spec.history_length is not None and spec.rows is not None
        histories = _history_global(np, taken, spec.history_length, 0)
        rows_index = (pc >> 2) % spec.rows
        prediction = _perceptron_predictions(
            np, rows_index, histories, taken, PerceptronState(spec.history_length, spec.rows)
        )
        return prediction == taken_bool
    if spec.scheme == "TAGE":
        assert spec.tage_tables is not None and spec.history_length is not None
        state = TageState(spec.tage_tables, spec.tage_entry_bits or DEFAULT_ENTRY_BITS)
        histories = _history_global(np, taken, spec.history_length, 0)
        prediction = _tage_predictions(np, pc, histories, taken, state)
        return prediction == taken_bool
    raise KernelError(f"no vector kernel for spec {spec.canonical()!r}")  # pragma: no cover


def simulate_spec(
    spec: PredictorSpec,
    packed: PackedTrace,
    training: Optional[PackedTrace] = None,
) -> PredictionStats:
    """Score ``spec`` over ``packed`` with the vector kernels.

    Returns exactly the :class:`PredictionStats` that
    ``simulate(spec.build(...), packed)`` (no RAS) produces.  Raises
    :class:`~repro.errors.KernelError` for non-vectorizable specs; use
    :func:`score_spec` for the transparently-falling-back entry point.
    """
    mask = correct_mask(spec, packed, training)
    return PredictionStats(
        conditional_total=int(len(mask)),
        conditional_correct=int(mask.sum()),
    )


def per_site_accuracy(
    spec: PredictorSpec,
    packed: PackedTrace,
    training: Optional[PackedTrace] = None,
) -> Dict[int, Tuple[int, int]]:
    """Per-static-site ``(correct, total)`` — the kernels' twin of
    :func:`repro.sim.analysis.per_site_accuracy`, bit-exact for every
    vectorizable spec."""
    np = _np()
    mask = correct_mask(spec, packed, training)
    pc, _target, _taken = _conditional_columns(packed)
    unique_pc, inverse = np.unique(pc, return_inverse=True)
    totals = np.bincount(inverse, minlength=len(unique_pc))
    corrects = np.bincount(inverse, weights=mask, minlength=len(unique_pc))
    return {
        int(site): (int(correct), int(total))
        for site, correct, total in zip(unique_pc, corrects, totals)
    }


# ----------------------------------------------------------------------
# backend dispatch
# ----------------------------------------------------------------------
def choose_backend(spec: PredictorSpec, backend: Optional[str] = None) -> str:
    """The concrete backend that will score ``spec``: resolves the request
    (see :func:`repro.sim.backend.resolve_backend`) and applies the
    transparent scalar fallback for specs the kernels cannot express.
    Every registry family is now vectorizable, so the fallback only fires
    for schemes added without a kernel."""
    from repro.sim.backend import resolve_backend

    resolved = resolve_backend(backend)
    if resolved == "vector" and not vectorizable(spec):
        return "scalar"
    return resolved


def score_spec(
    spec: PredictorSpec,
    packed: PackedTrace,
    backend: Optional[str] = None,
    training: Optional[PackedTrace] = None,
    training_records: Optional[Iterable[Any]] = None,
) -> PredictionStats:
    """Score one predictor spec over a packed trace on the chosen backend.

    This is the engine entry point the sweep layers use: ``backend`` may be
    ``auto`` / ``scalar`` / ``vector`` (or ``None`` for the process
    default), and the result is identical whichever backend runs.  Profiled
    schemes take their training trace as ``training`` (packed, used by the
    kernels) and/or ``training_records`` (any record iterable, used by the
    scalar path; defaults to iterating ``training``).
    """
    if choose_backend(spec, backend) == "vector":
        return simulate_spec(spec, packed, training)
    from repro.sim.engine import simulate

    if training_records is None:
        training_records = training
    predictor = spec.build(training_records=training_records)
    return simulate(predictor, packed)
