"""A small deterministic TAGE-style predictor (Seznec & Michaud, JILP 2006).

A base bimodal table backs up to four *tagged* tables indexed by
geometrically-growing global-history lengths (4, 8, 16, 32).  Prediction
comes from the matching table with the longest history (the *provider*);
the next-longest match (or the base table) is the *altpred*.  On a
misprediction a fresh entry is allocated in a longer-history table whose
``useful`` counter has decayed to zero.

The design is stripped to its deterministic core so that scalar engine,
vector kernel and streaming scorer can be proved bit-exact against each
other: no ``USE_ALT_ON_NA`` heuristic, no randomised allocation (the first
``u == 0`` table above the provider wins; if none, every candidate's ``u``
is decremented), no periodic ``u`` reset.  The hash functions are plain
XOR folds — :func:`fold_history` — shared verbatim between the per-record
scalar path and the columnar kernels.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigError
from repro.predictors.base import ConditionalBranchPredictor

#: tag width of the tagged tables.
TAG_BITS = 8
#: signed 3-bit prediction counter range (predict taken when ``>= 0``).
CTR_MIN = -4
CTR_MAX = 3
#: 2-bit useful-counter ceiling.
U_MAX = 3
#: the base bimodal table has ``2 ** (entry_bits + BASE_EXTRA_BITS)``
#: 2-bit counters (it is cheap, so it gets 4x the tagged-table entries).
BASE_EXTRA_BITS = 2

#: default per-tagged-table size exponent (512-entry tables).
DEFAULT_ENTRY_BITS = 9
#: the longest geometric history must fit the int64 history columns.
MAX_TABLES = 4


def tage_geometries(tables: int) -> List[int]:
    """Geometric history lengths ``4, 8, 16, 32`` for ``tables`` tables."""
    return [4 << i for i in range(tables)]


def fold_history(history: int, length: int, bits: int) -> int:
    """XOR-fold the low ``length`` bits of ``history`` into ``bits`` bits.

    Written with a fixed chunk count (not ``while value``) so the columnar
    kernels can run the identical loop over whole NumPy columns.
    """
    folded = 0
    value = history & ((1 << length) - 1)
    mask = (1 << bits) - 1
    for _ in range((length + bits - 1) // bits):
        folded ^= value & mask
        value >>= bits
    return folded


def tage_index(pc: int, history: int, length: int, entry_bits: int) -> int:
    """Tagged-table index: folded history XOR branch address."""
    return ((pc >> 2) ^ fold_history(history, length, entry_bits)) & (
        (1 << entry_bits) - 1
    )


def tage_tag(pc: int, history: int, length: int) -> int:
    """Tagged-table tag: two differently-folded history hashes XOR pc."""
    return (
        (pc >> 2)
        ^ fold_history(history, length, TAG_BITS)
        ^ (fold_history(history, length, TAG_BITS - 1) << 1)
    ) & ((1 << TAG_BITS) - 1)


class TageState:
    """The mutable tables of one TAGE instance, hash-agnostic.

    Callers hand :meth:`peek` / :meth:`step` the *precomputed* base index
    and per-table (index, tag) pairs; the scalar predictor computes them
    per record, the vector kernel computes them columnar.  Keeping the
    selection/update logic here — and only here — is what makes the two
    paths bit-exact by construction.  A tagged entry whose ``tag`` is
    ``-1`` is invalid (never allocated): no computed tag is negative.
    """

    def __init__(self, tables: int, entry_bits: int):
        if not 1 <= tables <= MAX_TABLES:
            raise ConfigError(
                f"tage tables must be in 1..{MAX_TABLES}, got {tables}"
            )
        if not 1 <= entry_bits <= 16:
            raise ConfigError(
                f"tage entry bits must be in 1..16, got {entry_bits}"
            )
        self.tables = tables
        self.entry_bits = entry_bits
        self.lengths = tage_geometries(tables)
        size = 1 << entry_bits
        self.base = [2] * (1 << (entry_bits + BASE_EXTRA_BITS))
        self.tag = [[-1] * size for _ in range(tables)]
        self.ctr = [[0] * size for _ in range(tables)]
        self.useful = [[0] * size for _ in range(tables)]
        #: table numbers, longest history first (provider search order)
        self._longest_first = tuple(range(tables - 1, -1, -1))

    # ------------------------------------------------------------------
    def peek(
        self, base_index: int, indices: Sequence[int], tags: Sequence[int]
    ) -> bool:
        """Prediction only — no state change."""
        tag = self.tag
        for i in self._longest_first:
            if tag[i][indices[i]] == tags[i]:
                return self.ctr[i][indices[i]] >= 0
        return self.base[base_index] >= 2

    def step(
        self,
        base_index: int,
        indices: Sequence[int],
        tags: Sequence[int],
        taken: bool,
    ) -> bool:
        """Predict-and-update one branch; returns the prediction.

        The provider is the longest-history table whose entry's tag
        matches, the altpred the next matching table (or the base table).
        """
        tag = self.tag
        ctr = self.ctr
        useful = self.useful
        provider = alternate = -1
        for i in self._longest_first:
            if tag[i][indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alternate = i
                    break
        if provider < 0:
            base = self.base
            counter = base[base_index]
            prediction = counter >= 2
            if taken:
                if counter < 3:
                    base[base_index] = counter + 1
            elif counter > 0:
                base[base_index] = counter - 1
        else:
            index = indices[provider]
            row = ctr[provider]
            counter = row[index]
            prediction = counter >= 0
            if alternate >= 0:
                alt_prediction = ctr[alternate][indices[alternate]] >= 0
            else:
                alt_prediction = self.base[base_index] >= 2
            if prediction != alt_prediction:
                u_row = useful[provider]
                u = u_row[index]
                if prediction == taken:
                    if u < U_MAX:
                        u_row[index] = u + 1
                elif u > 0:
                    u_row[index] = u - 1
            if taken:
                if counter < CTR_MAX:
                    row[index] = counter + 1
            elif counter > CTR_MIN:
                row[index] = counter - 1
        if prediction != taken and provider < self.tables - 1:
            candidates = range(provider + 1, self.tables)
            for j in candidates:
                if useful[j][indices[j]] == 0:
                    tag[j][indices[j]] = tags[j]
                    ctr[j][indices[j]] = 0 if taken else -1
                    break
            else:
                for j in candidates:
                    if useful[j][indices[j]] > 0:
                        useful[j][indices[j]] -= 1
        return prediction


class TagePredictor(ConditionalBranchPredictor):
    """TAGE over a single global history register (init all-zeros)."""

    def __init__(self, tables: int, entry_bits: int = DEFAULT_ENTRY_BITS):
        self.state = TageState(tables, entry_bits)
        self.tables = tables
        self.entry_bits = entry_bits
        self.max_history = self.state.lengths[-1]
        self._mask = (1 << self.max_history) - 1
        self._history = 0

    def _hashes(self, pc: int) -> Tuple[int, List[int], List[int]]:
        base_index = (pc >> 2) & (
            (1 << (self.entry_bits + BASE_EXTRA_BITS)) - 1
        )
        history = self._history
        indices = [
            tage_index(pc, history, length, self.entry_bits)
            for length in self.state.lengths
        ]
        tags = [tage_tag(pc, history, length) for length in self.state.lengths]
        return base_index, indices, tags

    def predict(self, pc: int, target: int) -> bool:
        base_index, indices, tags = self._hashes(pc)
        return self.state.peek(base_index, indices, tags)

    def update(self, pc: int, target: int, taken: bool) -> None:
        base_index, indices, tags = self._hashes(pc)
        self.state.step(base_index, indices, tags, taken)
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._mask

    def reset(self) -> None:
        self.state = TageState(self.tables, self.entry_bits)
        self._history = 0

    @property
    def name(self) -> str:
        return f"tage({self.tables},{self.entry_bits})"
