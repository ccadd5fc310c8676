"""Jiménez & Lin perceptron branch predictor.

Each table row holds a signed weight vector ``w[0..h]``; the prediction
for a branch is the sign of the dot product of that vector with the
bipolar global history (``+1`` for taken, ``-1`` for not taken, ``w[0]``
against a constant ``+1`` bias input)::

    y = w[0] + sum_i w[i] * x_i        predict taken iff y >= 0

Training runs on a misprediction *or* whenever ``|y|`` is at or below the
threshold ``theta = floor(1.93 * h + 14)`` (the paper's empirically-best
margin): every weight moves one step toward agreement with the outcome,
saturating at the 8-bit range ``[-128, 127]``.

The structure is deliberately the classic 2001 HPCA design — one global
history register, rows selected by branch address modulo table size — so
its per-site behaviour is comparable against the 1991 two-level schemes
the repo reproduces: it learns *linearly separable* functions of the last
``h`` outcomes, which covers the static analyzer's ``correlated(d)``
class whenever the correlated sources fall inside the history window.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Dict, List, Sequence

from repro.errors import ConfigError
from repro.predictors.base import ConditionalBranchPredictor

#: 8-bit saturating weight range.
WEIGHT_MIN = -128
WEIGHT_MAX = 127

#: default number of weight-vector rows (4 KB-class table at h=12).
DEFAULT_ROWS = 512

#: widest supported history: history registers are replayed as int64
#: columns by the vector kernels, so the window must fit 62 bits.
MAX_HISTORY = 62


def perceptron_threshold(history_length: int) -> int:
    """Jiménez & Lin's training threshold ``floor(1.93 * h + 14)``."""
    return int(1.93 * history_length + 14)


def _saturate(weights: List[int]) -> List[int]:
    """Clamp a weight vector one ``+-1`` training step past the 8-bit
    range (so the only out-of-range values are ``WEIGHT_MAX + 1`` and
    ``WEIGHT_MIN - 1``; two ``in`` scans cost half a ``max``/``min``)."""
    if WEIGHT_MAX + 1 not in weights and WEIGHT_MIN - 1 not in weights:
        return weights
    return [min(WEIGHT_MAX, max(WEIGHT_MIN, w)) for w in weights]


class PerceptronState:
    """The weight table of one perceptron instance, history-agnostic.

    Callers hand :meth:`step` the row number and the input tuple ``x``: a
    ``+1`` bias input, then ``+1``/``-1`` (taken / not taken) for history
    bits ``0 .. h-1``.  The scalar predictor shifts that tuple per record,
    the vector kernel builds it once per distinct history value.  The
    prediction and training rule lives here and only here, so the two
    paths are bit-exact by construction.

    Rows are allocated on first touch: memory follows the rows a trace
    actually uses, not ``rows``.
    """

    def __init__(self, history_length: int, rows: int = DEFAULT_ROWS):
        if not 1 <= history_length <= MAX_HISTORY:
            raise ConfigError(
                f"perceptron history length must be in 1..{MAX_HISTORY},"
                f" got {history_length}"
            )
        if rows < 1:
            raise ConfigError(f"perceptron rows must be >= 1, got {rows}")
        self.history_length = history_length
        self.rows = rows
        self.theta = perceptron_threshold(history_length)
        #: row number -> ``[w0, w1 .. wh]`` for every row trained so far;
        #: an untouched row reads as :attr:`_zero` (a row's first touch
        #: always trains, since ``y = 0`` is inside the threshold)
        self.weights: Dict[int, List[int]] = {}
        self._zero = (0,) * (history_length + 1)

    def output(self, row: int, x: Sequence[int]) -> int:
        """The dot product ``y`` of ``row``'s weights with ``x``."""
        return sum(map(mul, self.weights.get(row, self._zero), x))

    def step(self, row: int, x: Sequence[int], taken: bool) -> bool:
        """Predict-and-train one branch; returns the prediction ``y >= 0``."""
        weights = self.weights.get(row, self._zero)
        y = sum(map(mul, weights, x))
        # training on a misprediction or |y| <= theta folds to one side
        # test: taken -> (y < 0 or |y| <= theta) == y <= theta, and
        # not taken -> (y >= 0 or |y| <= theta) == y >= -theta
        if taken:
            if y <= self.theta:
                self.weights[row] = _saturate(list(map(add, weights, x)))
        elif y >= -self.theta:
            self.weights[row] = _saturate(list(map(sub, weights, x)))
        return y >= 0


class PerceptronPredictor(ConditionalBranchPredictor):
    """Global-history perceptron predictor (Jiménez & Lin, HPCA 2001).

    ``history_length`` is the global-history window ``h``; ``rows`` the
    number of weight vectors (selected by ``(pc >> 2) % rows``).  Input
    ``x_j`` is the outcome ``j`` branches ago, matching the repo's other
    global-history predictors (gshare init-0: every input starts at -1).
    """

    def __init__(self, history_length: int, rows: int = DEFAULT_ROWS):
        self.state = PerceptronState(history_length, rows)
        self.history_length = history_length
        self.rows = rows
        self._x = (1,) + (-1,) * history_length

    def predict(self, pc: int, target: int) -> bool:
        return self.state.output((pc >> 2) % self.rows, self._x) >= 0

    def update(self, pc: int, target: int, taken: bool) -> None:
        x = self._x
        self.state.step((pc >> 2) % self.rows, x, taken)
        self._x = (1, 1 if taken else -1) + x[1:-1]

    def reset(self) -> None:
        self.state = PerceptronState(self.history_length, self.rows)
        self._x = (1,) + (-1,) * self.history_length

    @property
    def name(self) -> str:
        return f"perceptron({self.history_length},{self.rows})"
