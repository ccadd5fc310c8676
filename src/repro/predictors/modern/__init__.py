"""Post-2000 predictor subsystem: perceptron and TAGE.

These are the repo's "modern" comparators — the schemes the H2P pipeline
(`repro h2p`, fig11) plays against the 1991 two-level designs on the
hard-to-predict sites the static analyzer ranks.  Both register through
:mod:`repro.predictors.spec` (``perceptron(h[,rows])``, ``tage(t[,bits])``)
and are therefore picked up by every engine layer: scalar reference,
vector kernels, carried-state streaming, fused sweeps and the result
cache.
"""

from repro.predictors.modern.perceptron import (
    DEFAULT_ROWS,
    MAX_HISTORY,
    WEIGHT_MAX,
    WEIGHT_MIN,
    PerceptronPredictor,
    PerceptronState,
    perceptron_threshold,
)
from repro.predictors.modern.tage import (
    BASE_EXTRA_BITS,
    CTR_MAX,
    CTR_MIN,
    DEFAULT_ENTRY_BITS,
    MAX_TABLES,
    TAG_BITS,
    U_MAX,
    TagePredictor,
    TageState,
    fold_history,
    tage_geometries,
    tage_index,
    tage_tag,
)

__all__ = [
    "BASE_EXTRA_BITS",
    "CTR_MAX",
    "CTR_MIN",
    "DEFAULT_ENTRY_BITS",
    "DEFAULT_ROWS",
    "MAX_HISTORY",
    "MAX_TABLES",
    "TAG_BITS",
    "U_MAX",
    "WEIGHT_MAX",
    "WEIGHT_MIN",
    "PerceptronPredictor",
    "PerceptronState",
    "TagePredictor",
    "TageState",
    "fold_history",
    "perceptron_threshold",
    "tage_geometries",
    "tage_index",
    "tage_tag",
]
