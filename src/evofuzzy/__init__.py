"""Evolving fuzzy-rule ensemble classifier for drifting data streams."""

from .core import (
    ConfigError,
    DataChunk,
    DataError,
    RunningStandardizer,
    Sample,
    StreamConfig,
    chunks,
)
from .datagen import HyperplaneConfig, SeaConfig, gen_hyperplane, gen_sea, load_csv
from .ensemble import (
    ChunkReport,
    DriftDetector,
    Ensemble,
    EnsembleMember,
    MciState,
    compression_index,
)
from .evaluate import (
    EvalProtocol,
    RunMetrics,
    count_parameters,
    run_cv,
    run_holdout,
)
from .rules import (
    RdeState,
    RuleBank,
    RuleClassifier,
    weighted_rls_update,
)
from .selection import (
    ActiveLearnState,
    Selectors,
    apply_mask,
    conflict_input,
    conflict_output,
    feature_scores,
)

__version__ = "0.1.0"
