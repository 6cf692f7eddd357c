"""Online recalibration of black-box probability forecasts.

A forecaster that wraps an arbitrary (possibly adversarial) stream of
probability quotes and emits grid-valued forecasts that are both
asymptotically calibrated and no-regret against the quotes, by driving
an (m+2)-dimensional average payoff into a convex target set with a
halfspace oracle and online gradient descent.  A multiplicative-weights
baseline over the exponentially many lifted payoff coordinates is
included for comparison, along with metrics and an experiment harness.
"""

from .scoring import (
    ScoringRule,
    brier,
    lipschitz_constant,
    log_clipped,
    parse_rule,
    regret_term,
    score,
    score_pair,
)
from .geometry import (
    ForecastDistribution,
    GameConfig,
    HalfspaceParam,
    PayoffVector,
    dist_to_target,
    dual_linear_min,
    game_config,
    min_grid_resolution,
    nearest_grid_index,
    payoff_vector,
    point_mass,
    project_onto_K,
    unchecked_game_config,
)
from .recalibrator import (
    ProtocolError,
    RecalibratorState,
    approach,
    approach_with_cost,
    dual_set_diameter,
    observe,
    ogd_learning_rate,
    predict,
)
from .mw_recalibrator import (
    MWState,
    dp_denominator,
    dp_weighted_loss,
    lifted_dimension,
    lifted_max_coordinate,
    mw_choose,
    mw_init,
    mw_update,
)
from .metrics import BucketStats, default_regret_slack
from .harness import (
    CheckpointMetrics,
    ConfigError,
    ExperimentConfig,
    LabelSource,
    OracleSource,
    SweepResult,
    SweepRow,
    Trace,
    adversary_label,
    checkpoint_schedule,
    fit_loglog_slope,
    make_label_stream,
    make_oracle,
    resolved_m,
    run_experiment,
    sweep,
)

__all__ = [
    "ScoringRule", "brier", "lipschitz_constant",
    "log_clipped", "parse_rule", "regret_term", "score", "score_pair",
    "ForecastDistribution", "GameConfig", "HalfspaceParam", "PayoffVector",
    "dist_to_target", "dual_linear_min", "game_config", "min_grid_resolution",
    "nearest_grid_index", "payoff_vector", "point_mass", "project_onto_K",
    "unchecked_game_config",
    "ProtocolError", "RecalibratorState", "approach", "approach_with_cost",
    "dual_set_diameter", "observe", "ogd_learning_rate", "predict",
    "MWState", "dp_denominator", "dp_weighted_loss", "lifted_dimension",
    "lifted_max_coordinate", "mw_choose", "mw_init", "mw_update",
    "BucketStats", "default_regret_slack",
    "CheckpointMetrics", "ConfigError", "ExperimentConfig", "LabelSource",
    "OracleSource", "SweepResult", "SweepRow", "Trace", "adversary_label",
    "checkpoint_schedule", "fit_loglog_slope", "make_label_stream",
    "make_oracle", "resolved_m", "run_experiment", "sweep",
]

__version__ = "0.1.0"
