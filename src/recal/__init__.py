"""Online recalibration of black-box probability forecasts.

A forecaster that wraps an arbitrary (possibly adversarial) stream of
probability quotes and emits grid-valued forecasts that are both
asymptotically calibrated and no-regret against the quotes, by driving
an (m+2)-dimensional average payoff into a convex target set with a
halfspace oracle and online gradient descent.  A multiplicative-weights
baseline over the exponentially many lifted payoff coordinates is
included for comparison, along with metrics and an experiment harness.

The names below are the public contract: the library calls that README
shows and the types they return or raise.  Everything else stays
importable from its submodule (recal.geometry, recal.harness, ...).
"""

from .geometry import ForecastDistribution, GameConfig, game_config
from .harness import CheckpointMetrics, ConfigError, ExperimentConfig, Trace, run_experiment
from .recalibrator import ProtocolError, RecalibratorState, observe, predict
from .scoring import ScoringRule, parse_rule

__all__ = [
    "ScoringRule", "parse_rule",
    "ForecastDistribution", "GameConfig", "game_config",
    "ProtocolError", "RecalibratorState", "observe", "predict",
    "CheckpointMetrics", "ConfigError", "ExperimentConfig", "Trace", "run_experiment",
]

__version__ = "0.1.0"
