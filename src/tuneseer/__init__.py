"""tuneseer: feature-predictive control-parameter selection for
differential evolution.

An off-line campaign over benchmark functions records which DE parameter
triples score well on which objective-function feature clusters; new
functions are then sampled, classified, and optimized with the parameters
that worked best for their cluster.  Improvements over fixed and adaptive
baselines are checked with Wilcoxon signed-rank tests.
"""

from .bench import (
    ObjectiveInstance,
    ObjectiveSpec,
    SearchDomain,
    holdout_suite,
    make_instance,
    training_suite,
)
from .cluster import ClusterModel
from .de import ControlParams, RunConfig, RunTrace, optimize
from .features import FeatureConfig, FeatureVector, extract_features
from .harness import CampaignConfig, cmd_compare, cmd_features, cmd_train
from .metric import PerformanceScore, compute_alpha
from .predictor import (
    TrainingRecord,
    TrainingStore,
    build_training_set,
    recommend,
    run_predictive,
)
from .sampling import latin_hypercube, lhs_params, make_rng, substream
from .shade import ShadeMemory, optimize_shade
from .stats import WilcoxonResult, wilcoxon

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "ClusterModel",
    "ControlParams",
    "FeatureConfig",
    "FeatureVector",
    "ObjectiveInstance",
    "ObjectiveSpec",
    "PerformanceScore",
    "RunConfig",
    "RunTrace",
    "SearchDomain",
    "ShadeMemory",
    "TrainingRecord",
    "TrainingStore",
    "WilcoxonResult",
    "build_training_set",
    "cmd_compare",
    "cmd_features",
    "cmd_train",
    "compute_alpha",
    "extract_features",
    "holdout_suite",
    "latin_hypercube",
    "lhs_params",
    "make_instance",
    "make_rng",
    "optimize",
    "optimize_shade",
    "recommend",
    "run_predictive",
    "substream",
    "training_suite",
    "wilcoxon",
]
