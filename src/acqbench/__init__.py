"""Batch active learning: acquisition functions, aggregation structures,
and a statistical benchmark harness on toy datasets."""

from .acquisition import (
    ProbabilityTensor,
    bald_scores,
    entropy_scores,
    gradient_embeddings,
    least_confident_scores,
    margin_scores,
    mean_std_scores,
    select_disparity_min,
    select_facility_location,
    select_k_centers,
    select_kmeanspp,
    select_power,
    select_top_k,
)
from .aggregation import (
    AnnealingSchedule,
    FeedbackState,
    annealing_phase,
    feedback_update,
    parallel_ranked_select,
    random_alternate,
)
from .datasets import Dataset, load_csv, make_blobs, make_grid_toy, split
from .evaluation import (
    AccuracyTable,
    WinningRateMatrix,
    accuracy_table,
    compute_heatmap,
    t_score,
    winning_rate,
)
from .model import (
    MCConfig,
    ModelParams,
    TrainConfig,
    accuracy,
    features,
    init_model,
    mc_predict,
    predict_proba,
    train,
)
from .simulator import ExperimentConfig, RunRecord, oracle_label, run_experiment, sweep
from .strategies import RoundState, Strategy, build_strategy

__version__ = "0.1.0"
