"""Hierarchical time-series forecasting with per-node GRUs, hierarchical
shrinkage priors, bidirectional parameter anchoring, classical baselines,
and a rolling-origin evaluation harness."""

__version__ = "0.1.0"

from .baselines import (
    ArModel,
    DEEPNN_CONFIG,
    ForestConfig,
    GbtConfig,
    MlpConfig,
    MlpModel,
    RwModel,
    TreeEnsemble,
    fit_ar,
    fit_baseline,
    fit_forest,
    fit_gbt,
    fit_mlp,
)
from .checkpoint import load_bundle, read_checkpoint, save_bundle, write_checkpoint
from .dataset import (
    SeriesPanel,
    SynthSpec,
    Window,
    chronological_split,
    load_series_csv,
    make_windows,
    save_series_csv,
    synth_panel,
    to_rates,
)
from .evaluation import (
    DAILY_HORIZONS,
    MONTHLY_HORIZONS,
    EvalReport,
    evaluate,
    render_report,
    write_report_files,
)
from .gru import (
    GruParams,
    OptimState,
    flatten,
    init_params,
    loss_and_grad,
    optimize,
    predict_sequence,
    unflatten,
    zero_params,
)
from .hierarchy import (
    Hierarchy,
    PrecisionSchedule,
    build_hierarchy,
    child_weights,
    impute_weights,
    load_hierarchy,
    precision_schedule,
    save_hierarchy,
)
from .metrics import (
    distance_correlation,
    pearson,
    relative_rmse,
    rmse,
)
from .models import (
    ModelBundle,
    TrainSpec,
    forecast,
    forecast_origins,
    node_seed,
    select_neighbors,
    train_bihrnn,
    train_hrnn,
    train_igru,
    train_knn_gru,
    train_sgru,
)
