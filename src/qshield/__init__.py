"""Hybrid quantum-classical malware classification toolkit.

Exact state-vector simulation feeding two classifier families (a
variational circuit and a quantum-kernel SVM), with classical
preprocessing, feature attribution, and statistical evaluation around
them.
"""

from .encoding import FeatureMapSpec, amplitude_encode, apply_feature_map
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DegenerateInputError,
    DegenerateOutputError,
    IngestionError,
    InvalidInputError,
    ModelFormatError,
    NumericalError,
    PipelineStageError,
    QShieldError,
    QubitCapError,
    ShapeError,
    UnsupportedMethodError,
)
from .evalstats import (
    ConfusionMatrix,
    MetricsReport,
    StatReport,
    bootstrap_ci,
    cohens_d,
    cohens_kappa,
    confusion,
    metrics,
    paired_t_test,
)
from .explain import AttributionReport, grad_attribution, rank_features, score_attribution
from .pipeline import (
    EnsembleModel,
    PipelineConfig,
    load_model,
    predict_labels,
    run_experiment,
    save_model,
)
from .preprocess import (
    Dataset,
    PreprocessConfig,
    PreprocessModel,
    apply_pca,
    apply_preprocess,
    apply_standardize,
    fit_pca,
    fit_preprocess,
    fit_standardize,
    load_csv,
    prune_correlated,
    remove_outliers,
    train_test_split,
)
from .qkernel import KernelMatrix, SvmModel, kernel_matrix, train_qsvm
from .statevector import (
    Circuit,
    GateOp,
    Observable,
    QuantumState,
    apply_gate,
    expectation_z,
    inner_product,
    new_zero_state,
    probabilities,
    qft_circuit,
    run_circuit,
)
from .vqc import (
    TrainConfig,
    VqcModel,
    bce_loss,
    build_ansatz,
    param_shift_grad,
    train_vqc,
)

__version__ = "0.1.0"
