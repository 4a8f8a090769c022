"""optlab: a desk-scale laboratory for first-order optimization methods.

Six methods (sgd, hb, nag, adagrad, rmsprop, adam) behind one update
engine, an overparameterized linearly-separable generator on which the
adaptive and non-adaptive families provably land on different interpolants,
closed-form oracles for both, and the grid/decay tuning protocol.
"""

from .errors import (
    AllTrialsDivergedError,
    DataGenerationError,
    LemmaPreconditionError,
    OptlabError,
    SingularKernelError,
)
from .lsq import (
    Dataset,
    generate_synthetic,
    gradient,
    load_dataset,
    loss,
    margin,
    row_span_residual,
    save_dataset,
    test_scores,
)
from .optim import (
    ADAPTIVE_METHODS,
    MethodKind,
    OptimizerSpec,
    OptimizerState,
    StepCoefficients,
    init_state,
    step,
    table1_coefficients,
)
from .oracle import (
    LemmaTrace,
    OracleSolution,
    analytic_test_error,
    exact_synthetic_alphas,
    lemma_condition_check,
    min_norm_solution,
    predicted_test_score,
    sign_solution,
    synthetic_alphas,
    verify_lemma_trajectory,
)
from .schedules import DecayPolicy, next_alpha
from .training import RunResult, TraceRow, run_lockstep, run_training
from .tune import Grid, TrialResult, TuneReport, extend_if_edge, make_log_grid, tune

__version__ = "0.1.0"
