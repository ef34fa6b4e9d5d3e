"""Minimax-optimal fair linear regression under demographic parity.

Library surface: the data-generating model, the population fair regressor
in closed form, the sample-splitting plugin estimator, fairness/accuracy
metrics, eigenvalue diagnostics, minimax lower-bound machinery, and a
seeded experiment harness with a CLI (``fairlinreg``).
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DegenerateDirectionError,
    DimensionError,
    FairRegressionError,
    ParameterError,
    SingularMatrixError,
)
from .model import (
    Dataset,
    GroupAffineRegressor,
    ModelParams,
    evaluate,
    sample_dataset,
    to_dict,
    validate_params,
)
from .oracle import (
    FairOracle,
    analytic_excess_risk,
    analytic_unfair_gap,
    build_fdp,
    gaussian_l2_distance,
    quantile_compose_fdp,
    true_regressor,
)
from .estimator import ComponentEstimates, SplitPlan, fit, make_split, ols
from .metrics import (
    GaussianLaw1D,
    UnfairnessReport,
    conditional_law,
    kolmogorov_gaussian,
    mc_excess_risk,
    unfairness,
    w2_empirical,
    w2_gaussian,
)
from .eigdiag import (
    EigDiag,
    gram_eigs,
    max_inv_eig_expectation_bound,
    min_eig_tail_bound,
    min_eig_tail_check,
)
from .lower_bound import (
    CodeSet,
    PackedFamily,
    TwoPointBound,
    build_family,
    fano_value,
    gv_code,
    hard_instance_eps,
    kl_conditional,
    kl_conditional_sample,
    packed_pair_kl,
    packed_pair_separation,
    two_point_bound,
)
from .experiments import (
    SweepConfig,
    SweepResult,
    component_errors,
    fit_slope,
    parity_gap_margin,
    random_valid_params,
    run_lower_bound_report,
    run_sweep,
)

__version__ = "0.1.0"

# Every public name imported above; submodules are not re-exported.
__all__ = [
    name
    for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
