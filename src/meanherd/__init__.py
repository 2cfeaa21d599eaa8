"""meanherd: kernel mean classifiers, herding compression and noise robustness.

The package is organized bottom-up:

- ``kernels``: kernel specifications and blocked kernel sums
- ``data``: labeled samples, exact finite-support distributions, corruption ops
- ``embedding``: signed mean embeddings evaluated via kernel sums
- ``losses``: margin losses, corrected losses, robustness analysis
- ``classifier``: the mean classifier, its geometry, MMD, margins
- ``bounds``: closed-form generalization bound calculators
- ``herding``: Frank-Wolfe sparse approximation of mean embeddings
- ``lab``: population-level theorem checks and experiments
- ``cli``: the ``meanherd`` command-line front end
"""

from .bounds import (
    bound_generic_pac_bayes,
    bound_mean_estimation,
    bound_pac_bayes,
    bound_pac_bayes_multi,
    optimal_beta,
)
from .classifier import (
    KernelSelection,
    MeanClassifier,
    MeanGeometry,
    fit,
    margin_for_error,
    mean_norm,
    mmd,
    select_kernel,
)
from .data import (
    DiscreteDistribution,
    InstanceDistribution,
    LabeledSample,
    NoiseFunctionTable,
    contaminate,
    flip_class_conditional,
    flip_instance_dependent,
    flip_symmetric,
    load_csv,
    load_sparse,
    long_servedio,
    mutually_contaminate,
    sample_from,
    synth_blobs,
)
from .errors import (
    ConsistencyError,
    DataError,
    InputError,
    MeanHerdError,
    ParseError,
)
from .herding import (
    Herd,
    HerdingConfig,
    approximation_error,
    convergence_report,
    herd,
    parallel_herd,
    recursive_herd,
)
from .kernels import (
    KernelSpec,
    cross_gram,
    eval_kernel,
    kernel_sums,
)
from .losses import (
    EvaluationGrid,
    Loss,
    balanced_error,
    cc_ratio_check,
    correct_cc,
    correct_sln,
    empirical_risk,
    hinge_loss,
    linear_loss,
    logistic_loss,
    margin_loss,
    order_equivalence_fit,
    parse_loss,
    risk,
    sln_robustness_check,
    zero_one_loss,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "DataError",
    "DiscreteDistribution",
    "EvaluationGrid",
    "Herd",
    "HerdingConfig",
    "InputError",
    "InstanceDistribution",
    "KernelSelection",
    "KernelSpec",
    "LabeledSample",
    "Loss",
    "MeanClassifier",
    "MeanGeometry",
    "MeanHerdError",
    "NoiseFunctionTable",
    "ParseError",
    "approximation_error",
    "balanced_error",
    "bound_generic_pac_bayes",
    "bound_mean_estimation",
    "bound_pac_bayes",
    "bound_pac_bayes_multi",
    "cc_ratio_check",
    "contaminate",
    "convergence_report",
    "correct_cc",
    "correct_sln",
    "cross_gram",
    "empirical_risk",
    "eval_kernel",
    "fit",
    "flip_class_conditional",
    "flip_instance_dependent",
    "flip_symmetric",
    "herd",
    "hinge_loss",
    "kernel_sums",
    "linear_loss",
    "load_csv",
    "load_sparse",
    "logistic_loss",
    "long_servedio",
    "margin_for_error",
    "margin_loss",
    "mean_norm",
    "mmd",
    "mutually_contaminate",
    "optimal_beta",
    "order_equivalence_fit",
    "parallel_herd",
    "parse_loss",
    "recursive_herd",
    "risk",
    "sample_from",
    "select_kernel",
    "sln_robustness_check",
    "synth_blobs",
    "zero_one_loss",
]
