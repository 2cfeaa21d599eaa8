"""meanherd: kernel mean classifiers, herding compression and noise robustness.

The package is organized bottom-up:

- ``kernels``: kernel specifications and blocked kernel sums
- ``data``: labeled samples, exact finite-support distributions, corruption ops
- ``embedding``: the squared norm of a signed mean embedding held as (points, coef)
- ``losses``: margin losses, corrected losses, robustness analysis
- ``classifier``: the mean classifier, its norm, MMD and embedding distances, margins
- ``bounds``: closed-form generalization bound calculators
- ``herding``: Frank-Wolfe sparse approximation of mean embeddings
- ``lab``: population-level theorem checks and experiments
- ``cli``: the ``meanherd`` command-line front end
"""

from types import ModuleType as _ModuleType

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
    fit,
    margin_for_error,
    mean_norm,
    mmd,
    select_kernel,
)
from .data import (
    DiscreteDistribution,
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
    kernel_sums,
)
from .losses import (
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

# Every public name above, each declared once, in its import: no submodule
# and nothing private.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
