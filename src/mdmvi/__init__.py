"""Checkable certificates for a multidirectional mean value inequality.

The toolkit builds a concave tent over a pair of polytopes, smooths it by
sup-convolution with a norm cone, minimizes the perturbed objective with a
verified Ekeland-style search, and emits a certificate (xi, p) whose three
inequalities can be rechecked independently from brute-force oracles.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: E402
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    DimensionMismatch,
    HullCoords,
    Polytope,
    classify_point,
    dist_to_hull,
    inf_linear,
    sample_set,
)
from .simplex_optim import (  # noqa: E402
    ConcaveObjective,
    LPProblem,
    LPResult,
    UnboundedLPError,
    maximize_concave,
    solve_lp,
)
from .tent import (  # noqa: E402
    PsiValue,
    TentSpec,
    eps_superdiff_check_psi,
    psi_eval,
    psi_supergradient,
    tent_increment_bound_check,
)
from .supconv import (  # noqa: E402
    PhiEvalError,
    PhiValue,
    SupConvSpec,
    SupergradientError,
    phi_eval,
    phi_supergradient,
    superdiff_transfer_check,
    uv_disjoint,
)
from .functions import (  # noqa: E402
    TestFunction,
    f_eval,
    f_subgrad,
    l2_norm,
    linear,
    make_function,
    max_affine,
    quadratic,
    restricted,
    sin_quadratic,
)
from .ekeland import (  # noqa: E402
    EkelandPoint,
    FuzzyPair,
    FuzzyPairError,
    evp_verify,
    fuzzy_pair,
)
from .mdmvt import (  # noqa: E402
    Certificate,
    CertificateSearchError,
    PipelineParams,
    ProblemSpec,
    SpecFormatError,
    SpecInvariantError,
    choose_params,
    restrict_f,
    run,
    verify_certificate,
)
