"""Numeric verification of inequality chains between bivariate means.

The package evaluates classical and exponential-type means, reduces chains
between them to one-variable trigonometric or hyperbolic kernel inequalities,
verifies every packaged chain on dense grids, and confirms sharpness by
perturbing each optimal constant until the chain breaks.
"""

from .catalog import (
    Catalog,
    Chain,
    Probe,
    compile_expression,
    flipped_catalog,
    load_catalog,
    m6_probe_specs,
    make_m6_chain,
)
from .constants import (
    constant_beta,
    constant_gamma,
    constant_p0,
    constant_p1,
    constant_registry,
    solve_root,
)
from .errors import (
    BracketError,
    CatalogError,
    ConvergenceError,
    DomainError,
    IneqForgeError,
    PrecisionError,
)
from .kernels import KERNELS, Kernel, get_kernel
from .means import (
    MEAN_KINDS,
    evaluate_mean,
    mean_bundle,
    reduce_homogeneous,
    substitution_arcsin,
    substitution_arctan,
    weighted_power_mean,
)
from .verifier import (
    ChainReport,
    ProbeReport,
    SuiteReport,
    VerificationConfig,
    probe_sharpness,
    run_suite,
    theorem_m6_iff_suite,
    verify_chain,
    verify_endpoint_limits,
    verify_monotone,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "Catalog",
    "CatalogError",
    "Chain",
    "ChainReport",
    "ConvergenceError",
    "DomainError",
    "IneqForgeError",
    "KERNELS",
    "Kernel",
    "MEAN_KINDS",
    "PrecisionError",
    "Probe",
    "ProbeReport",
    "SuiteReport",
    "VerificationConfig",
    "compile_expression",
    "constant_beta",
    "constant_gamma",
    "constant_p0",
    "constant_p1",
    "constant_registry",
    "evaluate_mean",
    "flipped_catalog",
    "get_kernel",
    "load_catalog",
    "m6_probe_specs",
    "make_m6_chain",
    "mean_bundle",
    "probe_sharpness",
    "reduce_homogeneous",
    "run_suite",
    "solve_root",
    "substitution_arcsin",
    "substitution_arctan",
    "theorem_m6_iff_suite",
    "verify_chain",
    "verify_endpoint_limits",
    "verify_monotone",
    "weighted_power_mean",
]
