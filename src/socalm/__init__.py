"""Augmented Lagrangian method and second-order variational diagnostics
for second-order cone programs."""

from .alm import (AlmConfig, AlmStatus, AlmTrace, InnerFailure, Proportional, inner_solve,
                  solve, update_multiplier)
from .cone import (ConeRegion, NonFiniteError, classify, in_normal_cone,
                   jacobian_project_polar, project_polar, project_q, tilde)
from .diagnostics import (ErrorBoundReport, certify_growth, dist_to_multiplier_set,
                          estimate_rate, example32_ratio, solvability_estimate,
                          verify_error_bound)
from .lagrangian import AugEval, aug_hessian, aug_lagrangian, lagrangian_l, residual
from .model import (KktPoint, SocpProblem, builtin, generate_planted, load_problem,
                    quadratic_problem)
from .variational import (CriticalCone, CriticalConeCase, GrowthReport, SoscReport,
                          check_dual_qualification, check_sosc, critical_cone,
                          d2_aug_lagrangian, d2_indicator_q, dist2_critical,
                          difference_quotient_oracle, multiplier_calmness,
                          quad_form_q)

__version__ = "0.1.0"

__all__ = [
    "AlmConfig", "AlmStatus", "AlmTrace", "AugEval", "ConeRegion", "CriticalCone",
    "CriticalConeCase", "ErrorBoundReport", "GrowthReport",
    "InnerFailure", "KktPoint", "NonFiniteError", "Proportional", "SocpProblem",
    "SoscReport", "aug_hessian", "aug_lagrangian", "builtin", "certify_growth",
    "check_dual_qualification", "check_sosc", "classify", "critical_cone",
    "d2_aug_lagrangian", "d2_indicator_q", "dist2_critical",
    "difference_quotient_oracle", "dist_to_multiplier_set", "estimate_rate",
    "example32_ratio", "generate_planted", "in_normal_cone", "inner_solve",
    "jacobian_project_polar", "lagrangian_l", "load_problem", "multiplier_calmness",
    "project_polar", "project_q", "quad_form_q", "quadratic_problem", "residual",
    "solvability_estimate", "solve", "tilde", "update_multiplier", "verify_error_bound",
]
