"""Composite likelihood estimation and efficiency diagnostics.

Three small multivariate families (equicorrelated normal, a two-block
trivariate normal, and a four-cell multinomial) with exact margins,
conditionals, scores and samplers; composite specs built from them;
sensitivity / variability / Godambe information by Monte Carlo and by
exact moments; maximum composite likelihood estimators; closed-form
efficiency curves; and a replicate simulation harness.
"""

from .asymptotics import (EfficiencyCurve, MultinomialInfo,
                          avar_rho_free_sigma, avar_rho_known_sigma,
                          default_grid, full_conditional_ratio_curve,
                          multinomial_info_scalars,
                          multinomial_variance_curves, pairwise_ratio_curve,
                          pairwise_rho_sigma_acov, two_block_mean_variances,
                          two_block_threshold)
from .composite import (Component, CompositeSpec, FullEfficiencyReport,
                        InfoTriple, chain, component_scores, composite_loglik,
                        composite_score, composite_score_fd,
                        full_conditional, full_efficiency_check,
                        full_likelihood, independence, info_bias_measure,
                        info_bias_zscore, info_exact, info_monte_carlo,
                        pairwise, partitioned_variance, project_score,
                        projected_info_monte_carlo, projection_matrix,
                        singleton_margins)
from .errors import (ClikError, ConfigError, DimensionMismatch, DomainError,
                     FailureBudgetExceeded, NoRootInDomain,
                     NotPositiveDefinite, SingularMatrix, UnsupportedSpec)
from .estimators import (EstimateResult, closed_form, fit, mcle_newton,
                         method_of_moments_start, registered_closed_form)
from .matrixops import (cholesky_lower, is_psd, loewner_geq, sym_invert,
                        symmetrize)
from .models import (EMVN, GaussianModel, Model, Multinomial4, ParamVector,
                     TriNormal, substream)
from .montecarlo import (ParadoxReport, SimConfig, SimResult, SpecRun,
                         paradox_covariance_diagnostics, run)

__version__ = "0.1.0"

__all__ = [
    "EMVN", "TriNormal", "Multinomial4", "GaussianModel", "Model",
    "ParamVector", "substream",
    "Component", "CompositeSpec", "independence", "pairwise",
    "full_conditional", "chain", "full_likelihood", "singleton_margins",
    "composite_loglik", "composite_score", "composite_score_fd",
    "component_scores", "InfoTriple", "info_monte_carlo", "info_exact",
    "info_bias_measure", "info_bias_zscore", "full_efficiency_check",
    "FullEfficiencyReport", "project_score", "projection_matrix",
    "projected_info_monte_carlo", "partitioned_variance",
    "EstimateResult", "mcle_newton", "closed_form", "fit",
    "method_of_moments_start", "registered_closed_form",
    "EfficiencyCurve", "default_grid", "avar_rho_known_sigma",
    "avar_rho_free_sigma", "pairwise_ratio_curve",
    "full_conditional_ratio_curve", "pairwise_rho_sigma_acov",
    "two_block_mean_variances", "two_block_threshold", "MultinomialInfo",
    "multinomial_info_scalars", "multinomial_variance_curves",
    "SimConfig", "SimResult", "SpecRun", "run",
    "ParadoxReport", "paradox_covariance_diagnostics",
    "sym_invert", "is_psd", "loewner_geq", "cholesky_lower", "symmetrize",
    "ClikError", "DomainError", "SingularMatrix", "NotPositiveDefinite",
    "DimensionMismatch", "NoRootInDomain", "FailureBudgetExceeded",
    "ConfigError", "UnsupportedSpec",
]
