"""Truthful, jointly-differentially-private GLM estimation at desk scale.

The package splits into link algebra (`links`), closed-form estimators and
sensitivity bounds (`estimators`), noise and the privacy account (`privacy`),
synthetic agent populations and the threshold strategy (`population`), the
end-to-end mechanisms (`mechanism`), and the experiment harness plus CLI
(`harness`, `cli`).
"""

from .errors import ConfigError, SingularGramError
from .estimators import (
    Dataset,
    EstimatorSettings,
    calibrate_c0,
    empirical_sensitivity,
    estimate,
    l4_shrink_rows,
    sensitivity_bound,
    sensitivity_bound_heavy,
    sensitivity_bound_subgaussian,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    ScheduleSpec,
    canonical_privacy_check,
    emit_report,
    estimate_deviation_gain,
    fit_rate,
    run_experiment,
)
from .links import (
    LinkBundle,
    LinkConstants,
    ModelKind,
    PolytopeSpec,
    clip_response,
    compute_link_constants,
    make_link_bundle,
    preset_polytope,
    project_polytope,
)
from .mechanism import (
    CostFunction,
    MechanismOutcome,
    MechanismParams,
    brier_payment,
    budget_bound,
    partition,
    predictions,
    preset_schedule,
    posterior_mean,
    project_ball,
    rationality_check,
    release_noise,
    run_mechanism,
)
from .population import (
    Population,
    PopulationSpec,
    PopulationStream,
    StudentTCovariates,
    SubGaussianCov,
    SubGaussianIsotropic,
    Threshold,
    WorstOfGrid,
    generate_population,
    tau_alpha_beta_bound,
)
from .privacy import (
    PrivacyParams,
    RatioReport,
    compose_account,
    empirical_privacy_ratio,
    sample_norm_exponential,
)

__version__ = "0.1.0"
