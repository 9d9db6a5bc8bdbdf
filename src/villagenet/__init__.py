"""Causal analysis of multiplex village-network change in two-stage randomized trials."""

__version__ = "0.1.0"

from .core import (
    ALLOWED_DOSAGES,
    BASE_LAYERS,
    DEFAULT_LAYER_SPECS,
    CodedColumn,
    ExclusionReport,
    IngestionError,
    Individual,
    LayerSpec,
    ResponseTable,
    RosterTable,
    StudyPanel,
    TreatmentDesign,
    apply_inclusion_criteria,
    aggregate_layers,
    build_panel,
    directed_union,
    exclude_intra_household,
    residual_network,
)
from .dyadic import (
    DyadDataset,
    LogisticFit,
    dyad_dataset,
    dyad_rows,
    estimand_correspondence,
    fit_logistic_irls,
    odds_ratio_summary,
    refinement_codes,
)
from .effects import (
    Assignment,
    ContrastSpec,
    EffectError,
    EffectEstimate,
    classify_groups,
    classify_spillover_order,
    effect_suite,
    observed_assignment,
)
from .metrics import (
    MetricTable,
    betweenness_normalized,
    closeness_normalized,
    degree_metrics,
    local_clustering,
    metric_table,
)
from .networks import LayerNetwork, NetworkError
from .randomization import (
    AssignmentDraw,
    PermutationResult,
    RandomizationError,
    derive_stream,
    permutation_pvalue,
    permute_assignment,
    pvalue_from_draws,
)
from .stats import (
    LoessCurve,
    StatsError,
    WelchResult,
    loess_fit,
    wasserstein1,
    welch_ttest,
)
from .synth import (
    OracleTruth,
    SyntheticScenario,
    generate_panel,
    ks_uniform,
    replicate_study,
)
