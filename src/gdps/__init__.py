"""gdps: gradient-driven parameter sharing for multi-task feed-forward blocks.

Turns per-task training-gradient snapshots into concrete architecture
decisions (task grouping, shared/private width ratio, energy-weighted
private initialization) and materializes them as a decomposed, routed FFN
block, with a synthetic benchmark for end-to-end validation.
"""

from .bundle import (
    GradientBundle,
    GradientMatrix,
    bundle_fingerprint,
    mean_gradient,
    read_bundle,
    sample_gradients,
    write_bundle,
)
from .conflict import (
    ConflictReport,
    LayerConflict,
    RatioThresholds,
    conflict_report,
    layer_conflict,
    map_shared_ratio,
)
from .decompose import (
    DecompositionPlan,
    SpecializedFfn,
    UnifiedFfnWeights,
    assemble,
    equiv_weight,
    factor_block,
    forward,
    load_ffn,
    make_plan,
    private_init,
    residual,
    routed_forward,
    save_ffn,
    shared_factors,
    unified_forward,
)
from .errors import (
    AnalysisError,
    BundleFormatError,
    GdpsError,
    SingularCovarianceError,
    TrainingDivergence,
    ValidationError,
)
from .grouping import (
    DistanceMatrix,
    GroupingPlan,
    KmeansState,
    SimilarityMatrix,
    consensus_from_distance,
    consensus_group,
    kmeans,
    similarity_matrix,
    single_linkage,
    to_distance,
)
from .linalg import SvdResult, gini, svd, unit_rows
from .report import TOOL_VERSION as __version__
from .subspace import (
    CcaResult,
    SubspaceReport,
    energy_proportions,
    group_energy,
    joint_svd,
    ridge_cca,
    spectrum_stats,
    subspace_report,
)
from .synth import (
    SyntheticSuite,
    ToyModel,
    TrainLog,
    collect_bundle,
    make_model,
    make_suite,
    planted_bundle,
    similarity_delta,
    train,
)
