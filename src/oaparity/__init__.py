"""Parity invariants of orthogonal arrays and sets of MOLS.

Compute tau- and sigma-parity of orthogonal arrays, classify parity vectors
into switching classes, build explicit families achieving prescribed
parities, and audit the parity census of an array's ensemble of Latin
squares.
"""

from .core import (
    FieldTable,
    LatinSquare,
    OAError,
    OrthogonalArray,
    OrthogonalityError,
    ResourceLimitError,
    UsageError,
    Transform,
    TransformResult,
    apply_transform,
    cyclic_square,
    field_table,
    mols_to_oa,
    oa_to_mols,
    permutation_parity,
    rows_agree_in_one_column,
)
from .parity import (
    ParityTriple,
    PlausibilityReport,
    SigmaMatrix,
    StandardSigma,
    TauVector,
    binom2_bit,
    check_plausible,
    equiparity_type,
    latin_square_parities,
    plausible_types,
    sigma_from_tau,
    sigma_parity,
    standardise,
    standardise_by_out_degree,
    tau_from_sigma,
    tau_parity,
    transform_parity_laws,
)
from .classes import (
    ClassTable,
    OrbitSummary,
    act_permute,
    act_swap,
    class_of_oa,
    enumerate_classes,
    orbit,
)
from .constructions import (
    block_sigma,
    circulant_sigma,
    feasible_type_counts,
    linear_mols,
    lower_triangular_sigma,
    pp_plausible_sigma,
    residue_pattern_oa,
)
from .ensemble import (
    EnsembleCensus,
    GoodSequence,
    check_ensemble_laws,
    ensemble_census,
    is_good,
    max_equiparity,
    optimal_mu,
)
from .graphs import (
    SimpleGraph,
    graph_complement,
    graph_switch,
    sigma_graph,
    stack,
    stack_graph,
    tau_graph,
    tau_graphs,
    to_dot,
)
from .search import (
    SearchOutcome,
    SearchSpec,
    achieved_parity_types,
    enumerate_latin_squares,
    find_oa_with_parity,
)

__version__ = "0.1.0"
