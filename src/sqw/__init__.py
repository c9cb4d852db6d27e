"""Staggered quantum walks with Hamiltonians.

Evolution operators of the form exp(i theta1 H1) exp(i theta0 H0), where each
H is the orthogonal reflection induced by a tessellation of a graph into
cliques.  Includes exact ring simulation, closed-form line analytics, and the
conversion of flip-flop coined walks into staggered walks on clique-expanded
graphs.
"""

from . import errors
from .coined import (
    CoinedWalk,
    EquivalenceReport,
    certify_equivalence,
    coin_tessellation,
    coined_walk_from_descriptor,
    embed_coined_as_sqw,
    grover_coined_walk,
    phase_invariant_distance,
    reflection_coined_walk,
    shift_tessellation,
)
from .graphs import (
    ExpansionMap,
    Graph,
    Tessellation,
    build_graph,
    clique_expansion,
    from_document,
    line_tessellations,
    ring_graph,
    to_document,
    union_covers_edges,
    validate_tessellation,
)
from .line_analytic import (
    LineParams,
    ReducedBlock,
    asymptotic_odd_moment,
    asymptotic_sigma2,
    block_eigenvectors,
    closed_form_sigma2,
    coefficients_AB,
    reduced_block,
    sigma2_surface,
    surface_to_tsv,
    wavefunction,
)
from .operators import (
    EvolutionOperator,
    LocalUnitary,
    OrthogonalReflection,
    apply_exp,
    compose,
    dense_matrix,
    grover_phase_apply,
    reflection_from_tessellation,
)
from .simulation import (
    MomentSummary,
    ProbabilityDistribution,
    WalkState,
    basis_state,
    distribution,
    distribution_to_tsv,
    evolve,
    evolve_final,
    moments,
    ring_labels,
    superposition_state,
    wrap_check,
)

__version__ = "0.1.0"
