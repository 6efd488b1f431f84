"""Exact computation with free-group words, Whitehead graphs, Stallings core
graphs and Farey-graph geometry, plus a reproducible experiment harness."""

from .errors import (
    AxesEqualError,
    DomainError,
    IdentityWordError,
    InternalContradictionError,
    NotCyclicallyReducedError,
    PreconditionError,
    RankError,
    WordSyntaxError,
)
from .words import (
    BReducedDecomposition,
    CyclicDecomposition,
    Word,
    ad,
    apply_automorphism,
    b_index,
    b_reduced_decomposition,
    boundary_word,
    cyclic_reduce,
    format_word,
    free_reduce,
    parse_word,
    random_word,
)
from .whitehead import (
    Classification,
    MinimizationCertificate,
    WhAutomorphism,
    classify,
    enumerate_whitehead_automorphisms,
    find_cut_vertex,
    is_primitive,
    minimize_cyclic_length,
    whitehead_graph,
)
from .trees import (
    AxisInterval,
    geometric_index,
    project_axis_to_axis,
)
from .factors import (
    CoreGraph,
    FreeFactorVertex,
    FactorInvariant,
    af_adjacent,
    factor_invariant,
    fold,
    is_basis_pair,
    random_free_factor,
)
from .farey import (
    Slope,
    farey_distance,
    slope_of,
)
from .orbit import (
    BoundaryAutomorphism,
    build_boundary_pA,
    exp_quasiflat,
    exp_twist_stability,
)
from .experiments import (
    EXPERIMENT_NAMES,
    exp_basis_change,
    exp_boundary_length,
    exp_cancellation,
    exp_fzero_fiber,
    exp_lipschitz,
    run_experiment,
)
from .report import ExperimentReport

__version__ = "0.1.0"


def __getattr__(name: str):
    # FareyGraph, the one numpy-backed class, loads on first use, so that
    # importing the package does not import numpy
    if name == "FareyGraph":
        from .farey_graph import FareyGraph

        return FareyGraph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
