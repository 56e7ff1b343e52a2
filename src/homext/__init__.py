"""Morphism-extension homogeneity for finite and oracle-presented countable graphs."""

__version__ = "0.1.0"

from .graphs import (
    FiniteGraph,
    GraphError,
    OracleGraph,
    canonical_form,
    complement,
    connected_components,
    induced_subgraph,
    lex_product,
    oracle_truncate,
)
from .morphisms import (
    EndoKind,
    MorphismKind,
    PartialMap,
    classify_map,
    enumerate_local_morphisms,
)
from .engine import (
    MembershipVector,
    Status,
    Verdict,
    back_and_forth,
    classify_finite,
    decide_xy_bounded,
    decide_xy_finite,
    extend_finite,
    one_step_extension,
    one_step_preimage,
)
from .age import (
    AgeEntry,
    alpha,
    check_alpha_sigma_bound,
    check_criterion,
    check_property,
    complement_endo_transport,
    compute_age,
    order_preceq,
    order_sqsubseteq,
    sigma,
)
