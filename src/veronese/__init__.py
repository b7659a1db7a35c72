"""Exact-arithmetic toolkit for the degree-d Veronese embedding presented
as a determinantal variety: the catalecticant coordinate matrix, its
2-minor binomial quadrics, the embedding with its explicit chartwise
inverse, symbolic certificates for the covering and identity arguments,
and an exhaustive finite-field oracle."""

from .errors import (
    BudgetError,
    ContractError,
    EmptyMatrixError,
    InvalidPointError,
    NoChartError,
    VeroneseError,
)
from .multiindex import (
    MultiIndex,
    VeroneseContext,
    binom,
    enumerate_monomials,
    lex_compare,
    parse_coordinate_name,
    pure_power,
    rank,
    unit,
    unrank,
)
from .matrix import (
    Binomial2,
    SymbolicMatrix,
    build_matrix,
    build_matrix_by_columns,
    is_matrix_minor,
    minor_candidates,
    minors2,
    parse_binomial,
    sorted_binomials,
    toric_quadrics,
)
from .projective import (
    Fp,
    PrimeField,
    ProjectivePoint,
    QQ,
    count_projective_points,
    enumerate_projective_points,
    field_from_name,
    format_point,
    normalize,
    parse_point,
    point,
    proj_eq,
    random_point,
)
from .morphism import (
    available_charts,
    chart_select,
    failing_minor,
    inverse_map,
    inverse_on_chart,
    is_on_variety,
    veronese_eval,
)
from .certificates import (
    PropagationStep,
    RewriteChain,
    VerifyResult,
    ZeroPropagationCertificate,
    all_rewrite_chains,
    chain_from_doc,
    chain_to_doc,
    propagation_from_doc,
    propagation_to_doc,
    rewrite_chain,
    verify_rewrite_chain,
    verify_zero_propagation,
    zero_propagation_certificate,
)
from .oracle import (
    DEFAULT_BUDGET,
    EqualityReport,
    brute_force_image,
    brute_force_variety,
    census,
    check_set_equality,
    check_toric_equality,
    report_to_doc,
    vanishing_set,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "ContractError", "EmptyMatrixError", "InvalidPointError",
    "NoChartError", "VeroneseError",
    "MultiIndex", "VeroneseContext", "binom", "enumerate_monomials",
    "lex_compare", "parse_coordinate_name", "pure_power", "rank", "unit", "unrank",
    "Binomial2", "SymbolicMatrix", "build_matrix", "build_matrix_by_columns",
    "is_matrix_minor", "minor_candidates", "minors2", "parse_binomial",
    "sorted_binomials", "toric_quadrics",
    "Fp", "PrimeField", "ProjectivePoint", "QQ", "count_projective_points",
    "enumerate_projective_points", "field_from_name", "format_point",
    "normalize", "parse_point", "point", "proj_eq", "random_point",
    "available_charts", "chart_select", "failing_minor", "inverse_map",
    "inverse_on_chart", "is_on_variety", "veronese_eval",
    "PropagationStep", "RewriteChain", "VerifyResult",
    "ZeroPropagationCertificate", "all_rewrite_chains", "chain_from_doc",
    "chain_to_doc", "propagation_from_doc", "propagation_to_doc",
    "rewrite_chain", "verify_rewrite_chain", "verify_zero_propagation",
    "zero_propagation_certificate",
    "DEFAULT_BUDGET", "EqualityReport", "brute_force_image",
    "brute_force_variety", "census", "check_set_equality", "check_toric_equality",
    "report_to_doc", "vanishing_set",
]
