"""Exact-arithmetic toolkit for the degree-d Veronese embedding presented
as a determinantal variety: the catalecticant coordinate matrix, its
2-minor binomial quadrics, the embedding with its explicit chartwise
inverse, symbolic certificates for the covering and identity arguments,
and an exhaustive finite-field oracle.

Every public name lives in one submodule, recorded in _EXPORTS.  `import
veronese` loads none of them: the first access to a name imports its
home module and caches the value here (PEP 562), so a process pays only
for the modules it uses.  Submodules resolve the same way, e.g.
`veronese.matrix` after a bare `import veronese`.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "errors": (
        "BudgetError", "ContractError", "InvalidPointError", "NoChartError",
        "VeroneseError",
    ),
    "multiindex": (
        "MultiIndex", "VeroneseContext", "enumerate_monomials", "parse_coordinate_name",
        "pure_power",
    ),
    "matrix": (
        "Binomial2", "DEFAULT_BUDGET", "SymbolicMatrix", "build_matrix",
        "minor_candidates", "minors2", "parse_binomial", "sorted_binomials",
        "toric_quadrics",
    ),
    "projective": (
        "Fp", "PrimeField", "ProjectivePoint", "QQ", "count_projective_points",
        "enumerate_projective_points", "field_from_name", "format_point",
        "normalize", "parse_point", "point", "proj_eq", "random_point",
    ),
    "morphism": (
        "available_charts", "chart_select", "failing_minor", "inverse_map",
        "inverse_on_chart", "is_on_variety", "veronese_eval",
    ),
    "certificates": (
        "PropagationStep", "RewriteChain", "VerifyResult",
        "ZeroPropagationCertificate", "all_rewrite_chains", "propagation_from_doc",
        "propagation_to_doc", "rewrite_chain", "verify_rewrite_chain",
        "verify_zero_propagation", "zero_propagation_certificate",
    ),
    "oracle": (
        "EqualityReport", "brute_force_variety", "census", "report_to_doc",
    ),
    "cli": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # the import binds the submodule as a package attribute
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
