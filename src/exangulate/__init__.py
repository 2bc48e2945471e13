"""Finite n-exangulated categories from quiver algebras.

Construction of cluster-tilting style extension structures on module
subcategories, mechanical verification of the defining axioms, and
localization of the structure at a multiplicative system of morphisms via
roof calculus.  The localization names load `localization.py` on first
access, so a program that never localizes neither compiles nor runs it.
"""

__version__ = "0.1.0"

from .linalg import Matrix, kernel_basis, quotient_with_section, rref, rref_solve
from .quiver import (
    AlgebraPresentation,
    BoundExceeded,
    ExtElement,
    ExtSpace,
    ModMorphism,
    Module,
    Quiver,
    Relation,
    direct_sum,
    ext_group,
    hom_basis,
    hom_dim,
    interval_module,
    projective_cover,
    pull_back,
    push_forward,
    resolution,
    simple_module,
    yoneda_class,
)
from .exangulated import (
    CheckResult,
    ExCategory,
    NExangle,
    Subcategory,
    check_core_axioms,
    is_n_exangle,
    lift_morphism,
    mapping_cocone,
    mapping_cone,
    realize,
)
# served by `__getattr__` (PEP 562), which imports the module on first access
_LOCALIZATION_NAMES = frozenset({
    "EbarSpace", "EtildeGroup", "IdealQuotient", "LocalizationError",
    "LocalizationReport", "MorphismClassSpec", "Roof", "check_mr",
    "common_denominator", "ebar_group", "k_subgroup", "localize", "make_roof",
    "roof_add", "roof_equal", "roof_pull", "roof_push", "s_tilde",
    "weak_kc_check",
})


def __getattr__(name: str):
    if name in _LOCALIZATION_NAMES:
        from . import localization
        return getattr(localization, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LOCALIZATION_NAMES)


__all__ = [
    "AlgebraPresentation",
    "BoundExceeded",
    "CheckResult",
    "EbarSpace",
    "EtildeGroup",
    "ExCategory",
    "ExtElement",
    "ExtSpace",
    "IdealQuotient",
    "LocalizationError",
    "LocalizationReport",
    "Matrix",
    "ModMorphism",
    "Module",
    "MorphismClassSpec",
    "NExangle",
    "Quiver",
    "Relation",
    "Roof",
    "Subcategory",
    "check_core_axioms",
    "check_mr",
    "common_denominator",
    "direct_sum",
    "ebar_group",
    "ext_group",
    "hom_basis",
    "hom_dim",
    "interval_module",
    "is_n_exangle",
    "k_subgroup",
    "kernel_basis",
    "lift_morphism",
    "localize",
    "make_roof",
    "mapping_cocone",
    "mapping_cone",
    "projective_cover",
    "pull_back",
    "push_forward",
    "quotient_with_section",
    "realize",
    "resolution",
    "roof_add",
    "roof_equal",
    "roof_pull",
    "roof_push",
    "rref",
    "rref_solve",
    "s_tilde",
    "simple_module",
    "weak_kc_check",
    "yoneda_class",
    "__version__",
]
