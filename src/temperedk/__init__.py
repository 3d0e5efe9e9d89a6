"""Exact catalogs of the tempered duals of GL(n, R) and GL(n, C), the
K-theory of their reduced C*-algebras, and archimedean base change."""

from importlib import import_module

__version__ = "0.1.0"

# Each layer module and the public names it defines.  A name resolves on
# first read (PEP 562), so an entry point imports only the layers it uses:
# the CLI never loads weil.  Nothing is cached in this module: every read
# asks the layer, so a name the layer rebinds is never stale here.
_LAYERS = {
    "base_change": (
        "InducedKMap",
        "ParameterMap",
        "bc_component",
        "bc_point_real",
        "induced_k_map",
        "pullback",
    ),
    "ktheory": (
        "IndexFamily",
        "KClass",
        "KGroupPresentation",
        "closed_form_complex",
        "closed_form_real",
        "k_complex",
        "k_real",
        "kclass",
        "kclass_add",
        "kclass_scale",
    ),
    "levi": (
        "LeviShape",
        "SigmaOrbit",
        "enumerate_levi_shapes",
        "run_multiplicities",
        "weyl_group",
    ),
    "param_space": (
        "ComplexComponent",
        "ComplexTemperedPoint",
        "Component",
        "ConeChart",
        "RealTemperedPoint",
        "TemperedPoint",
        "canonicalize_point",
        "complex_components",
        "cone_chart",
        "enumerate_orbits",
        "real_components",
    ),
    "weil": (
        "ComplexCharacter",
        "LParameterC",
        "LParameterR",
        "OneDim",
        "RealCharacter",
        "TwoDimInduced",
        "langlands_complex",
        "langlands_real",
        "langlands_real_inverse",
        "restrict",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str) -> object:
    if name in _HOME:
        return getattr(import_module("." + _HOME[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
