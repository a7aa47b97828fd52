"""Finite locales: frames, sublocales, remoteness, and a theorem suite.

Every public name below is loaded from its module on first access
(PEP 562), so ``import localic`` or a ``localic query`` run imports only
the modules that it reads: not the generators, diagrams, maps and
registry that only the suite needs.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AdjointNotFrameHom", "FrameTooLarge", "InvalidDocument",
        "InvalidSquare", "InvalidSublocale", "LocalicError", "MixedFrames",
        "NotALattice", "NotAPartialOrder", "NotDistributive",
        "NotMeetPreserving",
    ),
    "frame": (
        "ENUMERATION_CAP", "MAX_ELEMENTS", "FiniteFrame", "boolean_frame",
        "build_frame", "chain_frame", "frame_from_leq",
    ),
    "sublocale": (
        "Sublocale", "booleanization", "closed_subl", "enumerate_sublocales",
        "is_dense_in_itself", "is_nowhere_dense", "is_rare", "is_sublocale",
        "nd_join", "nucleus_map", "open_subl", "subl_join", "subl_meet",
        "sublocales_below", "supplement", "void_subl", "whole_subl",
    ),
    "remoteness": (
        "RemoteContext", "bl_context", "dense_context", "whole_context",
    ),
    "locmap": ("LocalicMap", "build_map", "compose", "identity_map"),
    "diagrams": (
        "DenseSquare", "SquareChain", "Triangle", "is_f_remote_preserving",
        "is_f_star_remote_preserving", "takes_remainder",
    ),
    "generators": (
        "GenSpec", "downset_frame", "gen_chains", "gen_dense_sublocales",
        "gen_frames", "gen_maps", "gen_squares", "gen_triangles",
        "inclusion_map",
    ),
    "registry": ("REGISTRY", "CheckResult", "TheoremCheck", "checks_in_scope"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Read from the module each time, never cached here, so a name always
    # is the object that its module holds now.
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
