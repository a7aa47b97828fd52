"""Finite locales: frames, sublocales, remoteness, and a theorem suite."""

from .errors import (
    AdjointNotFrameHom, FrameTooLarge, InvalidDocument, InvalidSquare,
    InvalidSublocale, LocalicError, MixedFrames, NotALattice,
    NotAPartialOrder, NotDistributive, NotMeetPreserving,
)
from .frame import (
    ENUMERATION_CAP, MAX_ELEMENTS, FiniteFrame, boolean_frame, build_frame,
    chain_frame, frame_from_leq,
)
from .sublocale import (
    Sublocale, booleanization, closed_subl, enumerate_sublocales,
    is_dense_in_itself, is_nowhere_dense, is_rare, is_sublocale, nd_join,
    nucleus_map, open_subl, subl_join, subl_meet, sublocales_below,
    supplement, void_subl, whole_subl,
)
from .remoteness import (
    RemoteContext, bl_context, dense_context, whole_context,
)
from .locmap import LocalicMap, build_map, compose, identity_map
from .diagrams import (
    DenseSquare, SquareChain, Triangle, is_f_remote_preserving,
    is_f_star_remote_preserving, takes_remainder,
)
from .generators import (
    GenSpec, gen_chains, gen_dense_sublocales, gen_frames, gen_maps,
    gen_squares, gen_triangles, inclusion_map,
)
from .registry import REGISTRY, TheoremCheck, checks_in_scope
from .result import CheckResult

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
