"""Exception types shared across the package."""


class LocalicError(Exception):
    """Base class for all validation errors raised by this package."""


class NotAPartialOrder(LocalicError):
    """The input relation has a cycle (fails antisymmetry after closure)."""


class NotALattice(LocalicError):
    """Some pair of elements lacks a unique meet or join, or no bottom/top."""


class NotDistributive(LocalicError):
    """A witness triple violates a /\\ (b \\/ c) = (a /\\ b) \\/ (a /\\ c)."""


class FrameTooLarge(LocalicError):
    """The frame exceeds the cap required by an enumeration-based operation."""


class MixedFrames(LocalicError):
    """An operation received sublocales or elements of distinct frames."""


class InvalidSublocale(LocalicError):
    """A member set fails the sublocale closure conditions."""


class NotMeetPreserving(LocalicError):
    """Some x does not go to the meet of the images of the points above x."""


class AdjointNotFrameHom(LocalicError):
    """Some point goes to a non-point: the left adjoint is no frame hom."""


class InvalidSquare(LocalicError):
    """A commuting-square document violates one of its invariants."""


class InvalidDocument(LocalicError):
    """A JSON artifact is malformed or references unknown names."""
