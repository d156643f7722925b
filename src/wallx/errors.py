"""Exception types shared across the package."""

from __future__ import annotations


class WallxError(Exception):
    """Base class for all errors raised by this package."""


class NonExpandable(WallxError):
    """A rational element cannot be expanded at the requested point."""


class NonzeroConstantTerm(WallxError):
    """The series exponential applied to input with a nonzero constant term."""


class PoleAtOne(WallxError):
    """Specialization at kappa = 1 hit a genuine pole."""


class ModeMismatch(WallxError):
    """A K-theoretic operation received cohomological data or vice versa."""


class TrivialWeightAtOne(WallxError):
    """Euler class at z = 1 requested for a class with a trivial-weight root."""


class NotPrimitive(WallxError):
    """A tensor-algebra element is not the expansion of any Lie element."""


class SlopeUndefined(WallxError):
    """A stability table has no slope for a class that the computation needs."""


class SeeSawFailure(WallxError):
    """A stability breaks the weak see-saw property on a class the computation needs."""


class DecompositionOverflow(WallxError):
    """A class admits decompositions with more parts than the configured cap."""


class UnsupportedClass(WallxError):
    """An invariant table is missing a required entry that is not flagged zero."""


class MissingChi(WallxError):
    """No pairing form was supplied where one is required."""


class MissingFr(WallxError):
    """No framing vector was supplied to a framed pair sum."""


class ZeroQuantumInteger(WallxError):
    """Division by the quantum integer of 0 was attempted."""


class ConfigError(WallxError):
    """A CLI configuration document failed validation."""
