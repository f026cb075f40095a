"""Exception hierarchy shared by the hartogs modules."""

from __future__ import annotations


class HartogsError(Exception):
    """Base class for all library-specific errors."""


# --- polynomial tuple validation -------------------------------------------

class MalformedInput(HartogsError):
    """Input document violates the JSON schema."""


class NegativeCoefficient(HartogsError):
    """A polynomial coefficient is negative."""


class MissingLinearTerm(HartogsError):
    """The linear self-coefficient of some component is absent or zero."""


class ConstantTerm(HartogsError):
    """Some component polynomial has a nonzero constant term."""


# --- coefficient tables -----------------------------------------------------

class WindowTooSmall(HartogsError):
    """A lattice point outside the computed window was requested."""


# --- geometry ---------------------------------------------------------------

class ZeroCoordinate(HartogsError):
    """A coordinate that must be nonzero vanished."""


# --- kernels ----------------------------------------------------------------

class OutsideDomain(HartogsError):
    """Evaluation point lies outside the triangle domain."""


class InvalidMultiplicity(HartogsError):
    """Multiplicity vector does not satisfy the operation's requirement."""


# --- truncated operators ----------------------------------------------------

class EmptyWindow(HartogsError):
    """Window bounds do not describe a nonempty lattice box."""


class NotAdmissible(HartogsError):
    """Operation requires an admissible polynomial tuple."""


class WrongDimension(HartogsError):
    """Operation requires a specific number of variables."""


# --- matrix tuples ----------------------------------------------------------

class NonCommuting(HartogsError):
    """Matrix tuple fails the commutation tolerance."""


class NotHereditaryPolynomial(HartogsError):
    """Reciprocal kernel does not clear to a polynomial in z and conj(w)."""


class PointOutsideDomain(HartogsError):
    """Interpolation node lies outside the Hartogs triangle."""


class DuplicatePoints(HartogsError):
    """Interpolation nodes are not pairwise distinct."""


# --- reports ----------------------------------------------------------------

class ResultTooLarge(HartogsError):
    """An exact value has more digits than Python converts to a string."""


# --- CLI --------------------------------------------------------------------

class UnknownCommand(HartogsError):
    """Config names a command the dispatcher does not know."""


class InvalidConfig(HartogsError):
    """Run configuration is missing fields or has bad values."""
