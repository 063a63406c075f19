"""Exception types shared across the package."""


class TunnelFillError(Exception):
    """Base class for all domain errors raised by this package."""


class ConstructionError(TunnelFillError):
    """Invalid input to a complex or sequence constructor."""


class UnknownGeneratorError(TunnelFillError):
    """A generator id or name does not belong to the complex."""


class InvalidLiftError(TunnelFillError):
    """Attempted to lift to a ring level below the current one."""


class InternalError(TunnelFillError):
    """An internal invariant failed; a bug, not bad input. The causes include
    a liftable sequence whose extension fails to lift."""


class SequenceParseError(TunnelFillError):
    """Malformed sign-sequence text."""


class DocumentError(TunnelFillError):
    """Malformed or unreadable complex document."""


class RenderError(TunnelFillError):
    """The complex cannot be laid out on the lattice."""


class SearchBudgetError(TunnelFillError):
    """A verifier used up its budget without a verdict: the isomorphism
    search its pairings, a Smith form its elimination degree, or d^2 its path budget."""
