"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ToolkitError):
    """Malformed text input; carries the 0-based offset of the bad token."""

    def __init__(self, message, position=None, line=None):
        self.position = position
        self.line = line
        loc = ""
        if line is not None:
            loc += f" (line {line})"
        if position is not None:
            loc += f" (at position {position})"
        super().__init__(message + loc)


class FieldMismatch(ToolkitError):
    pass


class NotHomogeneous(ToolkitError):
    pass


class ZeroDerivativeDomain(ToolkitError):
    pass


class OutOfRange(ToolkitError, ValueError):
    pass


class TauOutOfRange(ToolkitError):
    """tau lies outside the du Plessis-Wall bounds for the computed mdr."""


class UnknownName(ToolkitError, LookupError):
    pass


class DuplicateLine(ToolkitError):
    pass


class IndexOutOfRange(ToolkitError, IndexError):
    pass


class NotATriplePoint(ToolkitError):
    pass


class LineNotIncident(ToolkitError):
    pass


class DirectionThroughPoint(ToolkitError):
    pass


class NonGenericDeformation(ToolkitError):
    pass


class PairsIdentityViolated(ToolkitError):
    pass


class CatalogCensusMismatch(ToolkitError):
    """A catalog entry's computed lattice census differs from the recorded one."""


class InternalFault(ToolkitError):
    """A broken invariant of the package itself, not of its input."""


class NotASyzygy(InternalFault):
    """A syzygy witness fails a*f_x + b*f_y + c*f_z = 0 in the exact check."""


class NoSyzygyFound(InternalFault):
    """mdr found no syzygy below degree d, where (0, f_z, -f_y) always is one."""
