"""Exception types shared across the toolkit, and the text-file reader
whose failures they name."""


class PolarisError(Exception):
    """Base class for all toolkit errors."""


class AlphabetConflict(PolarisError):
    """A shared event id carries conflicting controllability flags."""


class AlphabetMismatch(PolarisError):
    """Two automata that must share an alphabet do not."""


class CoverageError(PolarisError):
    """The two local event sets do not cover the automaton alphabet, or
    name events outside it."""


class NondeterministicInput(PolarisError):
    """An operation that requires a deterministic automaton got an NFA."""


class NotControllable(PolarisError):
    """The specification disables an uncontrollable plant event."""


class IndexOutOfRange(PolarisError):
    """A region index lies outside the partition grid."""


class OutOfHorizon(PolarisError):
    """A point lies outside the control-horizon disk."""


class OutsideRegion(PolarisError):
    """A point lies outside the region a controller was designed for."""


class Infeasible(PolarisError):
    """Controller sign constraints conflict with the velocity bound."""


class HorizonViolation(PolarisError):
    """A follower left its control-horizon disk during simulation.

    Raised from ``sim.run_scenario``, it carries ``world`` (the last world
    state reached) and ``recent`` (the last event records).
    """

    world = None
    recent = ()


class SupervisorBlocked(PolarisError):
    """No controllable event is enabled and none is pending.

    Raised from ``sim.run_scenario``, it carries ``world`` and ``recent``
    like :class:`HorizonViolation`.
    """

    world = None
    recent = ()


class InvalidToken(PolarisError):
    """A token in the automaton exchange format is malformed."""


class _FileError(PolarisError):
    """An error in a file's contents.  The message starts with the file's
    path and the line, ``path:line: ``, as far as they are known."""

    def __init__(self, message, path=None, line=None):
        if path is None:
            loc = "" if line is None else f"line {line}"
        else:
            loc = str(path) if line is None else f"{path}:{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class ParseError(_FileError):
    """A config or automaton file could not be parsed."""


def _read_text(path) -> str:
    """The UTF-8 text of a file; a file that cannot be read or decoded
    raises ``ParseError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), path) from exc


class ValidationError(_FileError):
    """A parsed config violates an invariant."""
