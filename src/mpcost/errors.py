"""Exception hierarchy for mpcost.

Circuit construction, profile validation, cost evaluation and the
optimizers each raise narrowly typed errors so callers (and the CLI)
can map failures to stable exit codes.
"""


class MpcostError(Exception):
    """Base class for all mpcost errors."""


class InvalidArgument(MpcostError, ValueError):
    """A library argument is outside its domain, such as a solver cap of 0
    or a generator shape below 1; so it is also a ``ValueError``."""


# --- circuit construction / evaluation ---------------------------------

class CircuitError(MpcostError):
    """Invalid circuit structure or evaluation request."""


class ArityMismatch(CircuitError):
    """A node's input count does not match its operation's arity."""


class DanglingInput(CircuitError):
    """A node references an unknown id or a node that appears later."""


class OutAsInput(CircuitError):
    """An output node is used as an input to another node."""


class InvalidParty(CircuitError):
    """A party label is present on a non-input node or is not a known party."""


class MissingInput(CircuitError):
    """Evaluation was requested without a value for some input node."""


class ValueOutOfRange(CircuitError):
    """An evaluation input does not fit in the circuit's bit width."""


class UnknownNode(MpcostError):
    """A node id does not exist in the circuit (or is of the wrong kind)."""


# --- file formats -------------------------------------------------------

class ParseError(MpcostError):
    """A circuit, profile, measurement or price file is malformed."""


# --- cost profiles ------------------------------------------------------

class ProfileError(MpcostError):
    """Invalid cost profile."""


class NegativeCost(ProfileError):
    """A profile contains a negative cost entry."""


class MissingConversion(ProfileError):
    """A profile lacks a conversion entry for an ordered scheme pair."""


class NoUniversalScheme(ProfileError):
    """No scheme in the profile supports every operation."""


class InfeasibleAssignment(MpcostError):
    """An assignment maps a node to a scheme that does not support its op
    (or leaves a node unassigned)."""


class DuplicateMeasurement(MpcostError):
    """Two raw measurements describe the same operation or conversion."""


class NegativeInput(MpcostError):
    """A raw measurement or price is negative."""


# --- optimizers / generators ---------------------------------------------

class UnsupportedScheme(MpcostError):
    """A requested scheme does not support every operation it must cover."""


def _log10_floor(n: int) -> int:
    """``floor(log10(n))`` for a positive int, without ``str(n)`` (which
    refuses ints longer than 4300 digits)."""
    k = int((n.bit_length() - 1) * 0.30102999566398120)  # log10(2)
    while 10 ** (k + 1) <= n:
        k += 1
    while 10**k > n:
        k -= 1
    return k


def _shown(x) -> str:
    """``repr(x)``, but ``about 10^k`` for an int of 16 digits or more."""
    if isinstance(x, int) and abs(x) >= 10**15:
        return f"about {'-' if x < 0 else ''}10^{_log10_floor(abs(x))}"
    return repr(x)


class SearchSpaceTooLarge(MpcostError):
    """The exhaustive solver's search space exceeds the configured cap."""

    def __init__(self, space: int, max_space: int):
        super().__init__(f"search space has {_shown(space)} assignments, "
                         f"cap is {_shown(max_space)}")
        self.space = space
        self.max_space = max_space


class NonBinaryOp(MpcostError):
    """Chain generation requires a two-input operation."""
