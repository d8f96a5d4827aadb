"""Exception hierarchy shared across the package.

Every error raised by library code derives from NasflatError so the CLI can
map data problems to a single exit code. Class names name the violated
contract, not the call site.
"""

from __future__ import annotations


class NasflatError(Exception):
    """Base class for all errors raised by this package."""


# --- configs -----------------------------------------------------------------

class BadField(NasflatError, TypeError):
    """A config or split field holds a value of the wrong type or one its
    document rules out. The message starts with the field's JSON pointer
    relative to its object."""


# --- architecture / search space -----------------------------------------

class BadOpIndex(NasflatError):
    """An architecture's ops do not fit its space: the wrong count, or an
    entry that is not an index into the op vocabulary."""


# --- encoding tables -------------------------------------------------------

class DimMismatch(NasflatError):
    pass


class ParseError(NasflatError):
    pass


class NonFiniteValue(NasflatError):
    pass


# --- autodiff ----------------------------------------------------------------

class ShapeMismatch(NasflatError):
    pass


class NonScalarLoss(NasflatError):
    pass


# --- predictor ---------------------------------------------------------------

class UnknownDevice(NasflatError):
    pass


class SpaceMismatch(NasflatError):
    """Architectures are not all from one search space the predictor was built for."""


class BadSupplementaryDim(NasflatError):
    pass


class InsufficientOverlap(NasflatError):
    pass


class BadCheckpoint(NasflatError):
    """A checkpoint file is unreadable, of another version, or disagrees with its meta."""


# --- samplers ----------------------------------------------------------------

class PoolTooSmall(NasflatError):
    pass


class MissingEncoding(NasflatError):
    pass


class DegenerateEncoding(NasflatError):
    pass


class MissingReference(NasflatError):
    pass


# --- device sets ---------------------------------------------------------------

class LengthMismatch(NasflatError):
    pass


class ConstantInput(NasflatError):
    pass


class TooFewDevices(NasflatError):
    pass


class SideTooSmall(NasflatError):
    pass


# --- synthetic devices ----------------------------------------------------------

class NoiseOutOfRange(NasflatError):
    """A noise sigma so large that a noisy latency leaves the positive finite floats."""


# --- pipeline ----------------------------------------------------------------

class TooFewSamples(NasflatError):
    pass


class InsufficientData(NasflatError):
    pass


class BudgetTooSmall(InsufficientData):
    """A run-config budget leaves too little data to train on. The message
    starts with the budget's JSON pointer in the run config."""


class EmptyFeasibleSet(NasflatError):
    pass
