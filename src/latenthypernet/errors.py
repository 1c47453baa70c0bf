"""Exception types raised by the public API.

Everything derives from LhnError so callers (notably the CLI) can catch one
base class and map it to an exit code.
"""


class LhnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(LhnError):
    """Tensor rank or extent does not match what an operation requires."""


class SchemaError(LhnError):
    """A CSV header is missing or repeats a column it needs, or has no channel column."""


class ParseError(LhnError):
    """A CSV cell could not be parsed; the message names the row."""


class InputError(LhnError):
    """Input data is empty, too small, or otherwise unusable."""


class DegenerateClassError(LhnError):
    """A class ended up with no usable samples."""


class ParameterError(LhnError):
    """An argument is outside its documented range."""


class NumericError(LhnError):
    """A computation produced or received non-finite values."""


class ArchitectureError(LhnError):
    """A network layer would produce a feature map with a non-positive extent."""


class TrainingDivergedError(LhnError):
    """The training loss became non-finite."""


class FormatError(LhnError):
    """A model file is corrupt or structurally invalid."""


class UnsupportedVersionError(FormatError):
    """A model file declares a version this build cannot read."""
