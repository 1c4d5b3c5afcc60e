"""Exception types raised across the package.

Every error the public API can raise is defined here so callers (and the
command line driver) can report failures uniformly.
"""


class DrsynthError(Exception):
    """Base class for all package errors."""


class IoError(DrsynthError):
    """Filesystem-level failure while reading or writing an artifact."""


class FormatError(DrsynthError):
    """A file does not follow the expected binary or textual layout."""


class TruncatedFile(FormatError):
    """A file ended before the declared payload was complete."""


class UnsupportedDatatype(FormatError):
    """An on-disk datatype outside the supported set."""


class UnsupportedShape(FormatError):
    """An on-disk array shape outside the supported set."""


class GeometryError(DrsynthError):
    """Two volumes that must share a grid (dims, spacing, affine) do not."""


class UnknownLabel(DrsynthError):
    """A label value outside the declared scheme."""


class EmptyMask(DrsynthError):
    """An operation received a mask with no voxels."""


class TooFewVoxels(DrsynthError):
    """A clustering request with more components than voxels."""


class MissingParams(DrsynthError):
    """A rendering request lacking parameters for some class id."""


class InvalidGamma(DrsynthError):
    """A non-positive gamma exponent."""


class InvalidRange(DrsynthError):
    """A sampling interval whose bounds are inverted or out of domain."""


class InvalidRelaxometry(DrsynthError):
    """Relaxation times or proton density outside the physical domain."""


class DuplicateTensor(FormatError):
    """A checkpoint containing the same tensor name twice."""


class IncompatibleCheckpoints(DrsynthError):
    """Two checkpoints whose tensor names, order, or shapes disagree."""


class InvalidAlpha(DrsynthError):
    """An interpolation coefficient outside [0, 1]."""


class NonFiniteIntensity(DrsynthError):
    """An intensity volume holding NaN or infinite voxels."""


class EmptySample(DrsynthError):
    """A generation request over a label map with no foreground voxels."""


class ConfigError(DrsynthError):
    """A configuration file entry that cannot be parsed or validated."""


class InputChanged(DrsynthError):
    """A replay input whose content no longer matches its recorded SHA-256."""
