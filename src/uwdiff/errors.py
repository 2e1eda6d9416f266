"""Exception types shared across the toolkit."""


class UwdiffError(Exception):
    """Base class for all toolkit errors."""


class EmptyImageError(UwdiffError, ValueError):
    """Raised for zero-sized images where at least one pixel is required."""


class ShapeMismatchError(UwdiffError, ValueError):
    """Raised when two arrays or images that must share dimensions do not."""


class ParameterError(UwdiffError, ValueError):
    """Raised for invalid numeric parameters (negative depth, bad ranges, ...)."""


class UnsupportedFormatError(UwdiffError, ValueError):
    """Raised for file contents the codecs do not support."""


class TruncatedFileError(UwdiffError, ValueError):
    """Raised when a file ends or corrupts before its declared content does."""


class DimensionLimitError(UwdiffError, ValueError):
    """Raised when a header declares dimensions outside the supported range."""


class ConfigError(UwdiffError, ValueError):
    """Raised for malformed or unknown configuration keys."""


class TrainingDivergedError(UwdiffError, RuntimeError):
    """Raised when a training loss becomes non-finite or explodes."""


class SamplingDivergedError(UwdiffError, RuntimeError):
    """Raised when a reverse diffusion chain produces non-finite samples;
    `image` is the batch position of the first image that did."""

    def __init__(self, message: str, image: int = 0):
        super().__init__(message)
        self.image = image
