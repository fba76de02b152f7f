"""Exception types shared across the package."""


class MvreconError(Exception):
    """Base class for package-specific errors."""


# --- tensor / autodiff ---

class ShapeMismatch(MvreconError):
    """Operands have incompatible extents."""


class DivideByZero(MvreconError):
    """Elementwise division hit a zero denominator."""


class NotScalar(MvreconError):
    """backward() was called on a tensor with more than one element."""


class NumericalOverflow(MvreconError):
    """A forward op produced NaN/Inf from finite inputs."""


# --- voxel grids and files ---

class NonDivisibleCube(MvreconError):
    """Cube side does not divide the grid side."""


class EmptyVolume(MvreconError):
    """A metric needed a non-empty occupied point set."""


class MalformedHeader(MvreconError):
    """Voxel file header does not match the expected format."""


class TruncatedRLE(MvreconError):
    """Run-length payload ended early or overran the declared volume."""


class BadRunValue(MvreconError):
    """A binvox run carries a value other than 0 or 1."""


class DimMismatch(MvreconError):
    """Declared voxel dimensions are unusable (non-cubic or wrong count)."""


# --- model ---

class OddWidth(MvreconError):
    """Token width must be even to halve it."""


class TooManyViews(MvreconError):
    """More views than the configured maximum."""


class EmptyViewList(MvreconError):
    """At least one view is required."""


class WidthMismatch(MvreconError):
    """Feature width does not match the consuming module."""


# --- data synthesis ---

class BoxLargerThanImage(MvreconError):
    """Occlusion box exceeds the image extent."""


class TooFewObjects(MvreconError):
    """Split ratios would leave an empty split."""


# --- training / checkpoints ---

class DivergedLoss(MvreconError):
    """Training loss became non-finite."""


class MissingViews(MvreconError):
    """Evaluation asked for more views than the dataset provides."""


class VersionMismatch(MvreconError):
    """Checkpoint format version is not supported."""


class ConfigHashMismatch(MvreconError):
    """Checkpoint was written for a different model configuration."""


class CorruptRecord(MvreconError):
    """Checkpoint record failed its length or checksum validation."""
