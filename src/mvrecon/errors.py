"""Exception types shared across the package."""


class MvreconError(Exception):
    """Base class for package-specific errors."""


# --- shapes and autodiff ---

class ShapeMismatch(MvreconError):
    """Operands, model input images, a cube and its grid, or a view's image
    files have incompatible extents."""


class DivideByZero(MvreconError):
    """Elementwise division hit a zero denominator."""


class NotScalar(MvreconError):
    """backward() was called on a tensor with more than one element."""


class NumericalOverflow(MvreconError):
    """A forward op produced NaN/Inf from finite inputs."""


class GraphReleased(MvreconError):
    """backward() reached a node whose graph an earlier backward() freed."""


# --- voxel grids and files ---

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


# --- data synthesis ---

class BoxLargerThanImage(MvreconError):
    """Occlusion box exceeds the image extent."""


class TooFewObjects(MvreconError):
    """Split ratios would leave an empty split."""


# --- configuration ---

class BadConfig(MvreconError, ValueError):
    """A config value or line is malformed or out of range."""


# --- training / checkpoints ---

class DivergedLoss(MvreconError):
    """Training loss became non-finite."""


class MissingViews(MvreconError):
    """A request names fewer than one view, or more than an object has."""


class VersionMismatch(MvreconError):
    """Checkpoint format version is not supported."""


class ConfigMismatch(MvreconError):
    """Checkpoint was written for a different model configuration."""


class CorruptRecord(MvreconError):
    """Checkpoint record failed its length or checksum validation."""
