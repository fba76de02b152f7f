"""Exception types shared across the package: one class per kind of fault."""


class MvreconError(Exception):
    """Base class for package-specific errors."""


# --- shapes and autodiff ---

class ShapeMismatch(MvreconError):
    """Operands, model input images, a cube and its grid, a view's image
    files, or an occlusion box and its image do not fit; or a tensor that
    must be a scalar is not."""


class NumericalOverflow(MvreconError):
    """A no-grad model pass or a rollout map produced NaN/Inf, from overflow
    or a zero denominator; a train step raises :class:`DivergedLoss` instead."""


class GraphReleased(MvreconError):
    """backward() reached a node whose graph an earlier backward() freed."""


# --- voxel grids, files and datasets ---

class MalformedFile(MvreconError):
    """A binvox, PGM, manifest or checkpoint file, or a dataset directory,
    does not hold what its format or its manifest says."""


class ConfigMismatch(MvreconError):
    """A valid checkpoint was written for a different model configuration."""


class TooFewObjects(MvreconError):
    """Split ratios would leave an empty split."""


class MissingViews(MvreconError):
    """A request names fewer than one view, or more than an object has."""


# --- configuration and training ---

class BadConfig(MvreconError, ValueError):
    """A config value or line is malformed or out of range."""


class DivergedLoss(MvreconError):
    """Training loss became non-finite."""
