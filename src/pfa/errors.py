"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class PfaError(Exception):
    """Base class for all errors raised by this package."""


class BehindCameraError(PfaError):
    """A point required to be in front of the camera has depth <= 0."""


class UndefinedInputError(PfaError, ValueError):
    """An operation received input for which its result is undefined."""


class ConfigurationError(PfaError):
    """Inconsistent or invalid configuration of a pipeline component."""


class ArtifactMismatchError(ConfigurationError):
    """Artifacts of one run were built for different inputs (mesh, camera)."""


class MeshHashMismatchError(ArtifactMismatchError):
    """An exemplar set was used with a mesh it was not generated from."""


class DegeneracyError(PfaError):
    """A geometric construction collapsed (e.g. zero-extent projection)."""


class SolverError(PfaError):
    """A pose solver received too few or degenerate correspondences."""


class RobustFailureError(SolverError):
    """RANSAC found no hypothesis with enough inliers.

    ``inliers`` is the best hypothesis's (N,) inlier mask over the input
    correspondences, all False if no sample yielded one.
    """

    def __init__(self, message, inliers):
        super().__init__(message)
        self.inliers = inliers


class MeshError(PfaError):
    """Base class for mesh loading failures."""


class MeshParseError(MeshError):
    """Unparseable mesh file; ``byte_offset`` locates the failure."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class EmptyMeshError(MeshError):
    """Mesh file contained no usable vertices or faces."""


class DegenerateTriangleError(MeshError):
    """Mesh contains triangles with zero area or repeated vertices."""


class FileFormatError(PfaError):
    """Base class for binary container format failures."""


class BadMagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(FileFormatError):
    """File was written with an unsupported format version."""

    def __init__(self, found, expected):
        super().__init__(f"unsupported format version {found}, this build reads version {expected}")
        self.found = found
        self.expected = expected


class TruncationError(FileFormatError):
    """File ended before the advertised payload was complete."""

    def __init__(self, expected_bytes, actual_bytes, context=""):
        msg = f"truncated file: expected {expected_bytes} bytes, got {actual_bytes}"
        if context:
            msg = f"{msg} while reading {context}"
        super().__init__(msg)
        self.expected_bytes = expected_bytes
        self.actual_bytes = actual_bytes


class FlowFileMissingError(PfaError):
    """An externally supplied flow file was not found, or not readable, for a trial."""


# errors local to one trial: ``refine_pose`` returns each as that trial's failed result
TRIAL_FAILURES = (
    SolverError,  # RobustFailureError included
    FlowFileMissingError,
    FileFormatError,  # a corrupt or wrong-size flow file
    DegeneracyError,
    BehindCameraError,
)


@contextmanager
def naming_file(path):
    """Prefix ``path`` to the message of any ``PfaError`` raised inside, keeping its class."""
    try:
        yield
    except PfaError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
