"""Exception hierarchy. Every error raised on purpose derives from RqvqaError
so the CLI can map failures to a one-line machine-parsable message."""


class RqvqaError(Exception):
    """Base class for all structured errors in this package."""


class VideoFormatError(RqvqaError):
    """Raw video directory is missing, inconsistent, or malformed."""


class GeometryError(RqvqaError):
    """Frame geometry violates an operation's precondition."""


class SidecarError(RqvqaError):
    """Base class for feature sidecar file problems."""


class SidecarMagicError(SidecarError):
    """File does not start with the sidecar magic bytes."""


class SidecarVersionError(SidecarError):
    """Sidecar version is not supported."""


class SidecarTruncatedError(SidecarError):
    """Sidecar length disagrees with the header: short, or bytes after it."""


class SidecarShapeError(SidecarError):
    """Header states no valid source, or disagrees with the declared one."""


class SidecarChecksumError(SidecarError):
    """Payload checksum does not match the stored CRC32."""


class SidecarNameError(SidecarError):
    """Stored source name differs from the declared source."""


class FeatureError(RqvqaError):
    """Feature bundle assembly or validation failure."""


class TrainingError(RqvqaError):
    """Invalid training inputs or non-finite state during optimization."""


class MetricError(RqvqaError):
    """Degenerate input to a correlation or curve-fitting routine."""


class ManifestError(RqvqaError):
    """Dataset manifest is malformed or a split cannot be formed."""


class CheckpointError(RqvqaError):
    """Model checkpoint is malformed or inconsistent with the registry."""


class ConfigError(RqvqaError):
    """Run configuration file or override cannot be parsed."""
