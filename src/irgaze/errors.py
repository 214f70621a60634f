"""Exception taxonomy for the whole toolkit.

Every failure mode a caller might want to branch on gets its own class.
Per-frame pipeline code catches the mid-level bases (``PgmError``,
``DetectionError``) and records the concrete class name in its output.
"""


class IrGazeError(Exception):
    """Base class for all errors raised by this package."""


class InputFileError(IrGazeError):
    """A stage's input file (config, manifest, observations, training set,
    estimates) cannot be read or parsed or lacks a field; the message names
    the file and the line or field."""


class ConfigError(IrGazeError):
    """Bad run configuration: a config value, or a flag that sets a config key."""


# --- PGM codec ---------------------------------------------------------------

class PgmError(IrGazeError):
    """Malformed or unsupported PGM stream."""


class BadMagic(PgmError):
    """Input does not start with the binary-PGM magic 'P5'."""


class UnsupportedMaxval(PgmError):
    """PGM maxval is not 255 (only 8-bit samples are supported)."""


class TruncatedData(PgmError):
    """Stream ends before width x height samples (or mid-header)."""


# --- feature detection -------------------------------------------------------

class DetectionError(IrGazeError):
    """Base for per-frame marker/pupil detection failures."""


class TooFewComponents(DetectionError):
    """Fewer than three plausible marker blobs after thresholding."""


class MarkerGeometryInvalid(DetectionError):
    """Three blobs found but their layout is not a valid marker triple."""


class DegenerateRoi(DetectionError):
    """Eye region rectangle thinner than the minimum in some dimension."""


class NoPupilFound(DetectionError):
    """No pupil candidate survived filtering in the eye region."""


class AmbiguousPupil(DetectionError):
    """More than one pupil candidate remained after all threshold retries."""


# --- gaze estimation ---------------------------------------------------------

class TrainingError(IrGazeError):
    """Base for training-set construction failures."""


class EmptyCorner(TrainingError):
    """A screen corner ended up with zero training vectors."""

    def __init__(self, corner: int):
        self.corner = corner
        super().__init__(f"no training vectors for corner {corner}")


class IncompleteObservation(TrainingError):
    """A training observation is missing a pupil."""


class DegenerateTriangle(IrGazeError):
    """Marker triangle has an edge under 1e-9; congruency is undefined."""


class DegenerateTraining(IrGazeError):
    """Interpolation denominator below tolerance for the selected vectors."""


class NoUsableEye(IrGazeError):
    """Neither eye produced a gaze estimate."""


class EmptyInput(IrGazeError):
    """An aggregate operation was handed an empty collection."""


# --- synthetic scenes --------------------------------------------------------

class FeatureOutOfFrame(IrGazeError):
    """A synthetic feature would land too close to (or beyond) the image edge."""
