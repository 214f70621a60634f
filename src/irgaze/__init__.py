"""irgaze: offline infrared gaze detection.

Detects retro-reflective face markers and bright pupils in IR frames,
estimates the on-screen gaze point by training-based linear interpolation,
and scores grid-resolution accuracy.  A deterministic synthetic scene
generator provides ground truth for end-to-end validation.
"""

from . import errors
from .detection import (
    DetectConfig,
    EyeRoi,
    FaceObservation,
    MarkerTriple,
    PupilDetection,
    PupilPair,
    detect_markers,
    detect_pupil,
    extract_eye_roi,
    observe_face,
    pupil_threshold,
    validate_pupil_pair,
)
from .gaze import (
    GazeEstimate,
    GridSpec,
    ScreenGeometry,
    TrainingSet,
    accuracy_table,
    build_training_set,
    congruency,
    estimate_gaze,
    estimate_gaze_single_eye,
    score_accuracy,
    select_closest,
)
from .imaging import (
    Point,
    Region,
    binarize,
    check_image,
    connected_components,
    decode_pgm,
    encode_pgm,
    histogram_equalize,
    morphology,
)
from .synth import (
    DatasetSpec,
    FaceLayout,
    FeaturePoints,
    GroundTruth,
    HeadPose,
    RenderConfig,
    default_poses,
    feature_model,
    generate_dataset,
    render_scene,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Point", "Region",
    "binarize", "check_image", "connected_components", "decode_pgm", "encode_pgm",
    "histogram_equalize", "morphology",
    "DetectConfig", "EyeRoi", "FaceObservation", "MarkerTriple",
    "PupilDetection", "PupilPair",
    "detect_markers", "detect_pupil", "extract_eye_roi", "observe_face",
    "pupil_threshold", "validate_pupil_pair",
    "GazeEstimate", "GridSpec", "ScreenGeometry", "TrainingSet",
    "accuracy_table", "build_training_set", "congruency", "estimate_gaze",
    "estimate_gaze_single_eye", "score_accuracy",
    "select_closest",
    "DatasetSpec", "FaceLayout", "FeaturePoints", "GroundTruth", "HeadPose",
    "RenderConfig",
    "default_poses", "feature_model", "generate_dataset", "render_scene",
]
