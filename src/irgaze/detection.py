"""Per-frame feature detection: three retro-reflective face markers and the
two bright pupils.

Markers are found globally: equalize, keep the N brightest pixels, threshold
at the dimmest of them, label, and pick the three largest plausibly-sized
blobs.  The equalized frame is never built: its 256-entry remap, read off
the raw histogram, gives the raw level at which to cut the same mask.
The histogram that picks the cut counts the frame's bytes in pairs.
Pupils are found per eye inside the rectangle spanned by the outer marker
and the middle marker; a weighted-average threshold is raised geometrically
toward the maximum until exactly one clean candidate remains.  Each region
is cut at every threshold of that ladder at once and its stack of cuts
opened; the stacks of both eyes are placed in one stack, bottom-left, and
labeled in one pass per frame.

A detected pupil pair must also be vertically consistent: the squared
vertical pupil gap may not exceed a quarter of |(y_mr - y_ml) * (y_mm -
(y_mr + y_ml)/2)|.  That bound is exactly zero for perfectly level markers,
so it is floored at (PAIR_TOLERANCE_FLOOR * outer-marker distance)^2 to keep
level-headed frames from being rejected wholesale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    AmbiguousPupil,
    DegenerateRoi,
    DetectionError,
    MarkerGeometryInvalid,
    NoPupilFound,
    TooFewComponents,
)
from .imaging import (
    Point,
    binarize,
    check_finite,
    check_image,
    connected_components,
    equalize_lut,
    histogram_equalize,
    morphology,
    row_to_y,
    y_to_row,
)

# Marker blobs must fall within this band around the expected area.
MARKER_AREA_BAND = (0.2, 5.0)

# Minimum eye-region side length, in pixels.
MIN_ROI_SIDE = 4

# Pupil search: the expected pupil diameter as a fraction of the per-frame
# outer-marker distance (so it tracks head depth), the opening disk's
# diameter as a fraction of that pupil diameter, the eccentricity from which
# a blob counts as elongated, the weight of above-mean pixels in the
# threshold, and how often an ambiguous threshold is raised before giving up.
PUPIL_DIAMETER_FRACTION = 0.10
OPENING_DIAMETER_FRACTION = 0.10
ECCENTRICITY_MAX = 0.9
HIGH_MEAN_WEIGHT = 2.0
MAX_RETRIES = 5

# Pair-check floor, as a fraction of the outer-marker distance.
PAIR_TOLERANCE_FLOOR = 0.02


@dataclass(frozen=True)
class DetectConfig:
    """The one detection setting that depends on the camera setup.  The
    marker threshold keeps the ``top_n`` = 3x ``expected_marker_area``
    brightest pixels (enough for all three markers)."""

    expected_marker_area: float = math.pi * 7.0 * 7.0

    def __post_init__(self):
        area = check_finite(self.expected_marker_area, "expected_marker_area")
        check_finite(3.0 * area, "expected_marker_area x 3")  # else top_n has no integer
        if self.top_n < 3:
            raise ValueError(f"expected_marker_area must give top_n >= 3, got {area}")

    @property
    def top_n(self) -> int:
        return int(round(3.0 * self.expected_marker_area))

    @property
    def expected_marker_diameter(self) -> float:
        return 2.0 * math.sqrt(self.expected_marker_area / math.pi)


@dataclass(frozen=True)
class MarkerTriple:
    """The three marker centroids; right/left refer to image sides, so
    right.x >= left.x.  ``blobs`` is a read-only bool mask, the shape of the
    frame, of the right and left blobs' pixels when the triple came from
    :func:`detect_markers`, and None otherwise.  Equality compares the
    centroids only."""

    right: Point
    middle: Point
    left: Point
    blobs: np.ndarray | None = field(default=None, compare=False)

    def outer_distance(self) -> float:
        return self.right.distance_to(self.left)


@dataclass(frozen=True)
class PupilDetection:
    """A pupil centroid with the stats of the blob it came from."""

    point: Point
    area: int
    eccentricity: float


@dataclass(frozen=True)
class PupilPair:
    right: PupilDetection | None
    left: PupilDetection | None


@dataclass(frozen=True)
class FaceObservation:
    """Feature coordinates of one frame: marker triple plus whatever pupils
    survived detection and the pair-consistency check (None when fewer than
    two pupils were available to compare)."""

    markers: MarkerTriple
    pupils: PupilPair
    frame_id: str = ""
    pair_consistent: bool | None = None


@dataclass(frozen=True)
class EyeRoi:
    """Eye-region crop plus enough bookkeeping to map detections back to
    full-frame coordinates.  ``image`` is the read-only crop."""

    image: np.ndarray
    col_origin: int
    row_origin: int
    frame_height: int


def marker_mask(img: np.ndarray, top_n: int) -> np.ndarray:
    """The pixels at or above the ``top_n``-th brightest level of the
    equalized frame (all of them when the frame has fewer pixels).

    Equalization never lowers a level's rank, so that level is ``lut[nth]``
    for the ``top_n``-th brightest raw level ``nth``, and ``lut[raw] >=
    lut[nth]`` holds exactly where ``raw`` reaches the lowest level that
    the remap sends to ``lut[nth]`` or above: the raw frame is cut there.

    The histogram counts the bytes as uint16 pairs in 65536 bins, half the
    elements to cast and count, and folds each pair bin onto both its
    bytes' levels; an odd last byte is counted on its own.
    """
    flat = check_image(img).ravel()
    even = flat[: flat.size - flat.size % 2]
    pairs = np.bincount(even.view(np.uint16), minlength=65536).reshape(256, 256)
    counts = pairs.sum(0) + pairs.sum(1) + np.bincount(flat[even.size :], minlength=256)
    lut = equalize_lut(counts)
    n = min(top_n, img.size)
    at_least = np.cumsum(counts[::-1])[::-1]  # pixels at or above each level
    nth = np.flatnonzero(at_least >= n)[-1]
    return binarize(img, int(np.argmax(lut >= lut[nth])))


def detect_markers(img: np.ndarray, cfg: DetectConfig) -> MarkerTriple:
    """Locate the three retro-reflective markers.

    Cuts the frame where its equalized image would hold the top-N
    brightest pixels (see :func:`marker_mask`), labels the binary image,
    keeps blobs whose area is within MARKER_AREA_BAND of the expected
    marker area, and picks the three largest.  Right/left are assigned by
    descending centroid x; the remaining blob must sit below the outer
    pair.
    """
    regions = connected_components(marker_mask(img, cfg.top_n))

    lo = MARKER_AREA_BAND[0] * cfg.expected_marker_area
    hi = MARKER_AREA_BAND[1] * cfg.expected_marker_area
    candidates = ((regions.area >= lo) & (regions.area <= hi)).nonzero()[0]
    if candidates.size < 3:
        raise TooFewComponents(
            f"{candidates.size} plausible marker blobs, need 3 "
            f"(area band [{lo:.0f}, {hi:.0f}] px)"
        )
    # Stable sorts: equal areas, then equal x, keep region order.
    top3 = candidates[np.argsort(-regions.area[candidates], kind="stable")[:3]]
    by_x = top3[np.argsort(regions.x[top3], kind="stable")].tolist()
    left, middle, right = (Point(regions.x[i].item(), regions.y[i].item()) for i in by_x)
    outer_mean_y = 0.5 * (right.y + left.y)
    if middle.y >= outer_mean_y:
        raise MarkerGeometryInvalid(
            f"middle blob at y={middle.y:.1f} is not below the "
            f"outer pair (mean y={outer_mean_y:.1f})"
        )
    separation = right.x - left.x
    if separation < 2.0 * cfg.expected_marker_diameter:
        raise MarkerGeometryInvalid(
            f"outer markers only {separation:.1f} px apart, expected at "
            f"least {2.0 * cfg.expected_marker_diameter:.1f}"
        )
    # The outer blobs' pixels, read off the label image into the frame.
    (row, col), (rows, cols) = regions.origin, regions.labels.shape
    blobs = np.zeros(img.shape, dtype=bool)
    blobs[row : row + rows, col : col + cols] = np.isin(regions.labels, [by_x[0] + 1, by_x[2] + 1])
    blobs.setflags(write=False)
    return MarkerTriple(right=right, middle=middle, left=left, blobs=blobs)


def extract_eye_roi(img: np.ndarray, markers: MarkerTriple, side: str) -> EyeRoi:
    """Crop the rectangle spanned by the chosen outer marker and the middle
    marker as diagonal corners.

    The pixels of ``markers.blobs``, the right/left marker blobs, become the
    mean of the remaining ROI pixels so they cannot skew the pupil
    threshold; middle-marker pixels are retained (the border rule removes
    them later).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    outer = markers.right if side == "right" else markers.left
    height, width = check_image(img).shape
    if markers.blobs is not None and markers.blobs.shape != img.shape:
        raise ValueError(f"markers.blobs has shape {markers.blobs.shape}, "
                         f"the frame {img.shape}")

    col_lo = max(math.floor(min(outer.x, markers.middle.x)), 0)
    col_hi = min(math.ceil(max(outer.x, markers.middle.x)), width - 1)
    y_lo = max(math.floor(min(outer.y, markers.middle.y)), 0)
    y_hi = min(math.ceil(max(outer.y, markers.middle.y)), height - 1)

    if col_hi - col_lo + 1 < MIN_ROI_SIDE or y_hi - y_lo + 1 < MIN_ROI_SIDE:
        raise DegenerateRoi(
            f"{side} eye region is {col_hi - col_lo + 1}x{y_hi - y_lo + 1} px, "
            f"need at least {MIN_ROI_SIDE} on each side"
        )

    row_lo = y_to_row(y_hi, height)
    row_hi = y_to_row(y_lo, height)
    window = np.s_[row_lo : row_hi + 1, col_lo : col_hi + 1]
    crop = img[window].copy()
    mask = markers.blobs[window] if markers.blobs is not None else np.zeros(crop.shape, bool)
    if mask.any():
        # The mean is a float64 sum of uint8 values, which is exact.
        crop[mask] = np.floor(crop[~mask].mean() + 0.5) if (~mask).any() else 0

    crop.setflags(write=False)
    return EyeRoi(image=crop, col_origin=col_lo, row_origin=row_lo, frame_height=height)


def pupil_threshold(roi: np.ndarray, weight: float) -> float:
    """Weighted average intensity: pixels above the plain mean count
    ``weight`` times.  Always >= the plain mean for weight >= 1."""
    vals = check_image(roi).ravel()
    mean = vals.mean()
    w = np.where(vals > mean, weight, 1.0)
    return float((w * vals).sum() / w.sum())


def detect_pupil(rois: Sequence[EyeRoi],
                 pupil_diameter: float) -> list[PupilDetection | DetectionError]:
    """Find the single bright-pupil blob inside each eye region: per region,
    the detection, or the DetectionError that region failed with.

    A region is equalized, thresholded at the weighted average, opened with a
    small disk (diameter OPENING_DIAMETER_FRACTION x ``pupil_diameter``, the
    expected pupil diameter in pixels), stripped of border-touching and
    elongated blobs, and the threshold is moved halfway toward the maximum
    whenever more than one candidate survives.  All MAX_RETRIES + 1 steps are
    cut and opened as one stack per region; the first step left with at most
    one candidate decides.  Every region's opened stack is placed bottom-left
    in one zero stack, which keeps each pixel's Cartesian (x, y), and labeled
    once; border contact is taken against the region's own extent.
    """
    if not rois:
        return []
    steps = MAX_RETRIES + 1
    radius = max(1, round(OPENING_DIAMETER_FRACTION * pupil_diameter)) // 2
    heights, widths = np.array([roi.image.shape for roi in rois]).T
    rows, cols = heights.max(), widths.max()
    stack = np.zeros((len(rois) * steps, rows, cols), dtype=bool)
    ladders = []
    for e, roi in enumerate(rois):
        eq = histogram_equalize(roi.image)
        i_max = float(eq.max())
        thresholds = list(accumulate(range(MAX_RETRIES), lambda t, _: t + 0.5 * (i_max - t),
                                     initial=pupil_threshold(eq, HIGH_MEAN_WEIGHT)))
        ladders.append(thresholds)
        stack[e * steps : (e + 1) * steps, rows - heights[e] :, : widths[e]] = morphology(
            eq >= np.array(thresholds)[:, None, None], "open", radius)
    regions = connected_components(stack)
    roi_of = regions.plane // steps
    min_col, min_row, max_col, max_row = regions.bbox.T
    border = ((min_row == rows - heights[roi_of]) | (max_row == rows - 1) | (min_col == 0)
              | (max_col == widths[roi_of] - 1))
    clean = ~border & (regions.eccentricity < ECCENTRICITY_MAX)
    counts = np.bincount(regions.plane[clean], minlength=stack.shape[0]).reshape(-1, steps)

    found: list[PupilDetection | DetectionError] = []
    for e, (roi, thresholds, n) in enumerate(zip(rois, ladders, counts)):
        attempt = int(np.argmax(n <= 1))  # 0 when every step is ambiguous
        if n[attempt] > 1:
            found.append(AmbiguousPupil(f"{n[-1]} candidates left after {MAX_RETRIES} retries"))
        elif n[attempt] == 0:
            found.append(NoPupilFound(f"no pupil candidate at threshold "
                                      f"{thresholds[attempt]:.1f} (attempt {attempt + 1})"))
        else:
            i = int(np.flatnonzero(clean & (regions.plane == e * steps + attempt))[0])
            col = regions.x[i].item() + roi.col_origin
            roi_row = y_to_row(regions.y[i].item(), roi.image.shape[0])
            y = row_to_y(roi_row + roi.row_origin, roi.frame_height)
            found.append(PupilDetection(point=Point(col, y), area=regions.area[i].item(),
                                        eccentricity=regions.eccentricity[i].item()))
    return found


def validate_pupil_pair(right: PupilDetection, left: PupilDetection,
                        markers: MarkerTriple) -> bool:
    """Vertical-consistency check on a detected pupil pair."""
    y_mr, y_ml, y_mm = markers.right.y, markers.left.y, markers.middle.y
    bound = 0.25 * abs((y_mr - y_ml) * (y_mm - 0.5 * (y_mr + y_ml)))
    floor = (PAIR_TOLERANCE_FLOOR * markers.outer_distance()) ** 2
    gap_sq = (right.point.y - left.point.y) ** 2
    return bool(gap_sq <= max(bound, floor))


def observe_face(img: np.ndarray, cfg: DetectConfig, frame_id: str = "") -> FaceObservation:
    """Run the full per-frame detection: markers, both eye regions, pupils.

    A failed eye just downgrades that pupil to absent; if both pupils are
    present but fail the pair check, the blob with the larger eccentricity
    is dropped.  Raises only when the markers fail or neither eye yields a
    pupil.
    """
    markers = detect_markers(img, cfg)
    pupil_diameter = PUPIL_DIAMETER_FRACTION * markers.outer_distance()

    rois: dict[str, EyeRoi] = {}
    for side in ("right", "left"):
        try:
            rois[side] = extract_eye_roi(img, markers, side)
        except DetectionError:
            pass
    found: dict[str, PupilDetection | None] = dict.fromkeys(("right", "left"))
    for side, pupil in zip(rois, detect_pupil(list(rois.values()), pupil_diameter)):
        if isinstance(pupil, PupilDetection):
            found[side] = pupil

    pair_consistent = None
    if found["right"] is not None and found["left"] is not None:
        pair_consistent = validate_pupil_pair(found["right"], found["left"], markers)
        if not pair_consistent:
            worse = max(("right", "left"), key=lambda s: found[s].eccentricity)
            found[worse] = None

    if found["right"] is None and found["left"] is None:
        raise NoPupilFound(f"neither eye yielded a pupil in frame {frame_id!r}")

    return FaceObservation(
        markers=markers,
        pupils=PupilPair(right=found["right"], left=found["left"]),
        frame_id=frame_id,
        pair_consistent=pair_consistent,
    )
