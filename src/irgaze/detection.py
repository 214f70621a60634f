"""Per-frame feature detection: three retro-reflective face markers and the
two bright pupils.

Markers are found globally: equalize, keep the N brightest pixels, threshold
at the dimmest of them, label, and pick the three largest plausibly-sized
blobs.  The equalized frame is never built: its 256-entry remap, read off
the raw histogram, gives the raw level at which to cut the same mask.
Pupils are found per eye inside the rectangle spanned by the outer marker
and the middle marker; a weighted-average threshold is raised geometrically
toward the maximum until exactly one clean candidate remains.

A detected pupil pair must also be vertically consistent: the squared
vertical pupil gap may not exceed a quarter of |(y_mr - y_ml) * (y_mm -
(y_mr + y_ml)/2)|.  That bound is exactly zero for perfectly level markers,
so it is floored at (pair_tolerance_floor * outer-marker distance)^2 to keep
level-headed frames from being rejected wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousPupil,
    DegenerateRoi,
    DetectionError,
    MarkerGeometryInvalid,
    MissingPupil,
    NoPupilFound,
    TooFewComponents,
)
from .imaging import (
    Point,
    Region,
    binarize,
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


@dataclass(frozen=True)
class DetectConfig:
    """Detection tuning knobs.

    The marker threshold keeps the ``top_n`` = 3x ``expected_marker_area``
    brightest pixels (enough for all three markers).  The expected pupil
    diameter is ``pupil_diameter_fraction`` of the detected outer-marker
    distance, computed per frame so it tracks head depth; it sizes the
    opening that removes bright specks from each eye region.
    """

    expected_marker_area: float = math.pi * 7.0 * 7.0
    pupil_diameter_fraction: float = 0.10
    eccentricity_max: float = 0.9
    high_mean_weight: float = 2.0
    max_retries: int = 5
    pair_tolerance_floor: float = 0.02

    def __post_init__(self):
        if self.top_n < 3:
            raise ValueError(
                f"expected_marker_area must give top_n = round(3 x area) >= 3, "
                f"got {self.expected_marker_area}"
            )
        if not 0.0 < self.eccentricity_max <= 1.0:
            raise ValueError("eccentricity_max must lie in (0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def top_n(self) -> int:
        return int(round(3.0 * self.expected_marker_area))

    @property
    def expected_marker_diameter(self) -> float:
        return 2.0 * math.sqrt(self.expected_marker_area / math.pi)


@dataclass(frozen=True)
class MarkerTriple:
    """The three marker centroids; right/left refer to image sides, so
    right.x >= left.x.  ``regions`` keeps the detected blobs (same order)
    when the triple came from :func:`detect_markers`; hand-built triples
    may omit them."""

    right: Point
    middle: Point
    left: Point
    regions: tuple[Region, Region, Region] | None = None

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
    """
    counts = np.bincount(check_image(img).ravel(), minlength=256)
    lut = equalize_lut(counts)
    n = min(top_n, img.size)
    at_least = np.cumsum(counts[::-1])[::-1]  # pixels at or above each level
    nth = np.flatnonzero(at_least >= n)[-1]
    return binarize(img, int(np.argmax(lut >= lut[nth])))


def detect_markers(img: np.ndarray, cfg: DetectConfig) -> MarkerTriple:
    """Locate the three retro-reflective markers.

    Equalizes, takes the lowest intensity among the top-N brightest pixels
    as the threshold (see :func:`marker_mask`), labels the binary image,
    keeps blobs whose area is within MARKER_AREA_BAND of the expected
    marker area, and picks the three largest.  Right/left are assigned by
    descending centroid x; the remaining blob must sit below the outer
    pair.
    """
    regions = connected_components(marker_mask(img, cfg.top_n))

    lo = MARKER_AREA_BAND[0] * cfg.expected_marker_area
    hi = MARKER_AREA_BAND[1] * cfg.expected_marker_area
    candidates = [r for r in regions if lo <= r.area <= hi]
    if len(candidates) < 3:
        raise TooFewComponents(
            f"{len(candidates)} plausible marker blobs, need 3 "
            f"(area band [{lo:.0f}, {hi:.0f}] px)"
        )
    top3 = sorted(candidates, key=lambda r: r.area, reverse=True)[:3]

    by_x = sorted(top3, key=lambda r: r.centroid.x)
    left_r, middle_r, right_r = by_x[0], by_x[1], by_x[2]
    outer_mean_y = 0.5 * (right_r.centroid.y + left_r.centroid.y)
    if middle_r.centroid.y >= outer_mean_y:
        raise MarkerGeometryInvalid(
            f"middle blob at y={middle_r.centroid.y:.1f} is not below the "
            f"outer pair (mean y={outer_mean_y:.1f})"
        )
    separation = right_r.centroid.x - left_r.centroid.x
    if separation < 2.0 * cfg.expected_marker_diameter:
        raise MarkerGeometryInvalid(
            f"outer markers only {separation:.1f} px apart, expected at "
            f"least {2.0 * cfg.expected_marker_diameter:.1f}"
        )
    return MarkerTriple(
        right=right_r.centroid,
        middle=middle_r.centroid,
        left=left_r.centroid,
        regions=(right_r, middle_r, left_r),
    )


def extract_eye_roi(img: np.ndarray, markers: MarkerTriple, side: str) -> EyeRoi:
    """Crop the rectangle spanned by the chosen outer marker and the middle
    marker as diagonal corners.

    Pixels belonging to the right/left marker blobs are replaced with the
    mean of the remaining ROI pixels so they cannot skew the pupil
    threshold; middle-marker pixels are retained (the border rule removes
    them later).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    outer = markers.right if side == "right" else markers.left
    height, width = check_image(img).shape

    col_lo = int(math.floor(min(outer.x, markers.middle.x)))
    col_hi = int(math.ceil(max(outer.x, markers.middle.x)))
    y_lo = int(math.floor(min(outer.y, markers.middle.y)))
    y_hi = int(math.ceil(max(outer.y, markers.middle.y)))
    col_lo = max(col_lo, 0)
    y_lo = max(y_lo, 0)
    col_hi = min(col_hi, width - 1)
    y_hi = min(y_hi, height - 1)

    if col_hi - col_lo + 1 < MIN_ROI_SIDE or y_hi - y_lo + 1 < MIN_ROI_SIDE:
        raise DegenerateRoi(
            f"{side} eye region is {col_hi - col_lo + 1}x{y_hi - y_lo + 1} px, "
            f"need at least {MIN_ROI_SIDE} on each side"
        )

    row_lo = y_to_row(y_hi, height)
    row_hi = y_to_row(y_lo, height)
    crop = img[row_lo : row_hi + 1, col_lo : col_hi + 1].astype(np.float64)

    mask = np.zeros(crop.shape, dtype=bool)
    if markers.regions is not None:
        for blob in (markers.regions[0], markers.regions[2]):  # right, left
            cols = blob.pixels[:, 0]
            rows = blob.pixels[:, 1]
            inside = (
                (cols >= col_lo) & (cols <= col_hi)
                & (rows >= row_lo) & (rows <= row_hi)
            )
            mask[rows[inside] - row_lo, cols[inside] - col_lo] = True
    if mask.any():
        fill = crop[~mask].mean() if (~mask).any() else 0.0
        crop[mask] = fill

    image = np.floor(crop + 0.5).astype(np.uint8)
    image.setflags(write=False)
    return EyeRoi(image=image, col_origin=col_lo, row_origin=row_lo, frame_height=height)


def pupil_threshold(roi: np.ndarray, weight: float) -> float:
    """Weighted average intensity: pixels above the plain mean count
    ``weight`` times.  Always >= the plain mean for weight >= 1."""
    vals = check_image(roi).astype(np.float64).ravel()
    mean = vals.mean()
    w = np.where(vals > mean, weight, 1.0)
    return float((w * vals).sum() / w.sum())


def _pupil_candidates(
    mask: np.ndarray, cfg: DetectConfig, cleanup_radius: int
) -> list[Region]:
    cleaned = morphology(mask, "open", cleanup_radius)
    return [
        r
        for r in connected_components(cleaned)
        if not r.touches_border and r.eccentricity < cfg.eccentricity_max
    ]


def detect_pupil(roi: EyeRoi, cfg: DetectConfig, pupil_diameter: float) -> PupilDetection:
    """Find the single bright-pupil blob inside an eye region.

    The region is equalized, thresholded at the weighted average, opened
    with a small disk (element diameter = 10% of ``pupil_diameter``, the
    expected pupil diameter in pixels), stripped of border-touching and
    elongated blobs, and the threshold is moved halfway toward the maximum
    whenever more than one candidate survives.
    """
    eq = histogram_equalize(roi.image)
    element_diameter = max(1, round(0.10 * pupil_diameter))
    cleanup_radius = element_diameter // 2

    threshold = pupil_threshold(eq, cfg.high_mean_weight)
    i_max = float(eq.max())

    for attempt in range(cfg.max_retries + 1):
        candidates = _pupil_candidates(binarize(eq, threshold), cfg, cleanup_radius)
        if len(candidates) == 1:
            blob = candidates[0]
            col = blob.centroid.x + roi.col_origin
            roi_row = y_to_row(blob.centroid.y, roi.image.shape[0])
            y = row_to_y(roi_row + roi.row_origin, roi.frame_height)
            return PupilDetection(
                point=Point(col, y), area=blob.area, eccentricity=blob.eccentricity
            )
        if not candidates:
            raise NoPupilFound(
                f"no pupil candidate at threshold {threshold:.1f} "
                f"(attempt {attempt + 1})"
            )
        if attempt == cfg.max_retries:
            raise AmbiguousPupil(
                f"{len(candidates)} candidates left after {cfg.max_retries} retries"
            )
        threshold = threshold + 0.5 * (i_max - threshold)
    raise AssertionError("unreachable")


def validate_pupil_pair(
    pupils: PupilPair, markers: MarkerTriple, cfg: DetectConfig
) -> bool:
    """Vertical-consistency check on a detected pupil pair."""
    if pupils.right is None or pupils.left is None:
        raise MissingPupil("both pupils are required for the pair check")
    y_mr, y_ml, y_mm = markers.right.y, markers.left.y, markers.middle.y
    bound = 0.25 * abs((y_mr - y_ml) * (y_mm - 0.5 * (y_mr + y_ml)))
    floor = (cfg.pair_tolerance_floor * markers.outer_distance()) ** 2
    gap_sq = (pupils.right.point.y - pupils.left.point.y) ** 2
    return bool(gap_sq <= max(bound, floor))


def observe_face(img: np.ndarray, cfg: DetectConfig, frame_id: str = "") -> FaceObservation:
    """Run the full per-frame detection: markers, both eye regions, pupils.

    A failed eye just downgrades that pupil to absent; if both pupils are
    present but fail the pair check, the blob with the larger eccentricity
    is dropped.  Raises only when the markers fail or neither eye yields a
    pupil.
    """
    markers = detect_markers(img, cfg)
    pupil_diameter = cfg.pupil_diameter_fraction * markers.outer_distance()

    found: dict[str, PupilDetection | None] = {}
    for side in ("right", "left"):
        try:
            roi = extract_eye_roi(img, markers, side)
            found[side] = detect_pupil(roi, cfg, pupil_diameter)
        except DetectionError:
            found[side] = None

    pair_consistent = None
    if found["right"] is not None and found["left"] is not None:
        pair = PupilPair(right=found["right"], left=found["left"])
        pair_consistent = validate_pupil_pair(pair, markers, cfg)
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
