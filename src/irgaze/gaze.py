"""Training-based gaze estimation.

The screen is modeled by its extents alone: the user calibrates by gazing
at its four corners, and accuracy is scored on n-by-n grids of cells over it.

Calibration frames are grouped by the screen corner being gazed at, each
corner's training vectors held as one (n, 10) array of marker and pupil
coordinates.  For an input frame the closest head orientation per corner
is selected (triangle congruency of the marker triples, or summed marker
distance), scored over the whole corner at once.  The chosen vectors'
pupils are translated by the input's middle marker minus the vector's, and
the gaze point is linearly interpolated from the pupil position relative to
the four corner pupil positions, over the screen's extents Lx and Ly:

    x_G = W  * (alpha * Lx) + (1 - W)  * (beta  * Lx)
    y_G = W' * (gamma * Ly) + (1 - W') * (delta * Ly)

alpha/beta/gamma/delta are per-edge interpolation coefficients from the
pupil coordinates (left unclamped, so off-screen gaze extrapolates); W and
W' blend the two parallel edges and are clamped to [0, 1].  An eye's
estimate is its point beside these six weights; an eye with a near-zero
denominator or a point that is not finite is dropped, and the frame's point
is the mean of the eyes that remain.

Two W' conventions are implemented.  The raw formula grows left-to-right,
which would let the far edge dominate; the default "corrected" variant
flips it so the left-edge interpolation is weighted by proximity to the
left edge, mirroring how W favors the top edge when gazing up.  "literal"
keeps the unflipped weight for comparison runs.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .detection import FaceObservation, MarkerTriple
from .errors import (
    DegenerateTraining,
    DegenerateTriangle,
    EmptyCorner,
    EmptyInput,
    IncompleteObservation,
    NoUsableEye,
)
from .imaging import Point, check_finite, check_type

CORNERS = (1, 2, 3, 4)  # 1 up-left, 2 up-right, 3 down-left, 4 down-right
METRICS = ("congruency", "euclidean")
WEIGHTINGS = ("corrected", "literal")
GRID_NS = range(2, 11)  # grid resolutions of every accuracy table

# Ten coordinate field names, in serialization order: markers right, middle,
# left, then pupils right, left.
COORD_KEYS = (
    "x_mr", "y_mr", "x_mm", "y_mm", "x_ml", "y_ml",
    "x_pr", "y_pr", "x_pl", "y_pl",
)
MARKER_COLS = slice(0, 6)
MIDDLE_COLS = slice(2, 4)
PUPIL_COLS = slice(6, 10)  # right pupil x, y, then left pupil x, y

_EDGE_EPS = 1e-9
_DENOM_EPS = 1e-6


@dataclass(frozen=True)
class ScreenGeometry:
    """The screen's extents in centimeters, origin at its down-left corner
    with y pointing up.  The four training gaze targets are the screen's
    corners, indexed 1=up-left, 2=up-right, 3=down-left, 4=down-right; an
    n-by-n evaluation grid splits it into cells labeled 1-based, row-major
    from the top-left (cell 1 is up-left)."""

    width_cm: float = 60.0
    height_cm: float = 60.0

    def __post_init__(self):
        check_finite([self.width_cm, self.height_cm], "screen extents")
        if self.width_cm <= 0 or self.height_cm <= 0:
            raise ValueError("screen extents must be positive")

    def corner(self, c: int) -> Point:
        right, top = ((0, 1), (1, 1), (0, 0), (1, 0))[c - 1]
        return Point(self.width_cm if right else 0.0, self.height_cm if top else 0.0)

    def cell_center(self, n: int, label: int) -> Point:
        _check_grid(n)
        if not 1 <= check_type(label, int, "cell label") <= n * n:
            raise ValueError(f"cell label must lie in 1..{n * n}, got {label}")
        row_from_top, col = divmod(label - 1, n)
        return Point(
            (col + 0.5) * self.width_cm / n,
            self.height_cm - (row_from_top + 0.5) * self.height_cm / n,
        )

    def to_dict(self) -> dict:
        return {
            "Lx": self.width_cm,
            "Ly": self.height_cm,
            "corners": [list(self.corner(c)) for c in CORNERS],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScreenGeometry":
        """Parse ``to_dict`` output, whose extents must be finite JSON
        numbers and whose corner targets must be the screen's own corners:
        ValueError otherwise."""
        screen = cls(*map(float, check_finite([d["Lx"], d["Ly"]], "screen extents")))
        if d["corners"] != screen.to_dict()["corners"]:
            raise ValueError(f"corner targets must be the screen's corners, got {d['corners']}")
        return screen


def _check_grid(n: int) -> None:
    if check_type(n, int, "grid resolution") < 2:
        raise ValueError("grid resolution must be at least 2")


@dataclass(frozen=True)
class TrainingSet:
    """Corner-indexed training vectors plus the screen they calibrate.

    ``by_corner[c]`` holds corner ``c``'s vectors as one read-only (n, 10)
    float64 array, one row per calibration frame with its columns in
    ``COORD_KEYS`` order; ``frame_ids[c]`` names the row's frames."""

    by_corner: dict[int, np.ndarray]
    frame_ids: dict[int, tuple[str, ...]]
    screen: ScreenGeometry
    metric: str = "congruency"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        for c in CORNERS:
            rows = self.by_corner.get(c)
            if rows is None or len(rows) == 0:
                raise EmptyCorner(c)
            if rows.shape != (len(self.frame_ids[c]), len(COORD_KEYS)):
                raise ValueError(f"corner {c}: need one {len(COORD_KEYS)}-column row "
                                 f"per frame id, got shape {rows.shape}")
            rows.setflags(write=False)

    def counts(self) -> dict[int, int]:
        return {c: len(self.by_corner[c]) for c in CORNERS}

    def to_dict(self) -> dict:
        return {
            "screen": self.screen.to_dict(),
            "metric": self.metric,
            "corners": {
                str(c): [{"frame": frame, **dict(zip(COORD_KEYS, row))}
                         for frame, row in zip(self.frame_ids[c],
                                               self.by_corner[c].tolist())]
                for c in CORNERS
            },
        }

    @classmethod
    def from_dict(cls, d: dict, reading=contextlib.nullcontext) -> "TrainingSet":
        """Parse ``to_dict`` output.  ``reading(section)`` is entered around
        the parse of each section ("screen", "corners", "corners.3.0"), so a
        caller can name the section in the errors raised inside it.  A value
        of the wrong JSON type, such as a coordinate that is no JSON number,
        raises TypeError and a coordinate that is not finite ValueError; a
        row whose marker triangle has an edge under 1e-9 raises
        DegenerateTriangle, since it would fail every congruency score."""
        check_type(d, dict, "training set")
        screen_doc, corner_docs = (check_type(d[key], dict, key) for key in ("screen", "corners"))
        with reading("screen"):
            screen = ScreenGeometry.from_dict(screen_doc)
        by_corner, frame_ids = {}, {}
        for c in CORNERS:
            with reading("corners"):
                vector_docs = check_type(corner_docs[str(c)], list, f"corners.{c}")
            rows, frames = [], []
            for i, vd in enumerate(vector_docs):
                with reading(f"corners.{c}.{i}"):
                    check_type(vd, dict, "vector")
                    row = [float(check_finite(check_type(vd[k], float, k), k)) for k in COORD_KEYS]
                    check_marker_triangle(row[MARKER_COLS])
                    rows.append(row)
                    frames.append(check_type(vd["frame"], str, "frame"))
            by_corner[c] = np.array(rows, dtype=np.float64).reshape(-1, len(COORD_KEYS))
            frame_ids[c] = tuple(frames)
        return cls(by_corner=by_corner, frame_ids=frame_ids, screen=screen, metric=d["metric"])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1) + "\n")


def build_training_set(
    labeled: Iterable[tuple[FaceObservation, int]],
    screen: ScreenGeometry,
    metric: str = "congruency",
) -> TrainingSet:
    """Group labeled observations by corner.  Every observation must carry
    both pupils and every corner must end up non-empty."""
    rows: dict[int, list[tuple[float, ...]]] = {c: [] for c in CORNERS}
    frame_ids: dict[int, list[str]] = {c: [] for c in CORNERS}
    for obs, corner in labeled:
        if corner not in CORNERS:
            raise ValueError(f"corner index must be 1..4, got {corner}")
        if obs.pupils.right is None or obs.pupils.left is None:
            raise IncompleteObservation(
                f"frame {obs.frame_id!r} is missing a pupil; training needs both"
            )
        m = obs.markers
        rows[corner].append((*m.right, *m.middle, *m.left,
                             *obs.pupils.right.point, *obs.pupils.left.point))
        frame_ids[corner].append(obs.frame_id)
    return TrainingSet(
        by_corner={c: np.array(rows[c], dtype=np.float64) for c in CORNERS},
        frame_ids={c: tuple(frame_ids[c]) for c in CORNERS},
        screen=screen, metric=metric,
    )


def _marker_row(t: MarkerTriple) -> np.ndarray:
    return np.array([*t.right, *t.middle, *t.left], dtype=np.float64)


def check_marker_triangle(markers: np.ndarray | Sequence[float]) -> np.ndarray:
    """Triangle edge lengths of (..., 6) marker rows (right, middle, left),
    paired by role: right-middle, middle-left, left-right.  Raises
    DegenerateTriangle if any edge is under 1e-9: it fails every congruency
    score."""
    markers = np.asarray(markers, dtype=np.float64)
    points = markers.reshape(*markers.shape[:-1], 3, 2)
    d = points - points[..., [1, 2, 0], :]
    edges = np.hypot(d[..., 0], d[..., 1])
    if (edges < _EDGE_EPS).any():
        raise DegenerateTriangle("marker triangle has an edge under 1e-9")
    return edges


def _congruency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3 - (A/A' + B/B' + C/C') for (..., 6) marker rows, with the edges of
    ``a`` in the numerators.  Zero iff the triangles are congruent."""
    r = check_marker_triangle(a) / check_marker_triangle(b)
    return 3.0 - (r[..., 0] + r[..., 1] + r[..., 2])


def congruency(a: MarkerTriple, b: MarkerTriple) -> float:
    """Triangle-congruency measure 3 - (A/A' + B/B' + C/C'), with edges of
    ``a`` in the numerators.  Zero iff the triangles are congruent."""
    return float(_congruency(_marker_row(a), _marker_row(b)))


def select_closest(ts: TrainingSet, obs: FaceObservation) -> dict[int, int]:
    """Per corner, the row index of the training vector whose head
    orientation best matches the input.  Congruency scores |M(vector,
    input)|; the euclidean metric sums the three marker-to-marker
    distances.  Ties fall to the smaller middle-marker distance, then the
    earlier row."""
    target = _marker_row(obs.markers)
    chosen = {}
    for c in CORNERS:
        markers = ts.by_corner[c][:, MARKER_COLS]
        d = (markers - target).reshape(-1, 3, 2)
        dist = np.hypot(d[..., 0], d[..., 1])
        if ts.metric == "congruency":
            score = np.abs(_congruency(markers, target))
        else:
            score = dist[:, 0] + dist[:, 1] + dist[:, 2]
        chosen[c] = int(np.lexsort((dist[:, 1], score))[0])
    return chosen


@dataclass(frozen=True)
class EyeEstimate:
    """One eye's gaze point and the six weights that interpolated it."""

    point: Point
    alpha: float
    beta: float
    gamma: float
    delta: float
    w: float
    w_prime: float


@dataclass(frozen=True)
class GazeEstimate:
    """Screen-plane gaze point with the per-eye sub-estimates that built it.
    With both eyes, ``point`` is their exact arithmetic mean."""

    point: Point
    right: EyeEstimate | None
    left: EyeEstimate | None

    @property
    def eyes_used(self) -> str:
        """"both", "right" or "left": the eyes whose estimates are present."""
        return "left" if self.right is None else "right" if self.left is None else "both"


def _checked_div(num: float, den: float, what: str) -> float:
    if abs(den) < _DENOM_EPS:
        raise DegenerateTraining(f"{what} denominator {den:.3g} below tolerance")
    return num / den


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def estimate_gaze_single_eye(
    pupil: Point,
    corner_pupils: Mapping[int, Point],
    screen: ScreenGeometry,
    weighting: str = "corrected",
) -> EyeEstimate:
    """Interpolate the gaze point from one eye's pupil position against
    that eye's pupil positions in the four (already translated) corner
    training vectors.  DegenerateTraining if a denominator falls under
    tolerance or the point is not finite."""
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    p = corner_pupils
    lx, ly = screen.width_cm, screen.height_cm

    alpha = _checked_div(pupil.x - p[1].x, p[2].x - p[1].x, "alpha")
    beta = _checked_div(pupil.x - p[3].x, p[4].x - p[3].x, "beta")
    w = _clamp01(_checked_div(
        pupil.y - 0.5 * (p[3].y + p[4].y),
        0.5 * (p[1].y + p[2].y) - 0.5 * (p[3].y + p[4].y),
        "top/bottom blend",
    ))
    x_g = w * (alpha * lx) + (1.0 - w) * (beta * lx)

    gamma = _checked_div(pupil.y - p[3].y, p[1].y - p[3].y, "gamma")
    delta = _checked_div(pupil.y - p[4].y, p[2].y - p[4].y, "delta")
    w_prime_raw = _clamp01(_checked_div(
        pupil.x - 0.5 * (p[1].x + p[3].x),
        0.5 * (p[2].x + p[4].x) - 0.5 * (p[1].x + p[3].x),
        "left/right blend",
    ))
    w_prime = 1.0 - w_prime_raw if weighting == "corrected" else w_prime_raw
    y_g = w_prime * (gamma * ly) + (1.0 - w_prime) * (delta * ly)

    try:
        check_finite([x_g, y_g], "gaze point")
    except ValueError as exc:
        raise DegenerateTraining(str(exc)) from None
    return EyeEstimate(Point(x_g, y_g), alpha, beta, gamma, delta, w, w_prime)


def estimate_gaze(
    obs: FaceObservation, ts: TrainingSet, weighting: str = "corrected"
) -> GazeEstimate:
    """Full estimation for one observation: select the closest vectors,
    translate their pupils by the input's middle marker minus the vector's,
    interpolate per available eye, and average when both eyes succeed."""
    chosen = select_closest(ts, obs)
    rows = np.stack([ts.by_corner[c][chosen[c]] for c in CORNERS])
    # Only the pupils of the chosen vectors are ever read, so only they move;
    # tolist() hands Python floats to Point, keeping est.csv's repr() values.
    offset = np.array(obs.markers.middle, dtype=np.float64) - rows[:, MIDDLE_COLS]
    pupils = (rows[:, PUPIL_COLS] + np.tile(offset, 2)).tolist()

    per_eye: dict[str, EyeEstimate | None] = {"right": None, "left": None}
    for side, col in (("right", 0), ("left", 2)):
        detection = getattr(obs.pupils, side)
        if detection is None:
            continue
        corner_pupils = {c: Point(*row[col:col + 2]) for c, row in zip(CORNERS, pupils)}
        with contextlib.suppress(DegenerateTraining):  # the eye is dropped
            per_eye[side] = estimate_gaze_single_eye(detection.point, corner_pupils,
                                                     ts.screen, weighting)

    eyes = [eye.point for eye in per_eye.values() if eye is not None]
    if not eyes:
        raise NoUsableEye(f"no eye produced an estimate for frame {obs.frame_id!r}")
    # Halving each term first keeps the mean of two finite points finite.
    point = eyes[0] if len(eyes) == 1 else Point(*(0.5 * a + 0.5 * b for a, b in zip(*eyes)))
    return GazeEstimate(point=point, **per_eye)


def score_accuracy(
    pairs: Sequence[tuple[Point, Point]], screen: ScreenGeometry, n: int
) -> float:
    """Fraction of (estimate, truth) pairs whose error is under half a cell
    of the n-by-n grid in both axes (strict inequalities)."""
    _check_grid(n)
    if not pairs:
        raise EmptyInput("no estimate/truth pairs to score")
    half_x = screen.width_cm / (2.0 * n)
    half_y = screen.height_cm / (2.0 * n)
    correct = sum(
        1
        for est, truth in pairs
        if abs(est.x - truth.x) < half_x and abs(est.y - truth.y) < half_y
    )
    return correct / len(pairs)


def accuracy_table(
    pairs: Sequence[tuple[Point, Point]], screen: ScreenGeometry
) -> list[tuple[int, float]]:
    """Accuracy at each grid resolution n in ``GRID_NS``; non-increasing in
    n by construction."""
    return [(n, score_accuracy(pairs, screen, n)) for n in GRID_NS]
