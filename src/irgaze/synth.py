"""Deterministic synthetic IR scene generator.

Serves as the ground-truth oracle for the detection and estimation
pipeline: a parametric head pose (in-plane similarity transform) and a
normalized gaze point produce exact feature coordinates, and the renderer
paints the matching frame (face ellipse, bright pupils, brighter markers,
Gaussian blur, seeded Gaussian noise).  Identical inputs give bit-identical
images.  The blur runs one horizontal pass over the box, then over its
transpose; rows and Cartesian y convert through ``row_to_y``/``y_to_row``.

The renderer paints and blurs only a box around the face, since every
shape lies inside it and the canvas beyond the blur radius is plain
background.  The rest of the frame is filled with the blur of a 1x1
background array, which is bit-exact: there the full-frame blur would sum
the same background taps in the same order.

The pupil model is linear: the pupil sits at the eye center offset by
(s - 0.5) * gain in the head frame before the pose transform.  Under a
matched head orientation the gaze interpolation is then exact, so
end-to-end error measures the pipeline, not model mismatch.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FeatureOutOfFrame
from .gaze import COORD_KEYS, CORNERS, ScreenGeometry
from .imaging import Point, check_finite, encode_pgm, row_to_y, y_to_row

SCALE_RANGE = (0.5, 2.0)
MAX_ROTATION = 0.35  # radians
RENDER_MARGIN = 10  # minimum feature distance to the image border, px
EVAL_GRID_N = 5  # evaluation gaze points are cell centers of this n-by-n grid

# Training-sweep translation jitter, px (head drift between repeats).
_JITTER_PX = 12.0
_MAX_PIXELS = np.iinfo(np.intp).max // 8  # the float64 values one numpy array can hold
# generate_dataset plans every frame, about 1 KB of ground truth each, in
# memory before it writes the first; this keeps that plan near 100 MB (and
# a 640x480 dataset near 31 GB of frames).
_MAX_FRAMES = 100_000


@dataclass(frozen=True)
class HeadPose:
    """In-plane similarity pose: translation (px), rotation (rad), and a
    scale factor standing in for head depth."""

    tx: float
    ty: float
    theta: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not SCALE_RANGE[0] <= self.scale <= SCALE_RANGE[1]:
            raise ValueError(f"scale must lie in {SCALE_RANGE}")
        if abs(self.theta) > MAX_ROTATION:
            raise ValueError(f"|theta| must be <= {MAX_ROTATION}")

    def apply(self, p: Point) -> Point:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Point(
            self.scale * (c * p.x - s * p.y) + self.tx,
            self.scale * (s * p.x + c * p.y) + self.ty,
        )

    def to_dict(self) -> dict:
        return {"tx": self.tx, "ty": self.ty, "theta": self.theta, "k": self.scale}


@dataclass(frozen=True)
class FaceLayout:
    """Canonical face geometry in head-local coordinates (origin at the
    face center, pose scale 1, no rotation).  Outer markers sit above the
    eyebrows, the middle marker below the area between the eyes, so the
    rectangle spanned by an outer marker and the middle marker always
    contains its eye."""

    marker_right: Point = Point(90.0, 55.0)
    marker_left: Point = Point(-90.0, 55.0)
    marker_middle: Point = Point(0.0, 8.0)
    eye_right: Point = Point(45.0, 30.0)
    eye_left: Point = Point(-45.0, 30.0)
    marker_radius: float = 7.0
    pupil_radius: float = 5.0
    pupil_gain: tuple[float, float] = (12.0, 12.0)
    face_axes: tuple[float, float] = (130.0, 100.0)

    def __post_init__(self):
        for name in ("marker_right", "marker_left"):
            marker = getattr(self, name)
            eye = self.eye_right if name == "marker_right" else self.eye_left
            if marker.y <= eye.y:
                raise ValueError(f"{name} must sit above its eye center")
        if self.marker_middle.y >= min(self.marker_right.y, self.marker_left.y):
            raise ValueError("middle marker must sit below the outer markers")
        if not (self.marker_middle.x < self.eye_right.x < self.marker_right.x):
            raise ValueError("right eye must lie inside its marker rectangle")
        if not (self.marker_left.x < self.eye_left.x < self.marker_middle.x):
            raise ValueError("left eye must lie inside its marker rectangle")
        if min(self.marker_radius, self.pupil_radius, *self.pupil_gain,
               *self.face_axes) <= 0:
            raise ValueError("radii, gains, and face axes must be positive")


@dataclass(frozen=True)
class RenderConfig:
    """Paint levels and degradations.  The intensity ordering marker >
    pupil > face > background mirrors how retro-reflection ranks in real
    IR frames."""

    width: int = 640
    height: int = 480
    background: int = 30
    face: int = 80
    pupil: int = 180
    marker: int = 250
    blur_sigma: float = 0.8
    noise_sigma: float = 2.0

    def __post_init__(self):
        if not 0 <= self.background < self.face < self.pupil < self.marker <= 255:
            raise ValueError("need marker > pupil > face > background in [0, 255]")
        if self.width < 2 * RENDER_MARGIN or self.height < 2 * RENDER_MARGIN:
            raise ValueError(f"width and height must be at least {2 * RENDER_MARGIN}")
        sigmas = [self.blur_sigma, self.noise_sigma]
        if min(check_finite(sigmas, "blur_sigma and noise_sigma")) < 0:
            raise ValueError("blur_sigma and noise_sigma must be >= 0")
        if self.width * self.height > _MAX_PIXELS:
            raise ValueError(f"width x height must be at most {_MAX_PIXELS}, "
                             f"got {self.width * self.height}")
        if 3.0 * self.blur_sigma > max(self.width, self.height):
            raise ValueError(f"the blur radius, 3 x blur_sigma, must be at most max(width, "
                             f"height) = {max(self.width, self.height)}, got {self.blur_sigma}")


class FeaturePoints(NamedTuple):
    """The five feature coordinates of one frame, image Cartesian."""

    marker_right: Point
    marker_middle: Point
    marker_left: Point
    pupil_right: Point
    pupil_left: Point


@dataclass(frozen=True)
class GroundTruth:
    """Exact feature coordinates a (pose, gaze) pair induces, plus the
    provenance needed to re-render the frame."""

    features: FeaturePoints
    gaze_cm: Point
    pose: HeadPose
    seed: int | None = None

    def coords_dict(self) -> dict[str, float]:
        return dict(zip(COORD_KEYS, (c for p in self.features for c in p)))


def feature_model(pose: HeadPose, gaze_norm: tuple[float, float],
                  layout: FaceLayout = FaceLayout()) -> FeaturePoints:
    """Map a pose and a normalized gaze point to exact feature coordinates.

    Markers follow the similarity transform directly; pupils first shift by
    (s - 0.5) * gain in the head frame.  Linear in the gaze point for a
    fixed pose.
    """
    sx, sy = gaze_norm
    if not (0.0 <= sx <= 1.0 and 0.0 <= sy <= 1.0):
        raise ValueError(f"normalized gaze must lie in [0, 1]^2, got {gaze_norm}")
    dx = (sx - 0.5) * layout.pupil_gain[0]
    dy = (sy - 0.5) * layout.pupil_gain[1]
    return FeaturePoints(
        marker_right=pose.apply(layout.marker_right),
        marker_middle=pose.apply(layout.marker_middle),
        marker_left=pose.apply(layout.marker_left),
        pupil_right=pose.apply(layout.eye_right.shifted(dx, dy)),
        pupil_left=pose.apply(layout.eye_left.shifted(dx, dy)),
    )


def _gaussian_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return a
    r = int(math.ceil(3.0 * sigma))
    xs = np.arange(-r, r + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()

    for _ in range(2):  # the horizontal pass, then the same on the transpose
        padded = np.pad(a, ((0, 0), (r, r)), mode="edge")
        out = np.zeros_like(a)
        for i, k in enumerate(kernel):
            out += k * padded[:, i : i + a.shape[1]]
        a = out.T
    return a


def draw_noise(seed: int, sigma: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` in place with ``default_rng(seed).normal(0.0, sigma,
    out.shape)``, bit for bit: numpy draws ``normal(loc, scale)`` as
    ``loc + scale * z``, and ``0.0 + sigma * z`` equals ``sigma * z`` (up
    to the sign of a zero, which no sum with the scene can see).
    Allocates no frame-sized array."""
    np.random.default_rng(seed).standard_normal(out=out)
    out *= sigma
    return out


def render_scene(
    truth: GroundTruth,
    layout: FaceLayout = FaceLayout(),
    cfg: RenderConfig = RenderConfig(),
    *,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Paint the read-only frame for a ground-truth record.

    Every feature center must keep RENDER_MARGIN pixels to the border.
    Deterministic: the same (truth, layout, cfg) give byte-identical
    images.

    ``noise``, if given, is a float64 (height, width) buffer holding the
    frame's ``draw_noise`` draws; it becomes the canvas and is overwritten.
    Without it the buffer is drawn here from ``truth.seed`` (or is zero when
    ``cfg.noise_sigma`` is 0).  The scene is added onto the noise, which
    gives the same bits as adding the noise onto the scene.

    Painting and blurring run only on the face box: the face's bounding
    circle and every feature disk, padded by more than the blur radius and
    clipped to the frame, because no shape reaches past it.  The rest of
    the frame takes the blur of a 1x1 background array, which is bit-exact:
    every tap there reads background, and the box's edge padding replicates
    background, so each pixel sums the same floats in the same order as a
    full-frame blur would.
    """
    for name, p in zip(truth.features._fields, truth.features):
        if not (RENDER_MARGIN <= p.x <= cfg.width - 1 - RENDER_MARGIN
                and RENDER_MARGIN <= p.y <= cfg.height - 1 - RENDER_MARGIN):
            raise FeatureOutOfFrame(
                f"{name} at ({p.x:.1f}, {p.y:.1f}) violates the "
                f"{RENDER_MARGIN} px margin in a {cfg.width}x{cfg.height} frame"
            )

    k = truth.pose.scale
    f = truth.features
    disks = (
        (f.pupil_right, layout.pupil_radius * k, cfg.pupil),
        (f.pupil_left, layout.pupil_radius * k, cfg.pupil),
        (f.marker_right, layout.marker_radius * k, cfg.marker),
        (f.marker_middle, layout.marker_radius * k, cfg.marker),
        (f.marker_left, layout.marker_radius * k, cfg.marker),
    )
    circles = [(Point(truth.pose.tx, truth.pose.ty), max(layout.face_axes) * k)]
    circles += [(center, radius) for center, radius, _ in disks]
    pad = 2 * math.ceil(3.0 * cfg.blur_sigma) + 1
    col_lo = max(0, math.floor(min(p.x - r for p, r in circles)) - pad)
    col_hi = min(cfg.width - 1, math.ceil(max(p.x + r for p, r in circles)) + pad)
    row_lo = max(0, math.floor(y_to_row(max(p.y + r for p, r in circles), cfg.height)) - pad)
    row_hi = min(cfg.height - 1,
                 math.ceil(y_to_row(min(p.y - r for p, r in circles), cfg.height)) + pad)

    # Open grid over the box, Cartesian (y up); broadcasting evaluates the
    # same per-pixel expressions as a full meshgrid would.
    gx = np.arange(col_lo, col_hi + 1, dtype=np.float64)[np.newaxis, :]
    gy = row_to_y(np.arange(row_lo, row_hi + 1, dtype=np.float64), cfg.height)[:, np.newaxis]
    box = np.full((gy.shape[0], gx.shape[1]), float(cfg.background))

    # Face ellipse: invert the pose transform and test against the
    # axis-aligned canonical ellipse.
    c, s = math.cos(truth.pose.theta), math.sin(truth.pose.theta)
    rx = (gx - truth.pose.tx) / k
    ry = (gy - truth.pose.ty) / k
    local_x = c * rx + s * ry
    local_y = -s * rx + c * ry
    ax, ay = layout.face_axes
    box[(local_x / ax) ** 2 + (local_y / ay) ** 2 <= 1.0] = float(cfg.face)

    for center, radius, level in disks:
        box[(gx - center.x) ** 2 + (gy - center.y) ** 2 <= radius * radius] = float(level)

    shape = (cfg.height, cfg.width)
    if noise is None:
        noise = np.zeros(shape)
        if cfg.noise_sigma > 0:
            if truth.seed is None:
                raise ValueError("noisy rendering needs a seed")
            draw_noise(truth.seed, cfg.noise_sigma, noise)
    elif noise.shape != shape:
        raise ValueError(f"noise must have shape {shape}, got {noise.shape}")

    canvas = noise
    rows, cols = slice(row_lo, row_hi + 1), slice(col_lo, col_hi + 1)
    canvas[rows, cols] += _gaussian_blur(box, cfg.blur_sigma)
    outside = _gaussian_blur(np.full((1, 1), float(cfg.background)), cfg.blur_sigma)
    for strip in ((slice(None, row_lo),), (slice(row_hi + 1, None),),
                  (rows, slice(None, col_lo)), (rows, slice(col_hi + 1, None))):
        canvas[strip] += outside[0, 0]

    np.clip(canvas, 0, 255, out=canvas)
    canvas += 0.5
    img = np.floor(canvas, out=canvas).astype(np.uint8)
    img.setflags(write=False)
    return img


def default_poses(width: int = 640, height: int = 480) -> tuple[HeadPose, ...]:
    """Six head poses spanning translation, small rotation, and depth,
    mirroring a subject facing six different screen cells.  Scales are
    pairwise distinct so orientation matching stays unambiguous."""
    cx, cy = width / 2.0, height / 2.0
    return (
        HeadPose(cx, cy, 0.00, 1.00),
        HeadPose(cx + 60, cy + 40, 0.05, 0.94),
        HeadPose(cx - 60, cy + 30, -0.04, 0.97),
        HeadPose(cx + 65, cy, 0.03, 1.03),
        HeadPose(cx - 40, cy - 35, -0.06, 1.06),
        HeadPose(cx + 15, cy - 45, 0.02, 0.90),
    )


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate: evaluation frames cover ``eval_points`` cell
    centers of an ``EVAL_GRID_N`` grid at every pose; training frames sweep
    the four corner targets at every pose, ``training_repeats`` times with
    a little translation jitter between repeats."""

    poses: tuple[HeadPose, ...] = field(default_factory=default_poses)
    eval_points: int = 25
    training_repeats: int = 2
    screen: ScreenGeometry = ScreenGeometry()
    layout: FaceLayout = FaceLayout()
    render: RenderConfig = RenderConfig()
    master_seed: int = 1234

    def __post_init__(self):
        if self.eval_points < 0 or self.eval_points > EVAL_GRID_N ** 2:
            raise ValueError(f"eval_points must lie in [0, {EVAL_GRID_N ** 2}]")
        if self.training_repeats < 0:
            raise ValueError("training_repeats must be >= 0")
        frames = len(self.poses) * (len(CORNERS) * self.training_repeats + self.eval_points)
        if frames > _MAX_FRAMES:
            raise ValueError(f"the dataset must plan at most {_MAX_FRAMES} frames, got {frames}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


def _frame_seeds(master_seed: int, index: int) -> tuple[int, int]:
    state = np.random.SeedSequence([master_seed, index]).generate_state(2)
    return int(state[0]), int(state[1])


def generate_dataset(spec: DatasetSpec, out_dir: str | Path) -> dict:
    """Render the dataset into ``out_dir`` and return the manifest (also
    written as manifest.json).  Frames whose features would leave the frame
    are skipped and logged under "skipped".

    While the main thread paints, encodes and writes frame i, one worker
    thread draws frame i+1's noise (numpy releases the GIL while it fills
    the array) into the other of two frame buffers, which ``render_scene``
    then uses as its canvas.  The worker calls only ``draw_noise``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # (frame_id, role, corner or None, truth); a frame's seeds come from its
    # plan index, and repeats of a training target drift a little.
    plan: list[tuple[str, str, int | None, GroundTruth]] = []

    def add(frame_id: str, role: str, corner: int | None, gaze: Point,
            pose: HeadPose, jitter: bool) -> None:
        noise_seed, jitter_seed = _frame_seeds(spec.master_seed, len(plan))
        if jitter:
            drift = np.random.default_rng(jitter_seed).uniform(-_JITTER_PX, _JITTER_PX, 2)
            pose = HeadPose(pose.tx + float(drift[0]), pose.ty + float(drift[1]),
                            pose.theta, pose.scale)
        gaze_norm = (gaze.x / spec.screen.width_cm, gaze.y / spec.screen.height_cm)
        truth = GroundTruth(features=feature_model(pose, gaze_norm, spec.layout),
                            gaze_cm=gaze, pose=pose, seed=noise_seed)
        plan.append((frame_id, role, corner, truth))

    for pi, pose in enumerate(spec.poses):
        for corner in CORNERS:
            for rep in range(spec.training_repeats):
                add(f"train_p{pi}_c{corner}_r{rep}", "training", corner,
                    spec.screen.corner(corner), pose, rep > 0)
    for pi, pose in enumerate(spec.poses):
        for label in range(1, spec.eval_points + 1):
            add(f"eval_p{pi}_k{label:02d}", "evaluation", None,
                spec.screen.cell_center(EVAL_GRID_N, label), pose, False)

    sigma = spec.render.noise_sigma
    shape = (spec.render.height, spec.render.width)
    buffers = (np.empty(shape), np.empty(shape)) if sigma > 0 else ()

    def draw_ahead(index: int) -> Future | None:
        if not buffers or index == len(plan):
            return None
        return pool.submit(draw_noise, plan[index][3].seed, sigma, buffers[index % 2])

    frames = []
    skipped = []
    # The pool starts its thread on the first submit, so none starts when
    # sigma is 0; leaving the block joins it.
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = draw_ahead(0)
        for index, (frame_id, role, corner, truth) in enumerate(plan):
            noise = ahead.result() if ahead else None
            ahead = draw_ahead(index + 1)
            file_name = frame_id + ".pgm"
            try:
                img = render_scene(truth, spec.layout, spec.render, noise=noise)
            except FeatureOutOfFrame as exc:
                skipped.append({"file": file_name, "role": role, "error": str(exc)})
                continue
            (out / file_name).write_bytes(encode_pgm(img))
            entry = {
                "file": file_name,
                "role": role,
                "gaze": list(truth.gaze_cm),
                "pose": truth.pose.to_dict(),
                "truth": truth.coords_dict(),
                "seed": truth.seed,
            }
            if corner is not None:
                entry["corner"] = corner
            frames.append(entry)

    manifest = {
        "screen": spec.screen.to_dict(),
        "frames": frames,
        "skipped": skipped,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest
