"""Shared test fixtures and independent oracles.

Nothing here may call into the implementation paths it is used to check:
the painter builds rasters directly, the flood fill is a dense BFS, the
morphology oracle tests every offset of every pixel one by one, the
moment oracle recomputes eccentricity from scratch with an eigen solve,
the reference scene renderer paints and blurs the whole frame, and the
reference closest-vector selection scores one vector at a time on Points.
The reference labeler walks the whole mask row by row with a union-find
over run indices and builds each region from its own pixel arrays, with
centroid and eccentricity summed over that region alone
(``reference_moments``), so its regions must equal the package's bit for
bit.  The reference marker mask equalizes the whole frame and partitions
it.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from irgaze.detection import FaceObservation, MarkerTriple, PupilDetection, PupilPair
from irgaze.errors import DegenerateTriangle
from irgaze.imaging import Point, Region
from irgaze.synth import (
    FaceLayout,
    FeaturePoints,
    GroundTruth,
    HeadPose,
    RenderConfig,
    feature_model,
)


def truth_from_manifest_entry(entry: dict) -> GroundTruth:
    """The ground truth a manifest frame entry records."""
    t, pose = entry["truth"], entry["pose"]
    return GroundTruth(
        features=FeaturePoints(*(Point(t[f"x_{k}"], t[f"y_{k}"])
                                 for k in ("mr", "mm", "ml", "pr", "pl"))),
        gaze_cm=Point(*entry["gaze"]),
        pose=HeadPose(tx=float(pose["tx"]), ty=float(pose["ty"]),
                      theta=float(pose["theta"]), scale=float(pose["k"])),
        seed=entry.get("seed"),
    )


def blank(width: int, height: int, level: int = 0) -> np.ndarray:
    return np.full((height, width), level, dtype=np.float64)


def paint_ellipse(canvas: np.ndarray, cx: float, cy: float,
                  ax: float, ay: float, level: int) -> None:
    """Paint a filled axis-aligned ellipse at Cartesian (cx, cy), y up."""
    h, w = canvas.shape
    row_lo = max(0, int((h - 1) - (cy + ay) - 1))
    row_hi = min(h - 1, int((h - 1) - (cy - ay) + 1))
    col_lo = max(0, int(cx - ax - 1))
    col_hi = min(w - 1, int(cx + ax + 1))
    for row in range(row_lo, row_hi + 1):
        y = (h - 1) - row
        for col in range(col_lo, col_hi + 1):
            if ((col - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 <= 1.0:
                canvas[row, col] = level


def paint_disk(canvas: np.ndarray, cx: float, cy: float, r: float, level: int) -> None:
    """Paint a disk at Cartesian (cx, cy), y up, in place."""
    paint_ellipse(canvas, cx, cy, r, r, level)


def as_image(canvas: np.ndarray) -> np.ndarray:
    return np.clip(canvas, 0, 255).astype(np.uint8)


def assert_same_image(a, b, what: str = "") -> None:
    """Both are uint8 arrays of one shape with equal samples: the image
    equality a bare ``np.array_equal``, which ignores dtype, does not give."""
    assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), what
    assert a.dtype == np.uint8 and b.dtype == np.uint8, (what, a.dtype, b.dtype)
    assert a.shape == b.shape, (what, a.shape, b.shape)
    assert np.array_equal(a, b), what


def flood_fill_components(mask: np.ndarray) -> list[frozenset[tuple[int, int]]]:
    """Dense BFS 8-connected labeling; returns pixel sets of (col, row)."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    out = []
    for r0 in range(h):
        for c0 in range(w):
            if not mask[r0, c0] or seen[r0, c0]:
                continue
            group = set()
            queue = deque([(r0, c0)])
            seen[r0, c0] = True
            while queue:
                r, c = queue.popleft()
                group.add((c, r))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if (0 <= rr < h and 0 <= cc < w
                                and mask[rr, cc] and not seen[rr, cc]):
                            seen[rr, cc] = True
                            queue.append((rr, cc))
            out.append(frozenset(group))
    return out


def moment_eccentricity(mask: np.ndarray) -> float:
    """Brute-force eccentricity from raw pixel coordinates of a mask."""
    rows, cols = np.nonzero(mask)
    xs = cols.astype(float)
    ys = (mask.shape[0] - 1) - rows.astype(float)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    cov = np.array([
        [(dx * dx).mean(), (dx * dy).mean()],
        [(dx * dy).mean(), (dy * dy).mean()],
    ])
    eig = np.sort(np.linalg.eigvalsh(cov))
    if eig[1] <= 0:
        return 0.0
    return float(np.sqrt(max(0.0, 1.0 - eig[0] / eig[1])))


def reference_morphology(mask: np.ndarray, op: str, radius: float) -> np.ndarray:
    """Brute-force binary morphology, one pixel at a time, with a disk
    element: every offset within ``radius`` of the center.  The mask is
    embedded in an empty plane, so pixels beyond its border are background
    and a dilation may spill past the border before a closing's erosion."""
    r = math.floor(radius)
    disk = [(dr, dc) for dr in range(-r, r + 1) for dc in range(-r, r + 1)
            if dr * dr + dc * dc <= radius * radius]
    h, w = mask.shape
    plane = np.zeros((h + 2 * r, w + 2 * r), dtype=bool)
    plane[r : r + h, r : r + w] = mask

    def on(a, row, col):
        return 0 <= row < a.shape[0] and 0 <= col < a.shape[1] and bool(a[row, col])

    def erode(a):
        return np.array([[all(on(a, row + dr, col + dc) for dr, dc in disk)
                          for col in range(a.shape[1])] for row in range(a.shape[0])])

    def dilate(a):
        return np.array([[any(on(a, row - dr, col - dc) for dr, dc in disk)
                          for col in range(a.shape[1])] for row in range(a.shape[0])])

    steps = {"erode": (erode,), "dilate": (dilate,), "open": (erode, dilate),
             "close": (dilate, erode)}[op]
    for step in steps:
        plane = step(plane)
    return plane[r : r + h, r : r + w]


def synthetic_observation(
    pose: HeadPose,
    gaze_norm: tuple[float, float],
    layout: FaceLayout = FaceLayout(),
    frame_id: str = "",
) -> FaceObservation:
    """Exact (noise-free) observation straight from the geometric model."""
    f = feature_model(pose, gaze_norm, layout)
    return FaceObservation(
        markers=MarkerTriple(right=f.marker_right, middle=f.marker_middle,
                             left=f.marker_left),
        pupils=PupilPair(
            right=PupilDetection(point=f.pupil_right, area=80, eccentricity=0.05),
            left=PupilDetection(point=f.pupil_left, area=80, eccentricity=0.05),
        ),
        frame_id=frame_id,
        pair_consistent=True,
    )


def _reference_blur(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge padding, horizontal pass first."""
    if sigma <= 0:
        return a
    r = int(math.ceil(3.0 * sigma))
    xs = np.arange(-r, r + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()

    out = np.zeros_like(a)
    padded = np.pad(a, ((0, 0), (r, r)), mode="edge")
    for i, k in enumerate(kernel):
        out += k * padded[:, i : i + a.shape[1]]
    a = out
    out = np.zeros_like(a)
    padded = np.pad(a, ((r, r), (0, 0)), mode="edge")
    for i, k in enumerate(kernel):
        out += k * padded[i : i + a.shape[0], :]
    return out


def reference_render(truth: GroundTruth, layout: FaceLayout, cfg: RenderConfig,
                     seed: int) -> np.ndarray:
    """Full-frame scene painter: tests the face ellipse and every disk at
    every pixel and blurs the whole canvas.  ``render_scene`` must match
    it byte for byte.  Skips the feature-margin check."""
    cols = np.arange(cfg.width, dtype=np.float64)
    ys = (cfg.height - 1) - np.arange(cfg.height, dtype=np.float64)
    gx, gy = np.meshgrid(cols, ys)

    canvas = np.full((cfg.height, cfg.width), float(cfg.background))

    k = truth.pose.scale
    c, s = math.cos(truth.pose.theta), math.sin(truth.pose.theta)
    rx = (gx - truth.pose.tx) / k
    ry = (gy - truth.pose.ty) / k
    local_x = c * rx + s * ry
    local_y = -s * rx + c * ry
    ax, ay = layout.face_axes
    canvas[(local_x / ax) ** 2 + (local_y / ay) ** 2 <= 1.0] = float(cfg.face)

    def paint_disk(center, radius: float, level: int) -> None:
        mask = (gx - center.x) ** 2 + (gy - center.y) ** 2 <= radius * radius
        canvas[mask] = float(level)

    paint_disk(truth.features.pupil_right, layout.pupil_radius * k, cfg.pupil)
    paint_disk(truth.features.pupil_left, layout.pupil_radius * k, cfg.pupil)
    paint_disk(truth.features.marker_right, layout.marker_radius * k, cfg.marker)
    paint_disk(truth.features.marker_middle, layout.marker_radius * k, cfg.marker)
    paint_disk(truth.features.marker_left, layout.marker_radius * k, cfg.marker)

    canvas = _reference_blur(canvas, cfg.blur_sigma)

    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        canvas = canvas + rng.normal(0.0, cfg.noise_sigma, canvas.shape)

    return np.floor(np.clip(canvas, 0, 255) + 0.5).astype(np.uint8)


def observation_from_row(row) -> FaceObservation:
    """The observation whose markers and pupils are a training row's ten
    coordinates (COORD_KEYS order), with both pupils detected."""
    v = [float(x) for x in row]
    return FaceObservation(
        markers=MarkerTriple(right=Point(v[0], v[1]), middle=Point(v[2], v[3]),
                             left=Point(v[4], v[5])),
        pupils=PupilPair(right=PupilDetection(Point(v[6], v[7]), 80, 0.05),
                         left=PupilDetection(Point(v[8], v[9]), 80, 0.05)),
    )


def select_closest_reference(ts, obs: FaceObservation) -> dict[int, int]:
    """Per corner, the row index minimizing (score, middle-marker distance,
    index), each vector scored alone: |3 - sum of role-paired edge ratios|
    (vector edges over input edges) for congruency, the summed
    marker-to-marker distances for euclidean.  Raises DegenerateTriangle
    when congruency meets an edge under 1e-9 in any vector or the input."""
    inp = (obs.markers.right, obs.markers.middle, obs.markers.left)

    def edges(t):
        return [t[0].distance_to(t[1]), t[1].distance_to(t[2]), t[2].distance_to(t[0])]

    chosen = {}
    for c in (1, 2, 3, 4):
        ranked = []
        for i, row in enumerate(ts.by_corner[c].tolist()):
            tri = (Point(row[0], row[1]), Point(row[2], row[3]), Point(row[4], row[5]))
            if ts.metric == "congruency":
                ea, eb = edges(tri), edges(inp)
                if min(ea) < 1e-9 or min(eb) < 1e-9:
                    raise DegenerateTriangle("near-zero edge")
                score = abs(3.0 - sum(x / y for x, y in zip(ea, eb)))
            else:
                score = sum(p.distance_to(q) for p, q in zip(tri, inp))
            ranked.append((score, tri[1].distance_to(inp[1]), i))
        chosen[c] = min(ranked)[2]
    return chosen


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _reference_equalize(img: np.ndarray) -> np.ndarray:
    counts = np.bincount(img.ravel(), minlength=256)
    cdf = np.cumsum(counts)
    total = img.shape[1] * img.shape[0]
    cdf_min = int(cdf[np.flatnonzero(counts)[0]])
    denom = total - cdf_min
    if denom == 0:
        return np.zeros_like(img)
    lut = np.floor((cdf - cdf_min) / denom * 255.0 + 0.5)
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return lut[img]


def reference_marker_mask(img: np.ndarray, top_n: int) -> np.ndarray:
    """The marker mask as detect_markers cut it before ``marker_mask``:
    equalize the whole frame, take its ``top_n``-th brightest value with
    ``np.partition`` and keep every pixel at or above it."""
    eq = _reference_equalize(img)
    flat = eq.ravel()
    n = min(top_n, flat.size)
    threshold = float(np.partition(flat, flat.size - n)[flat.size - n])
    return eq >= threshold


def reference_moments(pixels: np.ndarray, height: int) -> tuple[Point, float]:
    """Centroid and eccentricity of one region from its own (col, row)
    pixels in raster order, summed one region at a time: the bits
    ``connected_components`` must reproduce."""
    xs = pixels[:, 0].astype(np.float64)
    ys = (height - 1) - pixels[:, 1].astype(np.float64)
    n = xs.size
    cx = float(xs.mean())
    cy = float(ys.mean())
    dx = xs - cx
    dy = ys - cy
    mu20 = float((dx * dx).sum()) / n
    mu02 = float((dy * dy).sum()) / n
    mu11 = float((dx * dy).sum()) / n
    mid = 0.5 * (mu20 + mu02)
    spread = np.hypot(0.5 * (mu20 - mu02), mu11)
    l1 = mid + spread
    l2 = max(mid - spread, 0.0)
    ecc = 0.0 if l1 < 1e-12 else float(np.sqrt(max(0.0, 1.0 - l2 / l1)))
    return Point(cx, cy), ecc


def _reference_region(cols: np.ndarray, rows: np.ndarray, width: int, height: int) -> Region:
    min_col, max_col = int(cols.min()), int(cols.max())
    min_row, max_row = int(rows.min()), int(rows.max())
    pixels = np.column_stack((cols, rows)).astype(np.int32)
    centroid, eccentricity = reference_moments(pixels, height)
    return Region(
        pixels=pixels,
        area=int(cols.size),
        bbox=(min_col, min_row, max_col, max_row),
        touches_border=(
            min_row == 0 or max_row == height - 1 or min_col == 0 or max_col == width - 1
        ),
        centroid=centroid,
        eccentricity=eccentricity,
    )


def reference_components(a: np.ndarray) -> list[Region]:
    """The row-loop labeler ``connected_components`` replaced: all
    8-connected foreground regions, sorted by bounding-box origin, with the
    same region order, pixel order and moments."""
    h, w = a.shape

    # runs[i] = (row, start_col, end_col_exclusive)
    runs: list[tuple[int, int, int]] = []
    row_runs: list[tuple[int, int]] = []  # (first_run_index, count) per row
    padded = np.zeros(w + 2, dtype=np.int8)
    for r in range(h):
        padded[1:-1] = a[r]
        d = np.diff(padded)
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1)
        row_runs.append((len(runs), len(starts)))
        for s, e in zip(starts, ends):
            runs.append((r, int(s), int(e)))

    uf = _UnionFind(len(runs))
    for r in range(1, h):
        cur_first, cur_n = row_runs[r]
        prev_first, prev_n = row_runs[r - 1]
        if cur_n == 0 or prev_n == 0:
            continue
        j = prev_first
        prev_last = prev_first + prev_n
        for i in range(cur_first, cur_first + cur_n):
            _, s1, e1 = runs[i]
            # Runs in a row are disjoint and sorted, so ends are monotone:
            # once a previous run ends left of s1 it can never touch a later
            # current run either.  Diagonal contact counts (8-connectivity).
            while j < prev_last and runs[j][2] < s1:
                j += 1
            k = j
            while k < prev_last and runs[k][1] <= e1:
                uf.union(i, k)
                k += 1

    groups: dict[int, list[int]] = {}
    for i in range(len(runs)):
        groups.setdefault(uf.find(i), []).append(i)

    regions = []
    for members in groups.values():
        cols = np.concatenate([np.arange(runs[i][1], runs[i][2]) for i in members])
        rows = np.concatenate(
            [np.full(runs[i][2] - runs[i][1], runs[i][0]) for i in members]
        )
        regions.append(_reference_region(cols, rows, w, h))

    regions.sort(key=lambda reg: (reg.bbox[1], reg.bbox[0], reg.area))
    return regions
