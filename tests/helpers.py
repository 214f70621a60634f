"""Shared test fixtures and independent oracles.

Nothing here may call into the implementation paths it is used to check:
the painter builds rasters directly, the flood fill is a dense BFS, the
morphology oracle tests every offset of every pixel one by one, the
moment oracle recomputes eccentricity from scratch with an eigen solve,
the reference scene renderer paints, blurs and draws noise for the whole
frame, with its background table from ``statistics``' inverse normal CDF,
and the reference closest-vector selection scores one vector at a time on Points.
The reference labeler walks the whole mask row by row with a union-find
over run indices and builds each region from its own pixel arrays, with
centroid and eccentricity from that region's exact Python-int coordinate
sums, each divided once (``reference_moments``), so its rows must equal
the package's bit for bit, and its pixel lists those read off the
package's label image.  The reference marker mask equalizes the whole
frame and partitions it.  The
reference pupil ladder is the step-by-step loop ``detect_pupil`` replaced:
it cuts, opens and labels one 2-D mask per threshold, with the 2-D calls
that the morphology and labeling oracles check.  The reference PGM
decoder is the byte-by-byte header scanner that ``decode_pgm``'s regular
expression replaced.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import deque

import numpy as np

from irgaze.detection import (
    ECCENTRICITY_MAX,
    MAX_RETRIES,
    EyeRoi,
    FaceObservation,
    MarkerTriple,
    PupilDetection,
    PupilPair,
    pupil_threshold,
)
from irgaze.errors import (
    AmbiguousPupil,
    BadMagic,
    DegenerateTriangle,
    NoPupilFound,
    PgmError,
    TruncatedData,
    UnsupportedMaxval,
)
from irgaze.imaging import (
    Point,
    Region,
    Regions,
    binarize,
    connected_components,
    histogram_equalize,
    morphology,
    row_to_y,
    y_to_row,
)
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
    """Dense BFS 8-connected labeling; returns pixel sets of (row, col)."""
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
                group.add((r, c))
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


def reference_morphology(mask: np.ndarray, radius: float) -> np.ndarray:
    """Brute-force binary opening, one pixel at a time, with a disk
    element: every offset within ``radius`` of the center.  The mask is
    embedded in an empty plane, so pixels beyond its border are background;
    the erosion runs over a margin of r pixels round the mask, every pixel
    the dilation can reach from inside it."""
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

    return dilate(erode(plane))[r : r + h, r : r + w]


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


def reference_canvas(truth: GroundTruth, layout: FaceLayout,
                     cfg: RenderConfig) -> np.ndarray:
    """The whole frame's blurred float scene before noise: the face
    ellipse and every disk tested at every pixel, then the full-canvas
    blur."""
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

    return _reference_blur(canvas, cfg.blur_sigma)


def _rounded(values: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(values, 0, 255) + 0.5).astype(np.uint8)


@functools.cache
def _midpoint_quantiles() -> np.ndarray:
    """z at the (i + 0.5) / 65536 quantiles of N(0, 1), i = 0..65535."""
    inv_cdf = statistics.NormalDist().inv_cdf
    return np.array([inv_cdf((i + 0.5) / 65536) for i in range(65536)])


def reference_plain_level(cfg: RenderConfig) -> float:
    """The blurred value of a pixel that sees only plain background."""
    return _reference_blur(np.full((1, 1), float(cfg.background)), cfg.blur_sigma)[0, 0]


def reference_background_table(level: float, sigma: float) -> np.ndarray:
    """Entry i is the rounded, clipped byte of ``level + sigma * z`` at the
    i-th midpoint quantile z, each z from ``statistics``' inverse CDF."""
    return _rounded(level + sigma * _midpoint_quantiles())


def reference_render(truth: GroundTruth, layout: FaceLayout, cfg: RenderConfig,
                     seed: int) -> np.ndarray:
    """Full-frame scene painter: tests the face ellipse and every disk at
    every pixel and blurs the whole canvas.  Noise, without any face box:
    the scene pixels are those whose blurred value differs from the blurred
    plain-background level; one ``standard_normal`` call gives theirs in
    raster order, then one ``integers(0, 65536)`` call gives every pixel a
    uint16 index, and each other pixel takes that entry of
    ``reference_background_table``.  ``render_scene`` must match it byte
    for byte.  Skips the feature-margin check."""
    canvas = reference_canvas(truth, layout, cfg)
    if cfg.noise_sigma <= 0:
        return _rounded(canvas)
    level = reference_plain_level(cfg)
    scene = canvas != level
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(int(scene.sum()))
    draws = rng.integers(0, 65536, canvas.shape, dtype=np.uint16)
    img = reference_background_table(level, cfg.noise_sigma)[draws]
    img[scene] = _rounded(canvas[scene] + cfg.noise_sigma * z)
    return img


def reference_render_gaussian(truth: GroundTruth, layout: FaceLayout, cfg: RenderConfig,
                              seed: int) -> np.ndarray:
    """``reference_render``'s scene with the noise every pixel took before
    the background table: the whole frame's ``normal(0.0, sigma)``, added
    and rounded.  Frames recorded before the table came in are these."""
    canvas = reference_canvas(truth, layout, cfg)
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        canvas = canvas + rng.normal(0.0, cfg.noise_sigma, canvas.shape)
    return _rounded(canvas)


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
    """Centroid and eccentricity of one region from its own (row, col)
    pixels: exact Python-int sums over those pixels, each centroid
    coordinate and central moment rounded once by a single division, then
    the eigen formula ``connected_components`` applies."""
    xs = pixels[:, 1].tolist()
    ys = [(height - 1) - row for row in pixels[:, 0].tolist()]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    mu20 = (n * sum(x * x for x in xs) - sx * sx) / (n * n)
    mu02 = (n * sum(y * y for y in ys) - sy * sy) / (n * n)
    mu11 = (n * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (n * n)
    mid = 0.5 * (mu20 + mu02)
    spread = np.hypot(0.5 * (mu20 - mu02), mu11)
    l1 = mid + spread
    l2 = max(mid - spread, 0.0)
    ecc = 0.0 if l1 == 0 else float(np.sqrt(max(0.0, 1.0 - l2 / l1)))
    return Point(sx / n, sy / n), ecc


def _reference_region(rows: np.ndarray, cols: np.ndarray,
                      height: int) -> tuple[Region, np.ndarray]:
    min_col, max_col = int(cols.min()), int(cols.max())
    min_row, max_row = int(rows.min()), int(rows.max())
    pixels = np.column_stack((rows, cols))
    centroid, eccentricity = reference_moments(pixels, height)
    return Region(
        area=int(cols.size),
        bbox=(min_col, min_row, max_col, max_row),
        centroid=centroid,
        eccentricity=eccentricity,
    ), pixels


def reference_components(a: np.ndarray) -> tuple[list[Region], list[np.ndarray]]:
    """The row-loop labeler ``connected_components`` replaced: the rows of
    all 8-connected foreground regions, sorted by bounding-box origin, and
    each region's (row, col) pixels in raster order, with the same region
    order and moments."""
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
        regions.append(_reference_region(rows, cols, h))

    regions.sort(key=lambda reg: (reg[0].bbox[1], reg[0].bbox[0], reg[0].area))
    return [row for row, _ in regions], [pixels for _, pixels in regions]


def label_pixels(regions: Regions) -> list[np.ndarray]:
    """Each region's frame (row, col) pixels in raster order, read off the
    label image."""
    return [np.argwhere(regions.labels == i + 1) + regions.origin
            for i in range(len(regions))]


def reference_detect_pupil(roi: EyeRoi, pupil_diameter: float) -> tuple[PupilDetection, int]:
    """The threshold ladder as ``detect_pupil`` ran it one step at a time:
    binarize, open and label a 2-D mask per threshold, raising the threshold
    halfway toward the maximum while more than one candidate survives.
    A region touching the ROI's edge is no candidate.  Returns the
    detection and the number of steps taken, or raises the error
    ``detect_pupil`` must return for the region, with the same message."""
    eq = histogram_equalize(roi.image)
    element_diameter = max(1, round(0.10 * pupil_diameter))
    cleanup_radius = element_diameter // 2

    threshold = pupil_threshold(eq)
    i_max = float(eq.max())

    for attempt in range(MAX_RETRIES + 1):
        regions = connected_components(
            morphology(binarize(eq, threshold), cleanup_radius))
        min_col, min_row, max_col, max_row = regions.bbox.T
        border = ((min_row == 0) | (max_row == eq.shape[0] - 1) | (min_col == 0)
                  | (max_col == eq.shape[1] - 1))
        candidates = (~border & (regions.eccentricity < ECCENTRICITY_MAX)).nonzero()[0]
        if candidates.size == 1:
            (i,) = candidates.tolist()
            col = regions.x[i].item() + roi.col_origin
            roi_row = y_to_row(regions.y[i].item(), roi.image.shape[0])
            y = row_to_y(roi_row + roi.row_origin, roi.frame_height)
            return PupilDetection(point=Point(col, y), area=regions.area[i].item(),
                                  eccentricity=regions.eccentricity[i].item()), attempt + 1
        if candidates.size == 0:
            raise NoPupilFound(
                f"no pupil candidate at threshold {threshold:.1f} "
                f"(attempt {attempt + 1})"
            )
        if attempt == MAX_RETRIES:
            raise AmbiguousPupil(
                f"{candidates.size} candidates left after {MAX_RETRIES} retries"
            )
        threshold = threshold + 0.5 * (i_max - threshold)
    raise AssertionError("unreachable")


_WHITESPACE = b" \t\r\n\x0b\x0c"


def reference_decode_pgm(data: bytes) -> np.ndarray:
    """Parse a binary PGM stream into a read-only image over its own copy
    of the samples."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c in _WHITESPACE:
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in b"\r\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
            pos += 1
        if start == pos:
            raise TruncatedData("stream ended inside the PGM header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise BadMagic(f"expected magic 'P5', got {magic!r}")

    fields = []
    for name in ("width", "height", "maxval"):
        token = next_token()
        try:
            if not token.isdigit():  # ASCII digits only, unlike int()
                raise ValueError
            fields.append(int(token))  # raises past 4300 digits
        except ValueError:
            raise PgmError(f"non-numeric {name} field: {token!r}") from None
    width, height, maxval = fields

    if width <= 0 or height <= 0:
        raise PgmError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval}; only 8-bit (255) is supported")

    # Exactly one whitespace byte separates the header from the samples.
    pos += 1
    need = width * height
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise TruncatedData(f"expected {need} samples, got {len(raw)}")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    img.setflags(write=False)
    return img
