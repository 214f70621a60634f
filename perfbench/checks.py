"""Correctness checks and quality figures computed from a run's artifacts.

Everything here reads the files the CLI wrote and compares them with the
manifest's ground truth or with tables recomputed independently; nothing is
compared with a stored copy of earlier output, and nothing calls into
``irgaze``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

FEATURE_TOL_PX = 1.5
GRID_NS = range(2, 11)

_SYNTH_RE = re.compile(
    r"^(\d+) training \+ (\d+) evaluation frames(?:, (\d+) skipped)?$", re.M)
_DETECT_RE = re.compile(r"^(\d+)/(\d+) frames detected -> ", re.M)
_ESTIMATE_RE = re.compile(r"^(\d+)/(\d+) estimates -> ", re.M)


def parse_counts(stage: str, stdout: str) -> tuple[int, int]:
    """(attempted, failed) from a stage's summary line: frames rendered or
    skipped by synth, frames detected or error rows by detect, estimates
    made or error rows by estimate.  Raises ValueError when the line is
    missing."""
    if stage == "synth":
        m = _SYNTH_RE.search(stdout)
        if m:
            skipped = int(m.group(3) or 0)
            return int(m.group(1)) + int(m.group(2)) + skipped, skipped
    else:
        m = {"detect": _DETECT_RE, "estimate": _ESTIMATE_RE}[stage].search(stdout)
        if m:
            ok, total = int(m.group(1)), int(m.group(2))
            return total, total - ok
    raise ValueError(f"no {stage} summary line in {stdout!r}")


def accuracy_table(pairs, width_cm: float, height_cm: float, ns=GRID_NS) -> list[float]:
    """Percent of (estimate, truth) pairs under half a cell in both axes
    (strict) on an n-by-n grid, for each n."""
    table = []
    for n in ns:
        half_x = width_cm / (2.0 * n)
        half_y = height_cm / (2.0 * n)
        hits = sum(1 for (ex, ey), (tx, ty) in pairs
                   if abs(ex - tx) < half_x and abs(ey - ty) < half_y)
        table.append(100.0 * hits / len(pairs))
    return table


def check_table(table: list[float], ns=GRID_NS) -> list[str]:
    """Problems with a recomputed accuracy table (percent, indexed like ns)."""
    problems = []
    by_n = dict(zip(ns, table))
    if any(b > a for a, b in zip(table, table[1:])):
        problems.append(f"accuracy table is not non-increasing in N: {table}")
    for n in (2, 3):
        if by_n.get(n) != 100.0:
            problems.append(f"accuracy at N={n} is {by_n.get(n)}%, not 100%")
    if by_n.get(5, 0.0) < 95.0:
        problems.append(f"accuracy at N=5 is {by_n.get(5)}%, below 95%")
    return problems


def _read_report(path: Path) -> dict[int, str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {int(r[0]): r[1] for r in rows[1:]}


def check_artifacts(wd: Path) -> tuple[list[str], dict[str, float]]:
    """Check one round's artifacts in ``wd``; returns (problems, figures)
    where figures holds the marker, pupil and gaze errors."""
    problems: list[str] = []
    manifest = json.loads((wd / "data" / "manifest.json").read_text())
    frames = {Path(e["file"]).stem: e for e in manifest["frames"]}

    with open(wd / "obs.jsonl") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if sorted(r["frame"] for r in rows) != sorted(frames):
        problems.append("observations do not cover exactly the manifest's frames")
    marker_err, pupil_err = [], []
    for row in rows:
        if not row["ok"] or row["frame"] not in frames:
            continue
        t = frames[row["frame"]]["truth"]
        pts = [(row["markers"][side], f"m{side[0]}") for side in ("right", "middle", "left")]
        pts += [(row["pupils"][side]["point"], f"p{side[0]}")
                for side in ("right", "left") if row["pupils"][side] is not None]
        for (x, y), key in pts:
            d = math.hypot(x - t["x_" + key], y - t["y_" + key])
            (marker_err if key[0] == "m" else pupil_err).append(d)
            if d > FEATURE_TOL_PX:
                problems.append(f"{row['frame']}: {key} is {d:.2f} px from truth")

    with open(wd / "est.csv", newline="") as fh:
        estimates = {r["frame"]: (float(r["x_g"]), float(r["y_g"]))
                     for r in csv.DictReader(fh) if not r["error"] and r["x_g"]}
    truths = {f: tuple(e["gaze"]) for f, e in frames.items() if e["role"] == "evaluation"}
    joined = sorted(set(truths) & set(estimates))
    gaze_err = [math.hypot(estimates[f][0] - truths[f][0], estimates[f][1] - truths[f][1])
                for f in joined]
    if not joined:
        problems.append("no evaluation frame has an estimate")
    else:
        screen = manifest["screen"]
        table = accuracy_table([(estimates[f], truths[f]) for f in joined],
                               screen["Lx"], screen["Ly"])
        problems += check_table(table)
        report = _read_report(wd / "report" / "report.csv")
        expected = {n: f"{pct:.1f}" for n, pct in zip(GRID_NS, table)}
        if report != expected:
            problems.append(f"report.csv {report} differs from recomputed {expected}")

    def mean(v):
        return sum(v) / len(v) if v else float("nan")

    return problems, {"marker_err_px": mean(marker_err), "pupil_err_px": mean(pupil_err),
                      "gaze_err_cm": mean(gaze_err)}
