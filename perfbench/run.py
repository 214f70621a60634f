"""Stage-by-stage benchmark of the irgaze pipeline.

    python3 perfbench/run.py --workload nominal_640 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is taken from its ``src/``.
Each workload runs in a fresh process (stages.py) that drives synth ->
detect -> train -> estimate -> evaluate through ``irgaze.cli.main``,
serially (``--jobs 1``), with ``--seed`` passed to every stage.

``--trace 0`` measures the end-to-end metrics with tracing off; set-up time
is the median over several fresh processes.  ``--trace 1`` runs one round
untraced and one round traced, checks that their artifacts are
byte-identical, and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs go to a temporary directory under
``perfbench/runs/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
SETUP_PROBES = 4  # extra set-up-only processes; the workload process is one more

class BenchError(Exception):
    """The benchmark could not run the program to the end."""


class Runner:
    """Spawns workload processes under one deadline."""

    def __init__(self, tmp: Path, workload: str, seed: int):
        self.tmp = tmp
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def spawn(self, name: str, *extra: str) -> dict:
        wd = self.tmp / name
        cmd = [sys.executable, str(HERE / "stages.py"), "--workdir", str(wd),
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting " + name)
        t0 = time.monotonic()
        try:
            proc = subprocess.run([*cmd, "--t0", repr(t0)], env=self.env,
                                  stdout=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} process exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{name} process exited with code {proc.returncode}")
        result = json.loads((wd / "result.json").read_text())
        expected = (ROOT / "src" / "irgaze" / "cli.py").resolve()
        if Path(result["irgaze_file"]).resolve() != expected:
            raise BenchError(f"imported irgaze from {result['irgaze_file']}, "
                             f"not from {expected}")
        result["workdir"] = wd
        return result


def round_counts(r: dict) -> tuple[int, int]:
    """(attempted, failed) over one round's synth, detect and estimate passes."""
    outputs = [(stage, r["stages"][stage]["stdout"])
               for stage in ("synth", "estimate") if stage in r["stages"]]
    outputs += [("detect", p["stdout"]) for p in r["detect_passes"]]
    attempted = failed = 0
    for stage, stdout in outputs:
        a, f = checks.parse_counts(stage, stdout)
        attempted += a
        failed += f
    return attempted, failed


def check_rounds(result: dict) -> tuple[list[str], dict, int, int]:
    """Checks shared by both modes: every stage succeeded, every round wrote
    the same artifacts, and those artifacts are right."""
    problems = []
    attempted = failed = 0
    for i, r in enumerate(result["rounds"]):
        for stage, res in r["stages"].items():
            if res["rc"] != 0:
                problems.append(f"round {i}: {stage} exited with code {res['rc']}")
        a, f = round_counts(r)
        attempted += a
        failed += f
    rounds = result["rounds"]
    if any("hashes" not in r or r["hashes"] != rounds[0].get("hashes") for r in rounds):
        problems.append("rounds did not all complete with identical artifacts")
        return problems, {}, attempted, failed
    more, figures = checks.check_artifacts(result["workdir"])
    return problems + more, figures, attempted, failed


def end_to_end(runner: Runner, seconds: float) -> tuple[list[str], dict, int, int]:
    setup = [runner.spawn(f"setup{i}", "--setup-only")["setup_s"]
             for i in range(SETUP_PROBES)]
    result = runner.spawn("run", "--seconds", str(seconds))
    setup.append(result["setup_s"])
    problems, figures, attempted, failed = check_rounds(result)
    rounds = result["rounds"]
    if not figures:
        return problems, {}, attempted, failed

    def rate(stage: str, samples: list[dict]) -> float:
        done, _ = checks.parse_counts(stage, rounds[0]["stages"][stage]["stdout"])
        return done / min(p["s"] for p in samples)

    # Timings take the fastest sample of the run: on a shared host the CPU
    # slows by up to 2x for tens of seconds at a time, never the other way.
    metrics = {
        "setup_s": statistics.median(setup),
        "pipeline_s": min(r["pipeline_s"] for r in rounds),
        "synth_fps": rate("synth", [r["stages"]["synth"] for r in rounds]),
        "detect_fps": rate("detect", [p for r in rounds for p in r["detect_passes"]]),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        **figures,
    }
    print(f"{len(rounds)} round(s); set-up samples {[round(s, 3) for s in setup]}")
    return problems, metrics, attempted, failed


def per_layer(runner: Runner) -> tuple[list[str], dict, int, int]:
    plain = runner.spawn("plain", "--seconds", "0")
    trace_file = runner.tmp / "spans.jsonl"
    traced = runner.spawn("traced", "--seconds", "0", "--trace", str(trace_file))
    problems, _, attempted, failed = check_rounds(plain)
    more, _, a2, f2 = check_rounds(traced)
    problems += more
    for artifact in plain["rounds"][0].get("hashes", {}):
        if (plain["workdir"] / artifact).read_bytes() != (traced["workdir"] / artifact).read_bytes():
            problems.append(f"traced run changed {artifact}")
    if problems:
        return problems, {}, attempted + a2, failed + f2
    metrics = spans.layer_metrics(spans.load_spans(trace_file))
    metrics["trace.overhead_s"] = (traced["rounds"][0]["pipeline_s"]
                                   - plain["rounds"][0]["pipeline_s"])
    return problems, metrics, attempted + a2, failed + f2


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "irgaze" / "cli.py").is_file():
        print(f"error: no irgaze sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs))
    try:
        runner = Runner(tmp, args.workload, args.seed)
        if args.trace:
            problems, metrics, attempted, failed = per_layer(runner)
        else:
            problems, metrics, attempted, failed = end_to_end(runner, args.seconds)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    for msg in problems[:20]:
        print("check failed: " + msg, file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more", file=sys.stderr)
    for name in units:
        if name in metrics:
            print(f"{name:34s} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
