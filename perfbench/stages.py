"""One workload process: set up, then drive synth -> detect -> train ->
estimate -> evaluate through ``irgaze.cli.main`` in this process.

Started by run.py, never by hand; it finds ``irgaze`` on the PYTHONPATH that
run.py sets (the checkout's ``src/``).  ``--t0`` is run.py's
``time.monotonic()`` just before the spawn (the clock is system-wide), so
the set-up time covers interpreter start, imports and writing the config.
With ``--setup-only`` the process stops there.  Otherwise it runs whole
rounds until ``--seconds`` have passed (at least one, and none that would
likely end after twice ``--seconds``).  It writes ``result.json`` into
``--workdir``; with ``--trace`` it also records spans and writes them to
that file at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from irgaze import cli

import spans
from workloads import WORKLOADS

ARTIFACTS = ("data/manifest.json", "obs.jsonl", "est.csv",
             "report/report.csv", "report/details_est.csv")


def _stage(rec, name: str, argv: list[str]) -> dict:
    buf = io.StringIO()
    span = rec.span("cli." + name) if rec is not None else contextlib.nullcontext()
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    seconds = time.perf_counter() - start
    return {"rc": rc, "s": seconds, "stdout": buf.getvalue()}


def run_round(wd: Path, cfg: Path, seed: int, detect_passes: int, rec) -> dict:
    """The five stages, then ``detect_passes - 1`` more detect passes, which
    rewrite identical observations."""
    common = ["--config", str(cfg), "--seed", str(seed)]
    man = str(wd / "data" / "manifest.json")
    obs, ts, est = str(wd / "obs.jsonl"), str(wd / "ts.json"), str(wd / "est.csv")
    argvs = {
        "synth": ["synth", *common, "--out", str(wd / "data")],
        "detect": ["detect", *common, "--jobs", "1", "--manifest", man, "--out", obs],
        "train": ["train", *common, "--observations", obs, "--manifest", man, "--out", ts],
        "estimate": ["estimate", *common, "--observations", obs, "--training-set", ts,
                     "--out", est],
        "evaluate": ["evaluate", *common, "--estimates", est, "--manifest", man,
                     "--out", str(wd / "report")],
    }
    out: dict = {"stages": {}, "detect_passes": []}
    start = time.perf_counter()
    for name in ("synth", "detect", "train", "estimate", "evaluate"):
        res = _stage(rec, name, argvs[name])
        out["stages"][name] = res
        if res["rc"] != 0:
            return out
    out["pipeline_s"] = time.perf_counter() - start
    out["detect_passes"].append(out["stages"]["detect"])
    for _ in range(detect_passes - 1):
        out["detect_passes"].append(_stage(rec, "detect", argvs["detect"]))
    out["hashes"] = {a: hashlib.sha256((wd / a).read_bytes()).hexdigest()
                     for a in ARTIFACTS}
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    args = p.parse_args()

    wd = Path(args.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    cfg = wd / "config.json"
    cfg.write_text(json.dumps(workload["config"]))
    result: dict = {"setup_s": time.monotonic() - args.t0,
                    "irgaze_file": cli.__file__, "rounds": []}

    if not args.setup_only:
        rec = spans.Recorder() if args.trace else None
        with spans.instrument(rec) if rec is not None else contextlib.nullcontext():
            start = time.monotonic()
            while True:
                round_start = time.monotonic()
                r = run_round(wd, cfg, args.seed, workload["detect_passes"], rec)
                result["rounds"].append(r)
                now = time.monotonic()
                if ("hashes" not in r or now - start >= args.seconds
                        or now - start + (now - round_start) > 2 * args.seconds):
                    break
        if rec is not None:
            rec.dump(args.trace)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (wd / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
