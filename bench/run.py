"""pqsurf benchmark: cold passes over a workload, checked by independent oracles.

    python3 bench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(bench/child.py), so no pqsurf cache carries work from one pass to the next,
and every pass's outputs go through the oracles in bench/oracles.py.  Passes
run one after another, never in parallel.  Passes are started while the
time already spent plus the longest pass so far fits in ``--seconds``; at
least one always runs (one untraced and one traced with ``--trace 1``).

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
setup_s, pass_s, pass_cpu_s, op_geomean_s and peak_rss_mib.  The pass and
operation times are in reference seconds: each operation's time is scaled
by the speed of a fixed loop measured while it ran (see child.py), so that
the VM's drifting CPU speed does not move them; the unscaled medians go to
stderr.  setup_s is scaled by the speed measured right after set-up.  With
``--trace 1`` untraced and traced passes alternate and the last line
reports the per-layer metrics of the traced passes plus the tracing
overhead.  The exit code is 0 whenever a result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_cpu_s": "s",
    "op_geomean_s": "s",
    "peak_rss_mib": "MiB",
}


def _spawn(manifest: Path, out: Path, extra=()) -> tuple[dict, float]:
    """Run one child; returns its result and its setup time (spawn to ready),
    scaled by the machine speed measured right after ready."""
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--manifest", str(manifest), "--out", str(out), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(out.read_text(encoding="utf-8"))
    return result, (result["ready"] - spawned) * result["ready_scale"]


def _total(result: dict, key: str) -> float:
    """Sum of one timing over a pass's operations."""
    return sum(op[key] for op in result["ops"])


def _unit(name: str) -> str:
    if name.endswith("_calls") or name.endswith("_orbits"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pqsurf" / "__init__.py").is_file():
        sys.stderr.write(f"no pqsurf sources under {ROOT / 'src'}\n")
        return 2
    work = ROOT / "bench" / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, ROOT, work)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "ops": ops}), encoding="utf-8")
    result_path = work / "result.json"

    started = time.monotonic()
    setups = [_spawn(manifest, result_path, ["--setup-only"])[1] for _ in range(SETUP_PROBES)]

    attempted = failed = 0
    problems: list[str] = []
    groups: dict = {}
    passes: list[dict] = []       # untraced passes
    traced: list[dict] = []       # per-layer metrics of traced passes
    traced_pass_s: list[float] = []
    longest = 0.0
    while True:
        k = len(passes) + len(traced_pass_s)
        # untraced and traced passes in ABBA order, so neither side always runs first
        tracing = bool(args.trace) and k % 4 in (1, 2)
        extra = []
        if tracing:
            span_file = work / f"spans-{k}.jsonl"
            extra = ["--trace", str(span_file), "--trace-id", f"{args.workload}-{args.seed}-{k}"]
        begun = time.monotonic()
        result, setup = _spawn(manifest, result_path, extra)
        longest = max(longest, time.monotonic() - begun)
        setups.append(setup)
        for op, rec in zip(ops, result["ops"]):
            attempted += 1
            if rec["error"] is not None:
                failed += 1
                sys.stderr.write(f"pass {k} {rec['name']} failed:\n{rec['error']}\n")
                continue
            try:
                found = oracles.check_op(op, rec["value"], groups)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                found = [f"malformed output: {exc!r}"]
            problems += [f"pass {k} {rec['name']}: {problem}" for problem in found]
        if tracing:
            traced.append(spans.layer_metrics(span_file))
            traced_pass_s.append(_total(result, "ref_s"))
        else:
            passes.append(result)
        done = len(passes) + len(traced_pass_s)
        if done % (1 + args.trace) == 0:
            if time.monotonic() - started + longest > args.seconds:
                break

    for line in problems:
        sys.stderr.write(f"WRONG {line}\n")
    if args.trace:
        metrics = {}
        for name in traced[0]:
            unit = _unit(name)
            # counts repeat exactly from pass to pass; keep them whole numbers
            pick = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": pick(t[name] for t in traced), "unit": unit}
        overhead = statistics.median(traced_pass_s) - statistics.median(_total(p, "ref_s") for p in passes)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        sys.stderr.write(
            f"tracing overhead: {overhead:.4f} s per pass "
            f"({len(traced_pass_s)} traced, {len(passes)} untraced passes)\n"
        )
    else:
        op_medians = [
            statistics.median(p["ops"][i]["ref_s"] for p in passes) for i in range(len(ops))
        ]
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(_total(p, "ref_s") for p in passes),
            "pass_cpu_s": statistics.median(_total(p, "ref_cpu_s") for p in passes),
            "op_geomean_s": math.exp(sum(math.log(v) for v in op_medians) / len(op_medians)),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        sys.stderr.write(
            f"{len(passes)} passes, {len(setups)} set-ups; unscaled pass wall "
            f"{statistics.median(_total(p, 'wall_s') for p in passes):.4f} s, CPU "
            f"{statistics.median(_total(p, 'cpu_s') for p in passes):.4f} s; per-op medians: "
            + ", ".join(f"{op['name']}={v:.4f}" for op, v in zip(ops, op_medians))
            + "\n"
        )
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
