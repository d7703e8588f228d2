"""One cold pass of a workload, in a fresh interpreter.

Started by run.py, never by hand.  It imports pqsurf from the checkout's
``src``, loads the workload manifest, stamps the moment it is ready, runs
every operation once in manifest order (timing each and measuring the
machine's speed around and during it), and writes timings and the raw
outputs to a JSON file for run.py to check.  With ``--setup-only`` it stops
after the ready stamp; with ``--trace`` it records spans around pqsurf's
public functions and writes them next to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_cli(pqsurf, op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pqsurf.cli.main(op["argv"])
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _run_search(pqsurf, op):
    degree = op["degree"]
    gens = [pqsurf.perms.parse_permutation(g, degree) for g in op["generators"]]
    group = pqsurf.groups.group_from_generators(gens)
    return pqsurf.covering.search_generating_vectors(group, op["genus0"], tuple(op["orders"]))


def _search_output(vectors):
    out = []
    for gv in vectors:
        flat = [p for pair in gv.handles for p in pair] + list(gv.monodromies)
        out.append([list(p.images) for p in flat])
    return out


def _run_lattices(pqsurf, op):
    lat = pqsurf.lattice
    out = []
    for item in op["items"]:
        if item["kind"] == "k3":
            m = lat.k3_lattice()
        elif item["kind"] == "lambda":
            m = lat.lambda_d(item["d"])
        else:
            m = lat.IntegralLattice(tuple(tuple(row) for row in item["gram"]))
        sig = lat.signature(m)
        disc = lat.discriminant_group(m)
        out.append(
            {
                "signature": list(sig),
                "factors": list(disc.invariant_factors),
                "embedding": lat.k3_embeddable(m),
            }
        )
    return out


RUNNERS = {"cli": _run_cli, "search": _run_search, "lattice": _run_lattices}

# The VM's CPU speed drifts by up to +-25% over seconds to minutes, for wall
# and CPU time alike.  A fixed piece of permutation work (closing S5 under
# two generators: tuple composition, hashing and set lookups, the kind of
# code pqsurf spends its time in), timed before and after each operation and
# every SAMPLE_EVERY_S during it from a SIGALRM handler in the main thread,
# measures the speed while the operation runs.  The operation's time, less
# the time spent in that work, is scaled to a machine on which one closure
# takes REFERENCE_CLOSURE_S.  A tight integer loop tracked pqsurf's slowdowns
# far worse: repeated S5 searches varied by 0.115 (IQR over median) scaled
# by it, and by 0.013 scaled by the closure.
REFERENCE_CLOSURE_S = 2.5e-4
EDGE_CLOSURES = 20
SAMPLE_CLOSURES = 4
SAMPLE_EVERY_S = 0.05
_S5 = ((2, 1, 3, 4, 5), (2, 3, 4, 5, 1))


def _close_s5() -> None:
    identity = (1, 2, 3, 4, 5)
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in _S5:
            y = tuple(g[i - 1] for i in x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)


class Speedometer:
    """Samples of the calibration work: (closures, wall s, CPU s)."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, float, float]] = []
        self.spent_wall = self.spent_cpu = 0.0
        self._busy = False

    def sample(self, closures: int = SAMPLE_CLOSURES) -> None:
        if self._busy:
            return
        self._busy = True
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(closures):
            _close_s5()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.samples.append((closures, wall, cpu))
        self.spent_wall += wall
        self.spent_cpu += cpu
        self._busy = False

    def on_alarm(self, signum, frame) -> None:
        self.sample()

    def scale(self, since: int) -> tuple[float, float]:
        """Reference seconds per measured second (wall, CPU) over the samples
        taken from index ``since`` on."""
        window = self.samples[since:]
        closures = sum(n for n, _, _ in window)
        wall = sum(w for _, w, _ in window)
        cpu = sum(c for _, _, c in window)
        return REFERENCE_CLOSURE_S * closures / wall, REFERENCE_CLOSURE_S * closures / cpu


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="span file to write")
    parser.add_argument("--trace-id", default="")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter_ns()
    import pqsurf
    import pqsurf.cli
    import_end = time.perf_counter_ns()
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    ready = time.monotonic()
    speed = Speedometer()
    speed.sample(EDGE_CLOSURES)
    result = {"ready": ready, "ready_scale": speed.scale(0)[0]}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(args.trace_id)
        recorder.add(spans.IMPORT_SPAN, import_start, import_end)
        spans.install(recorder, pqsurf)

    ops = []
    signal.signal(signal.SIGALRM, speed.on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        for op in manifest["ops"]:
            runner = RUNNERS[op["kind"]]
            since = len(speed.samples)
            speed.sample(EDGE_CLOSURES)
            spent_wall, spent_cpu = speed.spent_wall, speed.spent_cpu
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                if recorder is not None:
                    with recorder.span("op"):
                        value = runner(pqsurf, op)
                else:
                    value = runner(pqsurf, op)
                error = None
            except (Exception, SystemExit):
                value, error = None, traceback.format_exc()
            wall = time.perf_counter() - start - (speed.spent_wall - spent_wall)
            cpu = time.process_time() - cpu_start - (speed.spent_cpu - spent_cpu)
            speed.sample(EDGE_CLOSURES)
            wall_scale, cpu_scale = speed.scale(since)
            ops.append(
                {
                    "name": op["name"],
                    "wall_s": wall,
                    "cpu_s": cpu,
                    "ref_s": wall * wall_scale,
                    "ref_cpu_s": cpu * cpu_scale,
                    "error": error,
                    "value": value,
                }
            )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, rec in zip(manifest["ops"], ops):
        if op["kind"] == "search" and rec["value"] is not None:
            rec["value"] = _search_output(rec["value"])
    result["ops"] = ops
    if recorder is not None:
        recorder.write(args.trace)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
