"""Benchmark of the gfe25 verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Every operation runs in a fresh interpreter (child.py) with an empty private
XDG_CACHE_HOME and without GFE_DATA_DIR, because each `gfe` invocation pays
the import and the lazily built number-field data, and because the package
caches those in-process.  Operations start one after another (a closed loop
with one client) until S seconds have passed and at least MIN_OPS have run;
set-up probes, which import the package, verify its data and exit, run
before every operation and after the last.

--trace 0 prints the end-to-end metrics.  wall_s is the time of one
operation from spawn to exit, split into set-up and the phases the operation
marks, with each phase at its fastest over the run's operations.  setup_s is
the median set-up time over every process started.  Both are scaled by the
host's speed: every probe times a fixed pure-Python gauge, and the times are
multiplied by GAUGE_S over the run's fastest gauge.  peak_rss_mb is the
median peak RSS per operation from os.wait4.
--trace 1 runs one traced operation and prints its per-layer metrics, with
the tracing overhead: the number of wrapped calls times the cost of one
wrapper, measured in the same process.

The lines before the last describe the run for a reader: environment, output
digest and every metric with its unit.  The last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 2
PROBES_PER_OP = 2
# wall_s and setup_s are scaled to a host on which child.host_gauge takes
# this many seconds
GAUGE_S = 0.25
RUN_LIMIT_S = 170  # no operation starts that could end later than this
CORE_LAYERS = ("descent.", "algebra.", "bforms.", "frey.")


def spawn(workload, inputs, trace, scratch, deadline=None):
    """Run one child to completion; returns its result dict, with the wall
    time, set-up time and peak RSS measured here, or None on a crash.
    A child still running five seconds after the monotonic `deadline` is
    killed."""
    cache = scratch / "cache"
    cache.mkdir(parents=True)
    spec = {"root": str(ROOT), "workload": workload, "inputs": inputs,
            "trace": trace, "result": str(scratch / "result.json")}
    env = {k: v for k, v in os.environ.items()
           if k not in ("GFE_DATA_DIR", "PYTHONPATH")}
    env["XDG_CACHE_HOME"] = str(cache)
    env["PYTHONHASHSEED"] = "0"  # every operation takes the same code paths
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=env, cwd=scratch, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    limit = RUN_LIMIT_S if deadline is None else deadline - started + 5
    timer = threading.Timer(max(limit, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: end the child before leaving
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        result = json.loads((scratch / "result.json").read_text())
        result.update(started=started, ended=ended, wall_s=ended - started,
                      setup_s=result["ready"] - started,
                      peak_rss_mb=usage.ru_maxrss / 1024)
    shutil.rmtree(scratch)
    return result


def phases(result):
    """[(name, seconds)] of one operation from spawn to exit: set-up, each
    phase the operation marked, and the exit after its last mark."""
    out, prev = [("setup", result["ready"] - result["started"])], \
        result["ready"]
    for name, t in result["marks"]:
        out.append((name, t - prev))
        prev = t
    out.append(("exit", result["ended"] - prev))
    return out


def best_phases(done, probes=()):
    """Each phase at its fastest over the operations that split into the
    same phases as the first.  Set-up is the same work in a probe as in an
    operation, so its fastest is taken over the probes too."""
    names = [name for name, _ in phases(done[0])]
    rows = [[t for _, t in phases(r)] for r in done
            if [name for name, _ in phases(r)] == names]
    best = list(zip(names, map(min, zip(*rows))))
    setups = [r["setup_s"] for r in probes if r is not None]
    best[0] = ("setup", min([best[0][1]] + setups))
    return best


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through spawn so that no child outlives the run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "gfe25" / "__init__.py").is_file():
        sys.exit(f"error: no gfe25 package under {ROOT / 'src'}; run from "
                 "the root of a checkout")

    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = workloads.make_inputs(args.workload, args.seed)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    count = iter(range(10**6))

    def op(workload=args.workload, trace=False):
        return spawn(workload, inputs, trace, tmp / str(next(count)),
                     deadline)

    def probe():
        return [op(workload=None) for _ in range(PROBES_PER_OP)]

    try:
        if args.trace:
            ops = [op(trace=True)]
            probes = []
        else:
            ops, probes, t0 = [], [], time.monotonic()
            longest = 0.0
            while len(ops) < MIN_OPS or time.monotonic() - t0 < args.seconds:
                if ops and time.monotonic() + 1.5 * longest > deadline:
                    break
                started = time.monotonic()
                probes += probe()
                ops.append(op())
                longest = max(longest, time.monotonic() - started)
            probes += probe()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    done = [r for r in ops if r is not None]
    failed = [r for r in ops if r is None or r["problems"]]
    digests = sorted({r["digest"] for r in done if not r["problems"]})
    if len(digests) > 1:
        failed = ops  # the same inputs gave different outputs
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"inputs={json.dumps(inputs)} ops={len(ops)} trace={args.trace}")
    if done:
        env = dict(done[0]["env"], nproc=len(os.sched_getaffinity(0)))
        print(f"env {json.dumps(env)}")
    print(f"outputs_sha256 {' '.join(digests) or 'none'}")
    for r in done:
        for problem in r["problems"]:
            print(f"FAILED {problem}")

    if not done:
        sys.exit("error: every operation crashed")
    if args.trace:
        metrics = _layer_metrics(ops[0])
    else:
        if not any(probes):
            sys.exit("error: every set-up probe crashed")
        metrics, measured = _end_to_end(done, probes)
        print("measured " + " ".join(
            f"{name}={value:.4f}" for name, value in measured.items()))
        walls = [r["wall_s"] for r in done]
        lo, hi = quartiles(walls)
        print(f"operation spawn to exit: n={len(done)} "
              f"median={statistics.median(walls):.4f} q1={lo:.4f} "
              f"q3={hi:.4f}")
        print("fastest phases " + " ".join(
            f"{name}={t:.4f}" for name, t in best_phases(done, probes)))
    print(f"metric fail_ratio {len(failed) / len(ops):.4f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def _end_to_end(done, probes):
    """The end-to-end metrics, with wall_s and setup_s scaled to a host on
    which host_gauge takes GAUGE_S seconds, and the measured figures they
    are scaled from."""
    setups = [r["setup_s"] for r in done + probes if r is not None]
    measured = {"wall_s": sum(t for _, t in best_phases(done, probes)),
                "setup_s": statistics.median(setups),
                "gauge_s": min(r["gauge_s"] for r in probes if r is not None)}
    scale = GAUGE_S / measured["gauge_s"]
    return {
        "wall_s": (measured["wall_s"] * scale, "s"),
        "setup_s": (measured["setup_s"] * scale, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done),
                        "MB"),
    }, measured


def _layer_metrics(traced):
    """Per-layer metrics of the traced operation."""
    m = dict(traced["layers"])
    candidates = m["search.candidates"]
    search_s = m["search.rational_points.s"]
    core = sum(v for name, v in m.items()
               if name.endswith(".self_s") and name.startswith(CORE_LAYERS))
    m.update({
        "search.prescreen_pass_ratio":
            m["search.prescreen_survivors"] / candidates if candidates else 0.0,
        "search.pairs_per_s": candidates / search_s if search_s else 0.0,
        "cli.run_pipeline.cached_s": dict(phases(traced)).get("cached", 0.0),
        "trace.work_s": traced["work_s"],
        "trace.core_self_share": core / traced["work_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["overhead_s"],
    })
    return {name: (m[name], unit)
            for name, unit in layer_metric_names().items()}


def layer_metric_names():
    """Name -> unit of every metric a traced run prints."""
    names = {}
    for prefix in spans.LAYERS:
        names.update({f"{prefix}.calls": "count", f"{prefix}.s": "s",
                      f"{prefix}.self_s": "s"})
    names.update({name: "count" for name in spans.COUNTERS})
    names.update({"search.prescreen_pass_ratio": "ratio",
                  "search.pairs_per_s": "1/s",
                  "cli.run_pipeline.cached_s": "s",
                  "trace.wrapped_s": "s", "trace.work_s": "s",
                  "trace.core_self_share": "ratio",
                  "trace.wall_s": "s", "trace.overhead_s": "s"})
    return names


if __name__ == "__main__":
    main()
