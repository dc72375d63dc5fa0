"""The iwagrowth benchmark.

    python3 bench/run.py --workload {tower,ranks,cli-mix} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; iwagrowth is imported from ``src/``.
Each run starts fresh interpreters with PYTHONHASHSEED pinned: several that
only set up (import and build the seeded inputs), for the median set-up
time, and one that sets up and then times whole rounds of the workload for
about S seconds (see worker.py).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same object, plus the raw round data, is written under ``bench/results/``.
See README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tower", "ranks", "cli-mix")
# Set-up-only interpreters per run; with the measuring one, setup_s is the
# median of SETUP_SAMPLES + 1 set-ups.
SETUP_SAMPLES = 6
# The whole run must end within 180 s.
DEADLINE_S = 170
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "frontier_levels": "levels", "peak_rss_mb": "MiB"}


def spawn(args, extra, timeout):
    """Run worker.py once; returns its JSON output and its set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "iwagrowth", "__init__.py")):
        print("error: run from a checkout of iwagrowth (src/iwagrowth is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups, raw_setups = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                one = spawn(args, ["--setup-only"], 60)
                setups.append(one["setup_s"])
                raw_setups.append(one["raw_setup_s"])
        out = spawn(args, [], deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        out["setup_samples"] = setups
        out["raw_setup_samples"] = raw_setups + [out["raw_setup_s"]]
        units = UNITS
    else:
        sys.path.insert(0, HERE)
        import spans

        units = spans.METRICS
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**out, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
