"""One run of one workload, in a fresh interpreter started by run.py.

Sets up (imports iwagrowth from ``src/`` and builds the workload's seeded
inputs), times whole rounds of the workload's operations, checks every
output against ``checks.py`` and prints one JSON object on stdout.  Every
round starts with gc collected and the program's function caches cleared,
so each round does the same work.  Between operations, about once a second,
it samples the host's speed (``speed.py``); every time metric is in
reference seconds, each operation scaled by the samples around it.  With ``--trace 1`` it times one plain
round and one traced round, and reports the per-layer metrics of the traced
one.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
# Every run measures at least this many rounds, so that each operation of
# the one-round-long tower is timed at two moments.
MIN_ROUNDS = 2
# Seconds of operations between two samples of the host's speed.  A sample
# is taken only after an operation of at least SAMPLE_AFTER_S seconds, whose
# own working set has already displaced the CPU caches, so that the kernel
# does not slow the small operation that follows it.
SAMPLE_EVERY_S = 1.0
SAMPLE_AFTER_S = 0.05


class OpError:
    """An exception raised by an operation; every check of it fails."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"OpError({self.exc!r})"


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "iwagrowth" or name.startswith("iwagrowth."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def run_round(plan, spd, tracer=None):
    """Time every operation once; returns (per-op seconds, results, indices
    of the operations after which ``spd`` sampled the host's speed).

    The samples fall between operations, outside their timing (see
    SAMPLE_EVERY_S).
    """
    gc.collect()
    clear_caches()
    results = {}
    times = []
    sampled_after = []
    clock = time.perf_counter
    last = clock()
    for i, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            r = op.fn()
        except Exception as exc:
            r = OpError(exc)
        t1 = clock()
        times.append(t1 - t0)
        results[op.key] = r
        if t1 - last >= SAMPLE_EVERY_S and t1 - t0 >= SAMPLE_AFTER_S:
            spd.sample()
            sampled_after.append(i)
            last = clock()
    return times, results, sampled_after


def run_checks(plan, results, first_round: bool):
    """(checked, failed known-fault operations, mismatches) of one round."""
    checked = failed = 0
    bad = []
    for c in plan.checks:
        if c.first_round_only:
            continue
        args = [results[k] for k in c.keys]
        if any(isinstance(a, OpError) for a in args):
            found = [f"{c.keys}: {a!r}" for a in args if isinstance(a, OpError)]
        else:
            found = c.fn(*args)
        checked += 1
        if found and c.known_fault:
            failed += 1
            if first_round:
                print(f"{c.keys[0]}: {found[0]}", file=sys.stderr)
        else:
            bad += found
    return checked, failed, bad


def run_first_round_checks(plan, stash):
    checked = 0
    bad = []
    for c in plan.checks:
        if c.first_round_only:
            args = [stash[k] for k in c.keys]
            bad += c.fn(*args) if not any(isinstance(a, OpError) for a in args) \
                else [f"{c.keys}: operation raised"]
            checked += 1
    return checked, bad


def level_times(plan, times):
    """{(series, level): median over samples of the per-sample sums}."""
    sums = defaultdict(float)
    for op, t in zip(plan.ops, times):
        if op.level is not None:
            sums[op.level] += t
    by_level = defaultdict(list)
    for (series, n, _), t in sums.items():
        by_level[(series, n)].append(t)
    return {key: statistics.median(ts) for key, ts in by_level.items()}


def frontier(rounds_levels, budget: float) -> int:
    """Sum over series of the highest level n such that every level up to n
    took at most ``budget`` seconds (median over rounds)."""
    per_level = defaultdict(list)
    for levels in rounds_levels:
        for key, t in levels.items():
            per_level[key].append(t)
    total = 0
    for series in {s for s, _ in per_level}:
        n = 0
        while (series, n + 1) in per_level and \
                statistics.median(per_level[(series, n + 1)]) <= budget:
            n += 1
        total += n
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import iwagrowth  # noqa: F401

    import speed
    import workloads

    plan = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    spd = speed.Speed()
    spd.sample()
    setup_ref_s = setup_s * spd.factor(0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_ref_s, "raw_setup_s": setup_s}))
        return 0

    checked = failed = 0
    bad: list[str] = []
    stash_keys = {k for c in plan.checks if c.first_round_only for k in c.keys}
    stash = {}
    raw_walls = []
    rounds = []  # per-op seconds of each round, in reference seconds

    def one_round(tracer=None):
        nonlocal checked, failed, bad, stash
        mark = len(spd.marks) - 1
        times, results, sampled_after = run_round(plan, spd, tracer)
        spd.sample()
        n_checked, n_failed, found = run_checks(plan, results, not rounds)
        if not stash:
            stash = {k: results[k] for k in stash_keys}
        checked += n_checked
        failed += n_failed
        bad += found
        raw_walls.append(sum(times))
        # each op scaled by the two speed samples that bracket it
        ref = []
        for i, t in enumerate(times):
            ref.append(t * spd.factor(mark))
            if sampled_after and sampled_after[0] == i:
                sampled_after.pop(0)
                mark += 1
        rounds.append(ref)
        return results

    if args.trace:
        import spans

        one_round()
        traced = spans.Tracer()
        clear_caches()
        traced.install()
        try:
            results = one_round(traced)
        finally:
            traced.uninstall()
        scale = sum(rounds[1]) / raw_walls[1]
        metrics = {k: v * scale if spans.METRICS[k] == "s" else v
                   for k, v in traced.metrics().items()}
        metrics["trace.overhead_s"] = sum(rounds[1]) - sum(rounds[0])
        metrics["cli.stdout_bytes"] = sum(len(r.stdout.encode()) for r in results.values()
                                          if isinstance(r, workloads.CliResult))
        del results
    else:
        start = time.perf_counter()
        while True:
            one_round()
            if len(rounds) >= MIN_ROUNDS and \
                    (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        rss = peak_rss_mb()
        op_times = [t for times in rounds for t in times]
        levels = [level_times(plan, times) for times in rounds]
        q = statistics.quantiles(op_times, n=10)
        metrics = {
            "setup_s": setup_ref_s,
            "wall_s": statistics.median(sum(times) for times in rounds),
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "op_p90_ms": q[8] * 1e3,
            "frontier_levels": frontier(levels, workloads.FRONTIER_BUDGET_S[args.workload]),
            "peak_rss_mb": rss,
        }

    n_checked, found = run_first_round_checks(plan, stash)
    checked += n_checked
    bad += found
    for fn in plan.cleanup:
        fn()

    attempted = len(rounds) * len(plan.ops)
    for line in bad[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    if checked == 0:
        print("no output was checked", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{checked} outputs checked, {len(bad)} mismatches, {failed} known-fault failures",
          file=sys.stderr)

    os.makedirs(RESULTS, exist_ok=True)
    if args.trace:
        path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
        with gzip.open(path, "wt") as fh:
            traced.write(fh)
    print(json.dumps({
        "correct": checked > 0 and not bad,
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "rounds": len(rounds),
        "raw_walls": raw_walls,
        "raw_setup_s": setup_s,
        "speed_samples": spd.marks,
        "level_s": {f"{series} n={n}": statistics.median(lv[(series, n)] for lv in levels)
                    for series, n in sorted(levels[0])} if not args.trace else {},
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
