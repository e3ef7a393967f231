"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload {char,mult,verify} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-test

One process, one thread, one caller in a closed loop.  The run times the
build of every root system the workload uses (``setup_s``), then repeats the
op list in whole rounds, in a seeded order, until ``--seconds`` have passed.
Every op is timed on its own through `calib.Clock`; its first output is kept
and every later one compared with it.  The independent checks of
`workloads` run on the kept outputs after the timed rounds.

With ``--trace 1`` every op is run twice per round, untraced and then traced,
and the per-layer metrics are reported instead of the end-to-end ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 25

import calib  # noqa: E402
import spans  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS  # noqa: E402


def load_package():
    """Import weightmult from this checkout's ``src``, never from elsewhere."""
    init = SRC / "weightmult" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import weightmult

    if Path(weightmult.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported weightmult from {weightmult.__file__}, not {init}")
    return weightmult


def run_op(wl, wm, rs, op):
    """The timed call; an op that raises a package error returns the error."""
    try:
        return wl.call(wm, rs, op)
    except wm.WeightMultError as exc:
        return exc


def same_output(wl, a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return repr(a) == repr(b)
    return wl.same(a, b)


def build_all(wm, keys):
    return {key: wm.build_root_system(*key) for key in keys}


def measure_setup(wm, clock, keys):
    """Median of SETUP_REPEATS timed builds of every system the ops use."""
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        _, r, s = clock.measure(build_all, wm, keys)
        raw.append(r)
        ref.append(s)
    return statistics.median(raw), statistics.median(ref)


def check_outputs(wl, wm, systems, ops, outputs):
    """Independent check of each op's output: a reason string per failing op."""
    cache = {}
    reasons = {}
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            reasons[op.name] = f"raised {type(out).__name__}: {out}"
            continue
        try:
            bad = wl.check(wm, systems[op.system], op, out, cache)
        except wm.WeightMultError as exc:
            bad = f"check raised {type(exc).__name__}: {exc}"
        if bad:
            reasons[op.name] = bad
    return reasons


def timed_rounds(wl, wm, systems, ops, clock, seconds, seed, tracer):
    """Whole rounds of the op list until ``seconds`` have passed.

    Returns the number of rounds, each op's first output, per-op lists of
    (raw, ref) untraced samples, per-op lists of traced samples and per-op
    traced stats, and the names of ops whose output changed between calls.
    """
    order_rng = random.Random(f"order-{seed}")
    n = len(ops)
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    stats = [[] for _ in ops]
    outputs = [None] * n
    unstable = set()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for i in order_rng.sample(range(n), n):
            op = ops[i]
            rs = systems[op.system]
            gc.collect()
            out, raw, ref = clock.measure(run_op, wl, wm, rs, op)
            if rounds == 0:
                outputs[i] = out
            elif not same_output(wl, out, outputs[i]):
                unstable.add(op.name)
            del out
            plain[i].append((raw, ref))
            if tracer is None:
                continue
            gc.collect()
            tracer.recording = rounds == 0
            tracer.begin_op(i)
            tracer.install()
            try:
                out, raw, ref = clock.measure(run_op, wl, wm, rs, op)
            finally:
                tracer.uninstall()
            stats[i].append(tracer.end_op(clock.factor()))
            if not same_output(wl, out, outputs[i]):
                unstable.add(op.name)
            del out
            traced[i].append((raw, ref))
        rounds += 1
        if time.perf_counter() >= deadline:
            return rounds, outputs, plain, traced, stats, unstable


def medians(samples, k):
    """Per-op median of element ``k`` (0 raw, 1 reference) of each sample."""
    return [statistics.median(s[k] for s in per_op) for per_op in samples]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    wm = load_package()
    if args.self_test:
        import selftest

        return selftest.run(wm)
    if args.workload is None:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload]
    ops = wl.ops(wm, args.seed)
    keys = sorted({op.system for op in ops})
    with calib.Clock() as clock:
        setup_raw, setup_ref = measure_setup(wm, clock, keys)
        systems = build_all(wm, keys)
        gc.collect()
        gc.freeze()
        tracer = spans.Tracer(clock) if args.trace else None
        rounds, outputs, plain, traced, stats, unstable = timed_rounds(
            wl, wm, systems, ops, clock, args.seconds, args.seed, tracer
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()

    reasons = check_outputs(wl, wm, systems, ops, outputs)
    unknown = sorted(name for name in reasons if name not in KNOWN_FAULTS)
    for name, why in sorted(reasons.items()):
        tag = "known fault" if name in KNOWN_FAULTS else "UNEXPECTED"
        print(f"failed op ({tag}): {name}: {why}")
    for name in sorted(set(KNOWN_FAULTS) & {op.name for op in ops} - set(reasons)):
        print(f"known fault no longer shows: {name}")
    for name in sorted(unstable):
        print(f"output changed between calls: {name}")
    correct = not unknown and not unstable

    calls_per_op = rounds * (2 if args.trace else 1)
    attempted = calls_per_op * len(ops)
    failed = calls_per_op * len(reasons)

    raw_op = medians(plain, 0)
    ref_op = medians(plain, 1)
    solve_raw, solve_ref = sum(raw_op), sum(ref_op)
    p50_raw, p50_ref = statistics.median(raw_op), statistics.median(ref_op)
    samples = rounds * len(ops)
    print(f"workload {wl.name}: seed {args.seed}, {len(ops)} ops x {rounds} rounds = "
          f"{samples} timed samples; {len(reasons)} failed ops")
    print(f"{'metric':<14}{'reference':>14}{'raw wall':>14}")
    print(f"{'solve_s':<14}{solve_ref:>14.4f}{solve_raw:>14.4f}")
    print(f"{'op_ms.p50':<14}{1e3 * p50_ref:>14.4f}{1e3 * p50_raw:>14.4f}  "
          f"(median of {len(ops)} per-op medians over {samples} samples)")
    print(f"{'setup_s':<14}{setup_ref:>14.5f}{setup_raw:>14.5f}  "
          f"(median of {SETUP_REPEATS} builds of {len(keys)} systems)")
    print(f"{'peak_rss_mb':<14}{peak_rss_mb:>14.1f}")

    per_op = [
        {"op": op.name, "raw_s": r, "ref_s": s, "failed": reasons.get(op.name)}
        for op, r, s in zip(ops, raw_op, ref_op)
    ]
    result = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "rounds": rounds,
              "raw": {"solve_s": solve_raw, "op_ms.p50": 1e3 * p50_raw, "setup_s": setup_raw},
              "ops": per_op}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics = trace_metrics(wl, args, ops, traced, stats, solve_ref, tracer, result)
    else:
        metrics = {
            "solve_s": metric(solve_ref, "s"),
            "op_ms.p50": metric(1e3 * p50_ref, "ms"),
            "setup_s": metric(setup_ref, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    result["result"] = final
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )
    print(json.dumps(final))
    return 0


def trace_metrics(wl, args, ops, traced, stats, solve_ref, tracer, result):
    """Per-layer metrics, the per-layer table, and the span file."""
    solve_traced = sum(medians(traced, 1))
    first = [s[0] for s in stats]
    counts = {}
    for st in first:
        for key, n in st["counts"].items():
            counts[key] = counts.get(key, 0) + n
    repeat = all(s["counts"] == per_op[0]["counts"] for per_op in stats for s in per_op)
    names = sorted({name for per_op in stats for s in per_op for name in s["self_s"]})
    self_s = {
        name: sum(statistics.median(s["self_s"].get(name, 0.0) for s in per_op) for per_op in stats)
        for name in names
    }
    total = sum(self_s.values()) or 1.0
    print("per-layer self time, reference seconds (median per op over traced rounds, summed):")
    print(f"{'span':<38}{'calls':>10}{'self_s':>12}{'share':>8}")
    for name in names:
        print(f"{name:<38}{counts.get(name + '.calls', 0):>10}{self_s[name]:>12.4f}"
              f"{100 * self_s[name] / total:>7.1f}%")
    print(f"counts repeat exactly across traced rounds: {'yes' if repeat else 'NO'}")
    print(f"tracing overhead: traced solve_s {solve_traced:.4f} - untraced {solve_ref:.4f}"
          f" = {solve_traced - solve_ref:.4f} s")
    metrics = {}
    for key, value in spans.layer_metrics(counts, self_s).items():
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = metric(value, unit)
    metrics["trace.overhead_s"] = metric(solve_traced - solve_ref, "s")
    result["per_layer_counts"] = counts
    result["per_layer_self_s"] = self_s
    result["counts_repeat"] = repeat
    (OUT / f"trace-{wl.name}-seed{args.seed}.json").write_text(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "ops": [op.name for op in ops],
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
    }))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
