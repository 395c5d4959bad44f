"""Benchmark harness for schoolmatch.

    python3 perfbench/run.py --workload district --seed 1 --seconds 25 --trace 0

Runs one workload (``district``, ``trade``, ``sweep``, ``exhaustive``) in
this interpreter as a closed loop with one client: each operation starts
when the previous one has finished and passed its checks.  ``--workload
all`` runs the four one after another, each in a fresh interpreter.

Each workload has a fixed pool of inputs; a run visits the whole pool in
passes and takes each input's median pass as its time, so ``p50_s`` and
``tail_s`` are percentiles over inputs and ``ops_per_s`` is inputs per
second of those times.  Every time is scaled by the machine's speed,
sampled with a reference loop while the operation runs (``speed.py``); the
``speed:`` line gives the samples and their spread.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends the
first half of the run untraced and then, for the second half, replays the
same operations with every public function of the package wrapped by a
span recorder; it prints a per-layer table and writes the spans to
``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check prints
``correct: false`` and exits 1.  Without ``src/schoolmatch`` next to this
directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("district", "trade", "sweep", "exhaustive")

SETUP_REPEATS = 7
# Every input of a pool is measured at least this many times; its time is
# the median of them.
MIN_PASSES = 3
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import schoolmatch.cli; print(time.perf_counter() - t)"
)

END_TO_END = (("setup_s", "s"), ("p50_s", "s"), ("tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

# name, unit, source kind; every value is per traced operation unless the
# unit says otherwise.
PER_LAYER = (
    *((f"{layer}.self_s", "s/op", "self") for layer in (
        "textio", "model", "mechanisms", "trading", "coalitions", "oracle",
        "analysis", "strategy", "cli")),
    ("textio.parse_instance.s", "s/op", "busy"),
    ("model.tie_break.s", "s/op", "busy"),
    ("model.replace_prefs.calls", "count/op", "calls"),
    ("model.replace_prefs.s", "s/op", "busy"),
    ("mechanisms.sosm.calls", "count/op", "calls"),
    ("mechanisms.sosm.s", "s/op", "busy"),
    ("mechanisms.sosm.steps", "count/op", "count"),
    ("mechanisms.sosm.proposals", "count/op", "count"),
    ("mechanisms.eadam.rounds", "count/op", "count"),
    ("mechanisms.eadam.removals", "count/op", "count"),
    ("mechanisms.interrupters.s", "s/op", "busy"),
    ("mechanisms.ttc.s", "s/op", "busy"),
    ("trading.build_graph.s", "s/op", "busy"),
    ("trading.build_graph.edges", "count/op", "count"),
    ("trading.prune.s", "s/op", "busy"),
    ("trading.prune.vertices_removed", "count/op", "count"),
    ("trading.find_cliques.calls", "count/op", "calls"),
    ("trading.find_cliques.s", "s/op", "busy"),
    ("trading.find_cliques.cycles", "count/op", "count"),
    ("trading.find_cliques.trading_yield", "ratio", "yield"),
    ("trading.cycle_limit_hits", "count/op", "count"),
    ("trading.apply_clique.calls", "count/op", "calls"),
    ("trading.apply_clique.s", "s/op", "busy"),
    ("oracle.enumerate_matchings.matchings", "count/op", "count"),
    ("oracle.enumerate_matchings.s", "s/op", "busy"),
    ("oracle.enumerate_matchings.per_s", "1/s", "rate"),
    ("analysis.dominates.calls", "count/op", "calls"),
    ("analysis.is_stable.calls", "count/op", "calls"),
    ("analysis.priority_violations.s", "s/op", "busy"),
    ("coalitions.run_coalition.calls", "count/op", "calls"),
    ("coalitions.run_coalition.s", "s/op", "busy"),
    ("coalitions.unverified", "count/op", "op"),
    ("strategy.draw_instance.s", "s/op", "busy"),
    ("trace.overhead_s", "s/op", "trace"),
    ("trace.overhead_ratio", "ratio", "trace"),
)


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[str, float]:
    """The highest of p99.9 ... p75 with at least ten samples beyond it;
    the median when fewer than twenty samples exist."""
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p:g}", percentile(values, p)
    return "p50", percentile(values, 50)


# ---------------------------------------------------------------------------
# running


def import_seconds() -> float:
    """Time a fresh interpreter's import of the package (without start-up)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def measure(workload, seconds: float, ops: list) -> sp.Speed:
    """Append whole passes over the pool to ``ops``: at least MIN_PASSES,
    then more while the next is expected to end within ``seconds``.  Sets
    each new operation's ``scale``; returns the speed samples."""
    speed, windows, start = sp.Speed(workload.sample_interval), [], perf_counter()
    workload.clock = speed.clock
    with speed.sampling():
        for done in range(1, sys.maxsize):
            pass_start = perf_counter()
            for _ in range(workload.pass_size):
                t0 = perf_counter()
                ops.append(workload.run(len(ops)))
                windows.append((t0, perf_counter()))
            now = perf_counter()
            if done >= MIN_PASSES and now - start + (now - pass_start) > seconds:
                break
    for op, (t0, t1) in zip(ops[len(ops) - len(windows):], windows):
        op.scale = speed.scale(t0, t1)
    return speed


def input_times(ops, part: str | None = None) -> list[float]:
    """Each input's median over passes of its scaled time: of one named
    part, or of the whole operation."""
    per_input: dict[int, list] = {}
    for op in ops:
        seconds = op.parts[part] if part else op.seconds
        per_input.setdefault(op.input, []).append(seconds * op.scale)
    return [statistics.median(ts) for ts in per_input.values()]


def end_to_end(ops, setup_s: float) -> dict:
    times = input_times(ops)
    return {
        "setup_s": setup_s,
        "p50_s": statistics.median(times),
        "tail_s": tail(times)[1],
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def named_rows(workload, ops) -> list[tuple]:
    """The workload's own metrics: (name, value, unit, samples, note)."""
    n, size = len(ops), workload.pass_size
    note = f"median of {n // size} passes per input"
    failed = sum(op.failed for op in ops)
    rows = [("failed_ratio", failed / n, "ratio", n, f"{failed} of {n} failed")]
    times = input_times(ops)
    label, value = tail(times)
    rows += [("p50_s", statistics.median(times), "s", size, note),
             ("tail_s", value, "s", size, f"{label}, {note}"),
             ("ops_per_s", size / sum(times), "1/s", size, note)]
    for part in ops[0].parts:
        part_times = input_times(ops, part)
        label, value = tail(part_times)
        rows += [(f"{part}_p50_s", statistics.median(part_times), "s", size, note),
                 (f"{part}_tail_s", value, "s", size, f"{label}, {note}")]
    if workload.name == "sweep":
        trials = ops[0].counts["trials"] * size
        rows.append(("trials_per_s", trials / sum(times), "1/s", trials, "trials, " + note))
    if workload.name == "exhaustive":
        rows.append(("instances_per_s", size / sum(times), "1/s", size, note))
    return rows


def per_layer(tracer, traced, untraced) -> dict:
    """Per traced operation; seconds are scaled by the traced operations'
    mean speed factor."""
    n = len(traced)
    scale = statistics.fmean(op.scale for op in traced)
    layer_self = {k: v * scale for k, v in tracer.layer_self().items()}
    untraced_s = sum(op.seconds * op.scale for op in untraced[:n])
    overhead = sum(op.seconds * op.scale for op in traced) - untraced_s
    cycles = tracer.counts["trading.find_cliques.cycles"]
    matchings_s = tracer.busy.get("oracle.enumerate_matchings", 0.0)
    special = {
        "trading.find_cliques.trading_yield":
            tracer.counts["trading.find_cliques.trading"] / cycles if cycles else 0.0,
        "oracle.enumerate_matchings.per_s":
            tracer.counts["oracle.enumerate_matchings.matchings"] / (matchings_s * scale)
            if matchings_s else 0.0,
        "coalitions.unverified":
            sum(op.counts.get("coalitions_unverified", 0) for op in traced) / n,
        "trace.overhead_s": overhead / n,
        "trace.overhead_ratio": overhead / untraced_s,
    }
    out = {}
    for name, unit, kind in PER_LAYER:
        fn = name.rsplit(".", 1)[0]
        if kind == "self":
            value = layer_self[fn] / n
        elif kind == "busy":
            value = tracer.busy.get(fn, 0.0) * scale / n
        elif kind == "calls":
            value = tracer.calls[fn] / n
        elif kind == "count":
            value = tracer.counts[name] / n
        else:
            value = special[name]
        out[name] = {"value": value, "unit": unit}
    return out


def environment(workload, args, cycle_limit: int) -> dict:
    import networkx

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=30).stdout.strip()
    return {"commit": commit, "python": platform.python_version(),
            "networkx": networkx.__version__, "nproc": os.cpu_count(),
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "trade_cycle_limit": cycle_limit,
            "inputs": workload.describe()}


def run(args, workload=None) -> int:
    """Set up, measure, check and report one workload; the exit code."""
    import workloads as wl

    workload = workload or wl.WORKLOADS[args.workload](args.seed, OUT)
    repeats = 1 if args.trace else SETUP_REPEATS
    setups, setup_speed = [], sp.Speed()
    with setup_speed.sampling():
        for _ in range(repeats):
            start = perf_counter()
            t_import = import_seconds()
            t0 = setup_speed.clock()
            workload.setup()
            setups.append((t_import + setup_speed.clock() - t0, start, perf_counter()))
    setups = [t * setup_speed.scale(start, end) for t, start, end in setups]
    setup_s = statistics.median(setups)
    print("env: " + json.dumps(environment(workload, args, wl.TRADE_CYCLE_LIMIT),
                               sort_keys=True))

    tracer, ops, traced = None, [], []
    try:
        if args.trace:
            import tracing

            speed = measure(workload, args.seconds / 2, ops)
            traced_speed, windows = sp.Speed(workload.sample_interval), []
            tracer = tracing.Tracer(traced_speed.clock)
            tracer.install()
            workload.untraced = tracer.paused
            workload.clock = traced_speed.clock
            deadline = perf_counter() + args.seconds / 2
            try:
                with traced_speed.sampling():
                    while len(traced) < len(ops) and (not traced or perf_counter() < deadline):
                        tracer.op = len(traced)
                        t0 = perf_counter()
                        with tracer.recording():
                            traced.append(workload.run(len(traced)))
                        windows.append((t0, perf_counter()))
            finally:
                tracer.uninstall()
            for op, (t0, t1) in zip(traced, windows):
                op.scale = traced_speed.scale(t0, t1)
            metrics = per_layer(tracer, traced, ops)
        else:
            speed = measure(workload, args.seconds, ops)
            metrics = {name: {"value": value, "unit": unit} for (name, unit), value
                       in zip(END_TO_END, end_to_end(ops, setup_s).values())}
        digest = wl.pool_digest(ops + traced)
    except wl.CheckError as exc:
        attempted = len(ops) + len(traced) + 1
        print(f"check failed in operation {attempted}: {exc}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": sum(op.failed for op in ops + traced) + 1, "metrics": {}}))
        return 1

    print(f"digest: {digest} over the answers to {workload.pass_size} inputs")
    print(f"speed: {speed.summary()}")
    report(workload, ops, setup_s, setups, tracer, metrics)
    all_ops = ops + traced
    print(json.dumps({"correct": True, "attempted": len(all_ops),
                      "failed": sum(op.failed for op in all_ops), "metrics": metrics}))
    return 0


def report(workload, ops, setup_s, setups, tracer, metrics) -> None:
    print(f"metric setup_s {setup_s:.6f} s (n={len(setups)}, median)")
    print(f"metric peak_rss_mb "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB (n=1)")
    for name, value, unit, n, note in named_rows(workload, ops):
        print(f"metric {name} {value:.6g} {unit} (n={n}, {note})")
    if tracer is not None:
        spans = OUT / f"{workload.name}.spans.csv.gz"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.span_ids)} written to {OUT.name}/{spans.name}")
        for line in tracer.table():
            print(line)
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6g} {m['unit']} (n={tracer.op + 1}, traced)")


def run_all(args) -> int:
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schoolmatch" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import schoolmatch

    if Path(schoolmatch.__file__).resolve().parent != SRC / "schoolmatch":
        print(f"error: imported schoolmatch from {schoolmatch.__file__}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
