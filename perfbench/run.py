"""emclab benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; emclab is imported from its `src/`.  One
client in one process and one thread issues one operation at a time.  A run
generates the workload's inputs from the seed, discards a warm-up pass, then
repeats passes over the fixed operation list until `--seconds` have elapsed,
with `gc.collect()` between passes and never inside one.  Every answer is
checked against a reference after its pass.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics (see NOTES.md).  The
last line of stdout is the result object; the line before it holds the
details: environment, sample counts, failures, deterministic counts and
their digest.  The process exits 2 without a result when the sources are
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5      # fresh processes timed for setup_s
MIN_PASSES = 3         # timed passes per run, at least (per kind when tracing)
MIN_SAMPLES = 20       # timed operations per run, at least
TAIL_ABOVE = 10        # samples left above the reported tail percentile
SUBPROCESS_TIMEOUT_S = 60


def parse_args(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import emclab, generate the inputs and exit (times setup_s)")
    return p.parse_args(argv)


@contextlib.contextmanager
def workdir(workload: str):
    path = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            os.rmdir(os.path.dirname(path))


def setup(workload: str, seed: int, path: str):
    import emclab.cli  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS
    return WORKLOADS[workload](seed, path)


def time_setup(args) -> tuple[list[float], list[float]]:
    """(reference, raw) seconds of fresh processes that import emclab,
    generate the inputs and exit, less the child's own calibration loops."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=SUBPROCESS_TIMEOUT_S)
        wall = perf_counter() - t0
        before, after = json.loads(out.stdout.splitlines()[-1])["loop_s"]
        raw.append(wall - before - after)
        scaled.append(raw[-1] * calibration.scale(before, after))
    return scaled, raw


# --- passes ----------------------------------------------------------------

@dataclass
class Pass:
    raw: list[float]       # seconds per operation
    scaled: list[float]    # reference seconds per operation (calibration.py)
    results: list[tuple]   # (result, exception) per operation

    @property
    def seconds(self) -> float:
        return sum(self.scaled)

    @property
    def scale(self) -> float:
        return self.seconds / sum(self.raw)


def run_pass(ops, tracer=None) -> Pass:
    """Run every operation once, timing the calibration loop around each."""
    p = Pass([], [], [])
    before = calibration.loop_seconds()
    for op in ops:
        t0 = perf_counter()
        try:
            result = tracer.root("cli", op.run) if tracer and op.cli else op.run()
            err = None
        except Exception as exc:  # a crashing operation is a counted failure
            result, err = None, exc
        dt = perf_counter() - t0
        after = calibration.loop_seconds()
        p.raw.append(dt)
        p.scaled.append(dt * calibration.scale(before, after))
        p.results.append((result, err))
        before = after
    return p


class Run:
    """Bookkeeping shared by both modes: attempts, failures, determinism."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # failed operations and nondeterminism
        self.digest = None

    def check(self, p: Pass):
        """Check a pass's answers, then drop them so memory stays flat.  All
        answers reduce to one digest, which must not change between passes."""
        prints = []
        for op, (result, err) in zip(self.ops, p.results):
            if err is None:
                try:
                    prints.append(op.check(result))
                    continue
                except Exception as exc:  # a malformed answer is a wrong answer
                    err = exc
            self.failed += 1
            self.problems.append(f"{op.name}: {type(err).__name__}: {err}")
            prints.append("FAILED")
        self.attempted += len(p.results)
        p.results.clear()
        digest = hashlib.sha256("\n".join(prints).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.problems.append("answers differ between passes (nondeterminism)")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with TAIL_ABOVE samples above."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_ABOVE          # 1-based
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def warm_up(ops) -> Run:
    run = Run(ops)
    run.check(run_pass(ops))
    gc.collect()
    gc.freeze()   # inputs and caches are long-lived; keep them out of GC scans
    return run


def measure(args, ops) -> tuple[Run, list[Pass]]:
    run = warm_up(ops)
    passes: list[Pass] = []
    start = perf_counter()
    while (len(passes) < MIN_PASSES or len(passes) * len(ops) < MIN_SAMPLES
           or perf_counter() - start < args.seconds):
        passes.append(run_pass(ops))
        run.check(passes[-1])
        gc.collect()
    return run, passes


def measure_traced(args, ops):
    """Alternate untraced and traced passes; per-layer metrics are lower
    medians over the traced passes, in reference seconds."""
    import tracing
    run = warm_up(ops)
    tracer = tracing.Tracer()
    passes: dict[bool, list[Pass]] = {False: [], True: []}
    layers: list[dict] = []
    counts = None
    start = perf_counter()
    traced = False
    while (min(map(len, passes.values())) < MIN_PASSES
           or perf_counter() - start < args.seconds):
        if traced:
            undo = tracing.install(tracer)
            try:
                p = run_pass(ops, tracer)
            finally:
                tracing.uninstall(undo)
            pass_counts = dict(sorted(tracer.counts.items()))
            if counts is None:
                counts = pass_counts
            elif pass_counts != counts:
                run.problems.append("layer counts differ between passes (nondeterminism)")
            layers.append(layer_metrics(tracer, p.scale))
            tracer.reset()
        else:
            p = run_pass(ops)
        passes[traced].append(p)
        run.check(p)
        gc.collect()
        traced = not traced
    # the lower median is a measured value, so counts stay whole numbers
    metrics = {name: (statistics.median_low(m[name][0] for m in layers), unit)
               for name, (_value, unit) in layers[0].items()}
    traced_wall = statistics.median(p.seconds for p in passes[True])
    untraced_wall = statistics.median(p.seconds for p in passes[False])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return run, passes, metrics, counts


def layer_metrics(tr, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced pass: name -> (value, unit); times are
    scaled to reference seconds by the pass's calibration factor."""
    c = tr.counts
    nodes = c["kernel.downset_nodes"]
    pivots = c["lp.pivots_phase1"] + c["lp.pivots_phase2"]
    out = {}
    for name in ("kernel.downset_calls", "kernel.downset_nodes", "kernel.find_matching_calls",
                 "kernel.greedy_calls", "verifier.calls", "lp.solves", "lp.pivots_phase1",
                 "lp.pivots_phase2", "lp.tableau_cells", "matching.calls",
                 "shifting.stabilize_calls", "shifting.shift_ij_calls", "shifting.shifts",
                 "hypergraph.edge_set_calls", "certify.boxes", "certify.splits",
                 "sampling.copies"):
        out[name] = (c[name], "count")
    out["hypergraph.khg_bytes"] = (c["hypergraph.khg_bytes"], "bytes")
    for layer in ("kernel", "verifier", "lp", "matching", "shifting", "hypergraph",
                  "sampling", "constructions", "scalars", "cli"):
        out[f"{layer}.self_s"] = (tr.self_s[layer] * scale, "s")
    for name in ("hypergraph.khg_s", "certify.prove_s", "certify.replay_s"):
        out[name] = (tr.times[name] * scale, "s")
    # ratios are 0 when their base (reported above) is 0
    downset_s = tr.times["kernel.downset_s"] * scale
    out["kernel.us_per_node"] = (downset_s / nodes * 1e6 if nodes else 0.0, "us")
    out["lp.ms_per_pivot"] = (out["lp.self_s"][0] / pivots * 1e3 if pivots else 0.0, "ms")
    return out


# --- environment -------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(trace: int) -> dict:
    from emclab import __version__, kernel
    return {
        "kernel_impl": kernel.IMPL,
        "EMCLAB_KERNEL": os.environ.get("EMCLAB_KERNEL"),
        "emclab_version": __version__,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "tracing": bool(trace),
    }


# --- main ------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emclab", "__init__.py")):
        print(f"perfbench: no emclab sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        before = calibration.loop_seconds()
        with workdir(args.workload) as path:
            setup(args.workload, args.seed, path)
        print(json.dumps({"loop_s": [before, calibration.loop_seconds()]}))
        return 0

    with workdir(args.workload) as path:
        ops = setup(args.workload, args.seed, path)
        if args.trace:
            run, passes, metrics, counts = measure_traced(args, ops)
            samples = {"traced_pass_s": [p.seconds for p in passes[True]],
                       "untraced_pass_s": [p.seconds for p in passes[False]]}
        else:
            run, passes = measure(args, ops)
            setup_s, setup_raw = time_setup(args)
            latencies = [x for p in passes for x in p.scaled]
            raw_latencies = [x for p in passes for x in p.raw]
            tail_s, tail_pct = tail(latencies)
            metrics = {
                "wall_s": (statistics.median(p.seconds for p in passes), "s"),
                "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "op_tail_ms": (tail_s * 1e3, "ms"),
                "setup_s": (statistics.median(setup_s), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            counts = None
            samples = {
                "passes": len(passes), "ops_per_pass": len(ops),
                "op_samples": len(latencies), "op_tail_percentile": tail_pct,
                "setup_samples": len(setup_s),
                "pass_s": [p.seconds for p in passes],
                "unscaled": {"wall_s": statistics.median(sum(p.raw) for p in passes),
                             "op_p50_ms": statistics.median(raw_latencies) * 1e3,
                             "op_tail_ms": tail(raw_latencies)[0] * 1e3,
                             "setup_s": statistics.median(setup_raw)},
                "pass_scale": [p.scale for p in passes],
            }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(args.trace),
        "samples": samples,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems[:20],
        "answers_digest": run.digest,
        "counts": counts,
        "counts_digest": (hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
                          if counts is not None else None),
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
