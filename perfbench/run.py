"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ``src/``.
BLAS is pinned to one thread before numpy loads. The run sets the
workload up once to warm the process. It then times three more set-ups,
each followed by a third of the measurement, which repeats the measured
phase and checks every repetition's outputs. ``setup_s`` and ``run_s``
are scaled to a reference machine speed, sampled by a fixed loop
between the stages (``workloads.reference_s``).

With ``--trace 0`` the last line of standard output is the result with
every end-to-end metric. With ``--trace 1`` the run measures untraced
repetitions for half of ``--seconds``, then traced ones for the other
half, and the result holds every per-layer metric. The line before the
result stamps the environment, the workload config hash and the
workload's own rates. Scratch files live under ``.perfbench_work/`` and
are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TIMED_SETUPS = 3

# the fastest ``workloads.reference_s`` on the baseline VM; the reported
# times are scaled to a machine that runs the reference loop this fast
REFERENCE_NOMINAL_S = 1.4e-3

# name -> unit; every name is printed by an untraced run
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_info() -> dict:
    """BLAS library and the thread count it actually uses."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = f"unqueried; OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    return info


def environment(args, config_hash: str) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "config_hash": config_hash,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "trace": args.trace,
        "seconds": args.seconds,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Repetitions of the measured phase and their check results.

    An operation is one group of checks: the set-up's, each
    repetition's, and the cross-repetition determinism check. A
    repetition that raises counts as a failed operation.
    """

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def measure(self, seconds: float, on_rep=None) -> list:
        reps = []
        deadline = time.perf_counter() + seconds
        while not reps or time.perf_counter() < deadline:
            if self.tracer is not None:
                self.tracer.active = True
            try:
                rep = self.workload.run()
            except Exception:
                self.check([traceback.format_exc()])
                break
            finally:
                if self.tracer is not None:
                    self.tracer.active = False
            if on_rep is not None:
                on_rep(rep)
            self.check(self.workload.check(rep))
            rep.outputs = {}  # keep only the times and the quality guard
            reps.append(rep)
        return reps

    def check(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures += fails


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference loop took ``reference_s``,
    scaled to a machine on which it takes ``REFERENCE_NOMINAL_S``."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def best_stages(reps) -> dict:
    """Each stage's least time over the repetitions.

    Noise on a shared machine only adds time, and a shared VM's speed
    can swing by 2x within seconds, so the fastest run of each
    sub-second stage is the steadiest estimate of its cost (README.md).
    Their sum is the measured phase's time.
    """
    return {stage: min(r.stages[stage] for r in reps) for stage in reps[0].stages}


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy loads: one BLAS thread, so the run is single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "semidlab").is_dir():
        print(f"error: {SRC / 'semidlab'} not found; run from a semidlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        return _run(args, workloads.WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, workload) -> int:
    from semidlab import runfiles
    from workloads import reference_s

    # the first set-up warms the process (imports, allocator, caches) and
    # is not timed: a cold first set-up reads ~50% slower than a warm one
    workload.setup()
    run = Run(workload)
    setup_times = []
    setup_references = []
    untraced = []
    # timed set-ups alternate with thirds of the untraced measurement, so
    # their median samples the machine's speed at three moments; a traced
    # run gives the other half of its time to traced repetitions
    for _ in range(TIMED_SETUPS):
        t0 = time.perf_counter()
        fails = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        setup_references.append(reference_s())
        run.check(fails)
        if hasattr(workload, "prepare"):
            workload.prepare()
        untraced += run.measure(args.seconds / (1 + args.trace) / TIMED_SETUPS)
    if not untraced:
        print("\n".join(run.failures), file=sys.stderr)
        return 1
    quality_name, quality_unit = workload.quality
    qualities = sorted({r.quality for r in untraced})
    run.check([f"{quality_name} differs between repetitions: {qualities}"] if len(qualities) > 1 else [])
    config_hash = runfiles.config_hash({"workload": workload.name, "seed": args.seed, **workload.config()})
    best = best_stages(untraced)
    run_s = sum(best.values())
    setup_s = statistics.median(setup_times)
    # the machine's fastest moment in this run; the ratio to it removes
    # the slow stretches of a shared VM that last longer than a run
    reference = min(setup_references + [r.reference_s for r in untraced])
    detail = {name: {"value": v, "unit": workload.rate_units[name]} for name, v in workload.rates(best).items()}
    detail[quality_name] = {"value": qualities[0], "unit": quality_unit}
    detail["stages_s"] = {"value": best, "unit": "s"}
    detail["wall_run_s"] = {"value": run_s, "unit": "s"}
    detail["wall_setup_s"] = {"value": setup_s, "unit": "s"}
    detail["reference_s"] = {"value": reference, "unit": "s"}

    if args.trace:
        metrics = _traced(args, run, run_s)
    else:
        values = {
            "setup_s": at_reference_speed(setup_s, reference),
            "run_s": at_reference_speed(run_s, reference),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for msg in run.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"perfbench": environment(args, config_hash), "detail": detail}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _traced(args, run, untraced_rep_s) -> dict:
    import tracing

    tracer = tracing.Tracer()
    patcher = tracing.Patcher(tracer)
    summary: dict = {}
    covered = [0.0]

    def collect(rep):
        spans = tracer.take()
        tracing.merge_summaries(summary, tracing.summarize(spans))
        covered[0] += tracing.top_level_seconds(spans)

    run.tracer = tracer
    patcher.install()
    try:
        traced = run.measure(args.seconds / 2, on_rep=collect)
    finally:
        run.tracer = None
        patcher.restore()
    wall = sum(r.wall_s for r in traced)
    traced_rep_s = sum(best_stages(traced).values()) if traced else 0.0
    values = tracing.layer_metrics(
        summary, tracer.counters, len(traced), covered[0], wall, untraced_rep_s, traced_rep_s
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
