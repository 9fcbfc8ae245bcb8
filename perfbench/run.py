"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it records the environment, the
correctness gates and, when tracing, what each per-layer metric should
move. Exit status is 1 when a correctness gate fails.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS/OpenMP thread, one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("oneshot_train", "transfer")


def import_package() -> float:
    """Import the package from the checkout's ``src/``; seconds taken."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import slotlogic
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import slotlogic from {src}: {exc}")
    seconds = time.perf_counter() - t0
    if not Path(slotlogic.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: slotlogic imported from {slotlogic.__file__}, not {src}")
    return seconds


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def pin_cpus(cpus) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # not allowed here: the scheduler keeps placing the process
        pass


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict, workdir: Path, import_s: float) -> tuple[dict, dict]:
    """Set up, warm up, run timed units for ``seconds``, check the outputs.

    Returns the result object and the information line.
    """
    import layers
    import tracing
    import workloads
    from slotlogic import engine

    tracer = tracing.Tracer(f"{workload}-{seed}") if trace else None
    obs = workloads.Obs(tracer=tracer)
    checks0 = engine.VALUATION_CHECKS
    if tracer:
        layers.instrument(tracer)

    setup_s = []
    cpus = sorted(os.sched_getaffinity(0))

    def set_up():
        """One full set-up and warm-up, timed; returns the workload."""
        wd = workdir / f"setup{len(setup_s)}"
        wd.mkdir(parents=True)
        t0 = time.perf_counter()
        with tracer.span("setup") if tracer else nullcontext():
            w = workloads.WORKLOADS[workload](seed, sizes, wd, obs)
            w.warmup(obs)
        setup_s.append(time.perf_counter() - t0)
        return w

    w = set_up()
    # The other set-ups are spread over the run, so that their median does
    # not hang on the machine's speed in the first second.
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        # Units take turns on the CPUs the process may use: on a shared host
        # each CPU's speed swings on its own, and a run should average them.
        pin_cpus({cpus[i % len(cpus)]})
        if time.perf_counter() - start >= len(setup_s) * seconds / SETUP_REPEATS:
            shutil.rmtree(set_up().dir)
        # Traced runs alternate instrumented and plain units; the per-op
        # time ratio between the two is the tracing overhead.
        traced_unit = tracer is not None and i % 2 == 0
        if tracer and not traced_unit:
            tracer.unwrap_all()
        kind = "traced" if traced_unit else "plain"
        try:
            with tracer.span(f"unit.{kind}") if tracer else nullcontext():
                ops = w.unit(i, obs)
        except Exception as exc:  # one failed unit is counted, not fatal
            obs.errors.append(f"unit {i}: {type(exc).__name__}: {exc}")
            obs.attempted += 1
            obs.failed += 1
        else:
            obs.attempted += ops
            if tracer:
                tracer.counts[f"unit.{kind}_ops"] += ops
        if tracer and not traced_unit:
            layers.instrument(tracer)
        i += 1
    pin_cpus(cpus)
    while len(setup_s) < SETUP_REPEATS:
        shutil.rmtree(set_up().dir)

    if tracer:
        tracer.unwrap_all()
        probe = workloads.EngineProbe()
        layers.instrument(tracer)
        with tracer.span("probe"):
            probe.run(obs)
        tracer.unwrap_all()
    checks = engine.VALUATION_CHECKS - checks0
    verdict = w.verify() if not obs.failed else {"gates": {}, "info": {}}
    gates = verdict["gates"]
    correct = obs.failed == 0 and all(gates.values())

    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": environment(),
        "unit_rates": [ops / sec for ops, sec in obs.work],
        "latency_samples": len(obs.latencies_ms),
        "setup_runs_s": setup_s,
        "gates": gates,
        **verdict["info"],
        "errors": obs.errors[:5],
    }
    if tracer:
        metrics = layers.per_layer(tracer, SETUP_REPEATS, checks)
        info["layers"] = {name: exp for name, (_, exp) in layers.EXPECTED.items()}
        spans_path = workdir.parent / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        info["spans"] = str(spans_path)
    else:
        lat = obs.latencies_ms
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "throughput_per_s": {
                "value": sum(n for n, _ in obs.work) / sum(t for _, t in obs.work) if obs.work else 0.0,
                "unit": "1/s",
            },
            # The mean, not the median: per-turn latency has one mode per
            # domain, and the median sits in a gap between two of them, so
            # it jumps when a seed shifts the domain mix by a percent.
            "predict_mean_ms": {"value": statistics.fmean(lat) if lat else 0.0, "unit": "ms"},
            "predict_p99_ms": {"value": p99(lat) if len(lat) > 1 else 0.0, "unit": "ms"},
        }
    result = {
        "correct": correct,
        "attempted": obs.attempted,
        "failed": obs.failed,
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result, info = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workloads.SIZES[args.workload], workdir, import_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
