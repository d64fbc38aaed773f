"""contextsim benchmark: one seeded workload, measured for a fixed time.

usage: python3 perfbench/run.py --workload {evaluate,correlators,bounds}
                                --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports contextsim from ``src/``. One
client runs operations back to back (closed loop) in this single-threaded
process. Every operation's output is checked; an operation that raises or
fails its check counts as failed. The golden-report check runs once per
invocation, before anything is timed.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``,
with every time scaled to the nominal host speed of ``hostspeed.py``. With
``--trace 1`` it runs a fixed list of operations twice, without and with
spans, and prints the per-layer metrics; the spans are written to
``.perfbench_out/``. The last line of standard output is the result object;
the line before it describes the run and the machine, and gives the raw
(unscaled) metrics and the per-route and per-search figures.
"""

from __future__ import annotations

import bootstrap  # first: pins BLAS threads before numpy loads

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _unscaled(start: float, end: float) -> float:
    return end - start


def _scaled_by(speed):
    return lambda start, end: (end - start) * speed.scale(start, end)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to its first operation
    being ready (interpreter start, ``import contextsim`` and the first block
    of inputs), scaled and raw. The probe times the host-speed reference on
    its own CPU right after it is ready."""
    probe = bootstrap.ROOT / "perfbench" / "setup_probe.py"
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), workload, str(seed)],
                                cwd=bootstrap.ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            references = [float(x) for x in proc.stdout.read().split()]
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        scaled.append(elapsed * hostspeed.NOMINAL_S / statistics.median(references))
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def timed_run(workload, seed: int, seconds: float, workdir):
    """Operations back to back for ``seconds``, with host-speed samples
    between them."""
    ops = itertools.chain.from_iterable(workload.blocks(seed, workdir))
    for op in itertools.islice(ops, workload.warmup_ops):
        workload.execute(op)
    speed = hostspeed.HostSpeed()
    results = []
    deadline = time.perf_counter() + seconds
    # two operations at least, so that every statistic is defined
    while time.perf_counter() < deadline or len(results) < 2:
        speed.sample()
        results.append(workload.execute(next(ops), speed.burst))
    speed.burst()
    return results, speed


def op_times(results, duration) -> list[float]:
    """Each operation's time: ``duration(start, end)`` summed over its sections."""
    return [sum(duration(start, end) for *_, start, end in r.sections) for r in results]


def latency_metrics(latencies: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3,
    }


def traced_run(workload, seed: int, workdir):
    """Run the same fixed operation list untraced, then traced; counts repeat
    exactly for one seed because the list does not depend on timing. Rates
    and span times are scaled to the nominal host speed."""
    import tracing

    ops = list(itertools.islice(itertools.chain.from_iterable(workload.blocks(seed, workdir)),
                                workload.warmup_ops + workload.trace_ops))
    warm, fixed = ops[:workload.warmup_ops], ops[workload.warmup_ops:]
    for op in warm:
        workload.execute(op)
    speed = hostspeed.HostSpeed()
    untraced = []
    for op in fixed:
        speed.sample()
        untraced.append(workload.execute(op, speed.burst))
    speed.burst()
    tracer = tracing.Tracer()
    op_span = tracer.name_of("op")
    results = []
    replaced = tracer.install()
    try:
        for i, op in enumerate(fixed):
            speed.sample()
            tracer.current_op = i
            span = tracer.open(op_span)
            try:
                results.append(workload.execute(op, speed.burst))
            finally:
                tracer.close(span)
        speed.burst()
    finally:
        tracer.uninstall(replaced)
    values = tracer.summary(speed.scale)
    traced_rate = len(results) / sum(op_times(results, _scaled_by(speed)))
    untraced_rate = len(untraced) / sum(op_times(untraced, _scaled_by(speed)))
    values.update({
        "trace.ops": len(fixed),
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_pct": (1 - traced_rate / untraced_rate) * 100,
    })
    return tracer, values, untraced + results, speed


def environment() -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main(argv=None) -> int:
    args = _args(argv)
    try:
        contextsim = bootstrap.load_contextsim()
    except bootstrap.MissingPackage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import golden
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = bootstrap.WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "environment": environment()}
    try:
        if args.trace:
            golden_failures = golden.check(contextsim.cli)
            tracer, values, results, speed = traced_run(workload, args.seed, workdir)
            spans_path = bootstrap.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans_path)
            info.update(spans=str(spans_path.relative_to(bootstrap.ROOT)), missing_targets=tracer.missing,
                        figures=workloads.route_and_search_figures(results, _scaled_by(speed)))
            wanted = spec["per_layer"]
        else:
            setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
            golden_failures = golden.check(contextsim.cli)
            results, speed = timed_run(workload, args.seed, args.seconds, workdir)
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                **latency_metrics(op_times(results, _scaled_by(speed))),
            }
            raw = {"setup_s": raw_setup_s, **latency_metrics(op_times(results, _unscaled)),
                   **workloads.route_and_search_figures(results, _unscaled)}
            info.update(
                figures=workloads.route_and_search_figures(results, _scaled_by(speed)),
                raw=raw,
                reference_ms={"median": statistics.median(speed.seconds) * 1e3,
                              "min": min(speed.seconds) * 1e3, "max": max(speed.seconds) * 1e3,
                              "samples": len(speed.seconds), "nominal": hostspeed.NOMINAL_S * 1e3},
            )
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir)
    failed = [r for r in results if not r.ok]
    info.update(ops=len(results), golden_failures=golden_failures, failures=[r.error for r in failed[:5]])
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not failed and not golden_failures,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
