"""Closed-loop benchmark driver for msgt.

    python3 bench/run.py --workload train-micro --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One process runs one workload with one client in a closed loop: the next
step starts when the previous one has returned. ``--trace 0`` measures
the end-to-end metrics with no instrumentation; ``--trace 1`` alternates
untraced and traced steps and reports the per-layer metrics from the
traced ones. Step and set-up times are scaled to a reference host speed
by a yardstick timed after each of them (see ``yardstick.py``); the wall
times are printed and stored too. Every step's output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 if any check failed. The full result,
with the environment record, is written to ``--out``. ``--workload all``
runs each workload in its own process and prints every result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-micro", "eval-micro", "tiny-256")
SETUP_REPS = 3
PARTITIONS_PER_FORWARD = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "images_per_s": "img/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_threads() -> None:
    """Cap BLAS threads before numpy loads, as ``msgt.cli`` does for MSGT_THREADS."""
    os.environ.setdefault("MSGT_THREADS", "2")
    for var in THREAD_VARS:
        os.environ.setdefault(var, os.environ["MSGT_THREADS"])


def import_msgt():
    """Import msgt from this checkout's ``src/``; exit nonzero if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "msgt", "__init__.py")):
        sys.exit(f"bench: no msgt package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH_DIR)
    import msgt

    if os.path.dirname(os.path.dirname(os.path.abspath(msgt.__file__))) != SRC:
        sys.exit(f"bench: imported msgt from {msgt.__file__}, not from {SRC}")


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a clone; git must not search the parent directories
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "msgt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def env_record(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: v for k, v in info.items() if "directory" not in k}

    return {
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in ("MSGT_THREADS",) + THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> int:
    t0 = time.perf_counter()
    pin_threads()
    import_msgt()
    from msgt import blocks, model, tensor, train, windows

    import spans
    import workloads
    from yardstick import REF_MS, Yardstick

    import_s = time.perf_counter() - t0

    yardstick = Yardstick()
    wl = workloads.WORKLOADS[name](seed, out_dir)
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        info = wl.setup()
        info["seconds"] = time.perf_counter() - t
        info["yardstick_ms"] = yardstick()
        setups.append(info)
    wall_setup_s = import_s + statistics.median(s["seconds"] for s in setups)
    setup_s = wall_setup_s * REF_MS / statistics.median(s["yardstick_ms"] for s in setups)

    failures: dict[str, list[str]] = {}
    attempted = failed = 0

    def record(check: str, messages: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if messages:
            failed += 1
            failures.setdefault(check, []).extend(messages[:3])

    digests = sorted({s["digest"] for s in setups})
    record("determinism", [] if len(digests) == 1 else [f"{SETUP_REPS} set-ups gave digests {digests}"])

    expected_macs = wl.macs_per_image() * wl.batch
    tracer = None
    if trace:
        mods = {"tensor": tensor, "windows": windows, "blocks": blocks, "model": model, "train": train}
        tracer = spans.Tracer(mods, wl.stage_of_channels())
    step_ms = {False: [], True: []}
    yard_ms = []  # one per untraced step, timed right after it
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        root = None
        if traced:
            tracer.step = i
            tracer.install()
            root = tracer.open("step", layer="step")
        errors: list[str] = []
        out = None
        calls0 = windows.partition_call_count()
        with tensor.count_macs() as counter:
            t = time.perf_counter()
            try:
                out = wl.step(tracer if traced else None)
            except Exception as exc:  # a raising step is a failed step
                errors.append(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t
        if traced:
            tracer.close(root)
            tracer.uninstall()
        else:
            yard_ms.append(yardstick())
        if out is not None:
            errors += wl.check_step(out)
        macs = counter["matmul"] + counter["conv"]
        if macs != expected_macs:
            errors.append(f"counted {macs} MACs, model_flops gives {expected_macs}")
        calls = windows.partition_call_count() - calls0
        if calls != PARTITIONS_PER_FORWARD:
            errors.append(f"{calls} window partitions in one forward, expected {PARTITIONS_PER_FORWARD}")
        record("step", errors)
        step_ms[traced].append(dt * 1e3)
        i += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for check, messages in wl.final_checks().items():
        record(check, messages)
    probe = wl.probe()

    untraced = step_ms[False]
    extras = {"failed_ratio": (failed / attempted, "ratio"), "steps": (len(untraced), "count")}
    if "sizes_failed" in probe:
        extras["sizes_failed"] = (probe["sizes_failed"], "count")
    if tracer is None:
        scaled = [ms * REF_MS / y for ms, y in zip(untraced, yard_ms)]
        metrics = {
            "step_ms_p50": _percentile(scaled, 50),
            "step_ms_p90": _percentile(scaled, 90),
            "images_per_s": wl.batch * 1e3 / statistics.fmean(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        extras.update({
            "wall.step_ms_p50": (_percentile(untraced, 50), "ms"),
            "wall.step_ms_p90": (_percentile(untraced, 90), "ms"),
            "wall.images_per_s": (wl.batch * 1e3 / statistics.fmean(untraced), "img/s"),
            "wall.setup_s": (wall_setup_s, "s"),
            "yardstick_ms_p50": (_percentile(yard_ms, 50), "ms"),
        })
    else:
        traced_ms = step_ms[True]
        metrics = spans.per_layer_metrics(tracer, len(traced_ms), len(traced_ms) * wl.batch)
        metrics["data.generate_s"] = (statistics.median(s["data.generate_s"] for s in setups), "s")
        metrics["model.build_s"] = (statistics.median(s["model.build_s"] for s in setups), "s")
        overhead = _percentile(traced_ms, 50) / _percentile(untraced, 50)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        extras["traced_steps"] = (len(traced_ms), "count")

    print(f"{name}  seed {seed}  trace {int(trace)}  {attempted} attempted  {failed} failed")
    for key, (value, unit) in {**metrics, **extras}.items():
        print(f"  {key:32s} {value:16.6g} {unit}")
    for check, messages in failures.items():
        print(f"  FAILED {check}: {'; '.join(messages)}")
    if probe.get("size_errors"):
        for size, err in probe["size_errors"].items():
            print(f"  probe {size} px: {err}")

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}.seed{seed}.trace{int(trace)}")
    if tracer is not None:
        tracer.write(stem + ".spans.npz")
    result = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digests[0] if len(digests) == 1 else digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extras}.items()},
        "probe": probe,
        "step_ms": {"untraced": untraced, "traced": step_ms[True], "yardstick": yard_ms},
        "env": env_record(seed),
    }
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"  digest {result['digest']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process; nonzero if any of them failed."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out,
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
