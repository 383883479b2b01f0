"""nlch benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and needs nothing built: it imports
nlch from ``src/``.  Every workload repetition runs in a fresh worker process
(perfbench/worker.py), one at a time, so set-up time covers the nlch import
and peak RSS is that of one run.

--trace 0  repeats the workload for --seconds seconds with tracing off, takes
           set-up samples in separate processes, and reports the medians of
           the end-to-end metrics.
--trace 1  runs the workload once untraced and twice traced, reports the
           per-layer metrics, and checks that the traced counts repeat exactly.

Every repetition's outputs are checked against reference.json; a repetition
that misses a check counts as failed.  The last stdout line is the JSON
result; the lines before it give every metric by name with its unit and the
environment.  Details of each repetition go to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_outputs, command_argvs, load_reference, prepare_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 4
HARD_LIMIT_S = 165.0  # the whole invocation must end within 180 s


class ProgramMissing(RuntimeError):
    pass


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workload, seed: int, image: dict) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nlch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": np.fft.rfftn.__module__,
        "benchmark_seed": seed,
        "scenario_noise_seed": workload.noise_seed,
        "symmetry_image": image,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread per workload run
    return env


def run_worker(job: dict, work_dir: Path, deadline: float) -> dict:
    """Run one worker process in a fresh directory and return its result."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    (work_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    timeout = max(1.0, deadline - time.monotonic())
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "job.json"],
            cwd=work_dir, env=_child_env(), timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s",
                "wall_s": time.perf_counter() - started}
    if proc.returncode == 3:
        raise ProgramMissing(proc.stderr.strip())
    if proc.returncode != 0:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "wall_s": time.perf_counter() - started}
    return json.loads((work_dir / "result.json").read_text(encoding="utf-8"))


def missed_checks(workload, result: dict, reference: dict) -> list[str]:
    if "error" in result:
        return [result["error"]]
    return check_outputs(workload, result["observed"], reference)


def _median(values):
    return float(statistics.median(values))


def measure_end_to_end(workload, job, base: Path, seconds: float, deadline: float, reference):
    reps, setups = [], []

    def probe_setup(i):
        r = run_worker(dict(job, mode="setup"), base / f"setup-{i}", deadline)
        if "setup_s" in r:
            setups.append((r["setup_s"], r["slowdown"]))

    run_worker(dict(job, mode="setup"), base / "warmup", deadline)  # byte-compile, fill caches
    for i in range(SETUP_PROBES):
        probe_setup(i)
    started = time.monotonic()
    while not reps or time.monotonic() - started < seconds:
        if reps and time.monotonic() + reps[-1]["wall_s"] * 1.5 > deadline:
            break
        r = run_worker(dict(job, mode="run"), base / "rep", deadline)
        r["missed"] = missed_checks(workload, r, reference)
        reps.append(r)
        probe_setup(SETUP_PROBES + len(reps))  # spread set-up samples over the run
    ok = [r for r in reps if "slowdown" in r]
    # Times at full machine speed: each sample over the slowdown probed with it.
    metrics = {"wall_s": _median([r["wall_s"] / r.get("slowdown", 1.0) for r in reps])}
    raw = {"wall_s": _median([r["wall_s"] for r in reps])}
    if ok:
        metrics["cpu_s"] = _median([r["cpu_s"] / r["slowdown"] for r in ok])
        metrics["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in ok])
        raw["cpu_s"] = _median([r["cpu_s"] for r in ok])
        raw["slowdown"] = _median([r["slowdown"] for r in ok])
    if setups:
        metrics["setup_s"] = _median([t / slow for t, slow in setups])
        raw["setup_s"] = _median([t for t, _ in setups])
    detail = {"raw_medians": raw, "setup_samples": setups, "repetitions": reps}
    return metrics, reps, detail


def measure_layers(workload, job, base: Path, deadline: float, reference):
    run_worker(dict(job, mode="setup"), base / "warmup", deadline)
    plain = run_worker(dict(job, mode="run"), base / "untraced", deadline)
    traced = [run_worker(dict(job, mode="trace"), base / f"traced-{k}", deadline) for k in "ab"]
    reps = [plain] + traced
    for r in reps:
        r["missed"] = missed_checks(workload, r, reference)
    good = [r for r in traced if "layers" in r]
    notes = []
    repeat = len(good) == 2 and good[0]["counts"] == good[1]["counts"]
    if len(good) == 2 and not repeat:
        diff = {k: (good[0]["counts"].get(k), good[1]["counts"].get(k))
                for k in set(good[0]["counts"]) | set(good[1]["counts"])
                if good[0]["counts"].get(k) != good[1]["counts"].get(k)}
        notes.append(f"traced counts differ between two runs of the same code: {diff}")
        traced[1]["missed"].append("trace counts did not repeat")
    metrics = {}
    if good:
        for name in good[0]["layers"]:
            values = [r["layers"][name] for r in good]
            value = values[0] if len(set(values)) == 1 else _median(values)
            metrics[name] = value
        eq = good[0]["observed"].get("equilibrium", {})
        metrics["equilibrium.iterations"] = int(eq.get("iterations", 0))
        metrics["equilibrium.converged"] = int(eq.get("converged") == "true")
        # uncorrected: traced runs take no speed probes while they run
        traced_wall = _median([r["wall_s"] for r in good])
        metrics["trace.overhead_frac"] = traced_wall / plain["wall_s"] - 1.0
        metrics["trace.counts_repeat"] = int(repeat)
    detail = {"repetitions": reps, "notes": notes}
    return metrics, reps, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    if not (ROOT / "src" / "nlch" / "cli.py").is_file():
        print(f"error: nlch sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    base = ROOT / ".perfbench_runs" / f"{workload.name}-trace{args.trace}"
    if base.exists():
        shutil.rmtree(base)
    inputs = base / "inputs"
    image = prepare_inputs(workload, args.seed, inputs)
    job = {
        "commands": command_argvs(workload, inputs),
        "grid": {"dim": workload.dim, "n": workload.n, "edge_length": workload.edge_length},
    }
    env = environment(workload, args.seed, image)

    try:
        if args.trace:
            metrics, reps, detail = measure_layers(workload, job, base, deadline, reference)
        else:
            metrics, reps, detail = measure_end_to_end(
                workload, job, base, args.seconds, deadline, reference
            )
    except ProgramMissing as exc:
        print(f"error: nlch cannot be imported: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for r in reps if r["missed"])
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not failed:
        print(f"error: benchmark did not produce {missing}", file=sys.stderr)
        return 2
    # A failed run still reports every declared metric; missing ones read 0.
    metrics = {m["name"]: (metrics.get(m["name"], 0.0), m["unit"]) for m in declared}
    for i, r in enumerate(reps):
        for miss in r["missed"]:
            print(f"check missed (run {i}): {miss}")
    for note in detail.get("notes", []):
        print(f"note: {note}")
    if "raw_medians" in detail:
        print("uncorrected medians " + json.dumps(detail["raw_medians"], sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_frac = {failed / len(reps)!r} ({failed} of {len(reps)} runs failed)")
    (base / "result.json").write_text(
        json.dumps({"env": env, "workload": workload.name, "trace": args.trace,
                    "metrics": metrics, "failed": failed, "attempted": len(reps), **detail},
                   indent=1, default=str),
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
