"""One workload run in a fresh process, driven by run.py.

    python3 perfbench/worker.py <job.json>

The job names the nlch CLI commands to run in-process and the mode:

* ``setup``: import nlch and run the first command up to the moment the
  first time step could start, then stop (a set-up time sample);
* ``run``: run every command with tracing off and time it;
* ``trace``: run every command with every nlch function wrapped in a span.

Only the standard library is imported before the set-up clock starts, so the
set-up time includes importing nlch and numpy.  Untraced runs also probe the
machine's speed (SpeedSampler).  The result, including what the output
checks need, goes to ``result.json`` in the working directory.  Exit code 3
means nlch could not be imported at all.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


PROBE_INTERVAL_S = 0.2


class _SetupDone(Exception):
    pass


def _run_command(main, argv):
    """Run one CLI command in-process; return its exit code and stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except _SetupDone:
        raise
    except Exception as exc:  # a crash is a failed command, reported, not fatal
        code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


# A probe sample takes about this long when the box runs at full speed.
PROBE_REFERENCE_S = 0.003


def _probe_sample(a2, a1) -> tuple[float, float]:
    """Wall and CPU time of one fixed numpy kernel: 128^2 FFT pairs plus
    128-point calls, the mix the workloads themselves make."""
    import numpy as np

    c, t = time.process_time(), time.perf_counter()
    for _ in range(8):
        np.fft.irfftn(np.fft.rfftn(a2), s=a2.shape, axes=(0, 1))
    for _ in range(60):
        float(np.max(np.abs(np.fft.irfftn(np.fft.rfftn(a1), s=a1.shape, axes=(0,)))))
    return time.perf_counter() - t, time.process_time() - c


class SpeedSampler:
    """Probes the machine's speed every `interval` seconds from a SIGALRM
    handler while the workload runs, and once more at exit.

    The box is shared: its speed drifts by up to 2x over tens of seconds.
    The mean probe time over a run, over PROBE_REFERENCE_S, is the run's
    slowdown; the probe's own time is taken out of the run's wall and CPU
    time.  Python runs the handler between bytecodes of the main thread, so
    it never interrupts a numpy call.
    """

    def __init__(self, interval: float) -> None:
        import numpy as np

        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._a2 = np.random.default_rng(0).standard_normal((128, 128))
        self._a1 = self._a2[0].copy()

    def _sample(self, *_signal_args) -> None:
        self.samples.append(_probe_sample(self._a2, self._a1))

    def __enter__(self) -> "SpeedSampler":
        if self.interval > 0:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self._sample()

    def slowdown(self) -> float:
        return sum(w for w, _ in self.samples) / len(self.samples) / PROBE_REFERENCE_S

    def wall(self) -> float:
        return sum(w for w, _ in self.samples)

    def cpu(self) -> float:
        return sum(c for _, c in self.samples)


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and " " not in key:
            out[key] = value.strip()
    return out


def _degiorgi_y(text: str) -> dict:
    tables: dict = {}
    for line in text.splitlines():
        if line.startswith("[") and " n=" in line:
            side = line[1:line.index("]")]
            fields = dict(part.split("=", 1) for part in line.split()[1:] if "=" in part)
            tables.setdefault(side, []).append(float(fields["y"]))
    return tables


def _observe(job: dict, codes, stdouts) -> dict:
    """What the output checks need, read back through the library."""
    from nlch.grid import Grid
    from nlch.snapshots import SnapshotError, read_snapshot

    import csv

    observed = {"exit_codes": codes, "stdout_tail": [s[-400:] for s in stdouts]}
    csv_path = Path("out/timeseries.csv")
    header, rows = [], []
    if csv_path.exists():
        with open(csv_path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows = [dict(zip(header, r)) for r in reader]
    observed["csv_header"] = header
    observed["rows"] = len(rows)
    nan = float("nan")
    observed["t_final"] = float(rows[-1]["t"]) if rows else nan
    observed["final_energy"] = float(rows[-1]["energy"]) if rows else nan
    observed["min_delta_sep"] = min((float(r["delta_sep"]) for r in rows), default=nan)

    g = job["grid"]
    grid = Grid(g["dim"], g["n"], g["edge_length"])
    paths = sorted(Path("out").glob("*.nlch")) + sorted(Path("eq").glob("*.nlch"))
    unreadable = []
    for path in paths:
        try:
            read_snapshot(path, expected_grid=grid)
        except SnapshotError as exc:
            unreadable.append(f"{path}: {exc}")
    observed["snapshot_count"] = len(paths)
    observed["unreadable_snapshots"] = unreadable

    for argv, text in zip(job["commands"], stdouts):
        if argv[0] == "simulate":
            observed["simulate"] = _key_values(text)
        elif argv[0] == "degiorgi":
            observed["degiorgi_y"] = _degiorgi_y(text)
        elif argv[0] == "equilibrium":
            observed["equilibrium"] = _key_values(text)
    return observed


def _dir_readback_ok(job: dict) -> int:
    """1 if the simulate output directory is valid De Giorgi input as read by
    the library's own directory loader, else 0."""
    from nlch.config import load_config
    from nlch.degiorgi import level_set_measures
    from nlch.snapshots import read_snapshot_dir

    cfg = load_config(job["commands"][0][1])
    try:
        snaps = read_snapshot_dir("out")
        level_set_measures(snaps, cfg.degiorgi.delta, cfg.degiorgi.n_max)
    except (ValueError, OSError):
        return 0
    return 1


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import nlch.cli
        import nlch.dynamics
    except ImportError as exc:
        print(f"cannot import nlch from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3

    marks = {}
    original_run = nlch.dynamics.run

    def first_step_hook(*args, **kwargs):
        marks.setdefault("run_entry", time.perf_counter())
        if job["mode"] == "setup":
            raise _SetupDone
        return original_run(*args, **kwargs)

    result = {"mode": job["mode"]}
    if job["mode"] == "setup":
        nlch.dynamics.run = first_step_hook
        try:
            _run_command(nlch.cli.main, job["commands"][0])
        except _SetupDone:
            pass
        if "run_entry" not in marks:
            print("set-up probe never reached the first step", file=sys.stderr)
            return 4
        result["setup_s"] = marks["run_entry"] - _T0
        with SpeedSampler(0) as speed:
            pass
        result["slowdown"] = speed.slowdown()
        Path("result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if job["mode"] == "trace":
        sys.path.insert(0, str(HERE))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        nlch.dynamics.run = first_step_hook

    bounds = []  # span index range of each command
    codes, stdouts = [], []
    # No probing under the tracer: its FFT calls would land in the trace.
    with SpeedSampler(0 if tracer else PROBE_INTERVAL_S) as speed:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t_start = time.perf_counter()
        for argv in job["commands"]:
            lo = len(tracer.span_name) if tracer else 0
            code, out = _run_command(nlch.cli.main, argv)
            bounds.append((lo, len(tracer.span_name) if tracer else 0))
            codes.append(code)
            stdouts.append(out)
            if code != 0:
                break
        t_stop = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer:
            tracer.uninstall()
        in_run = len(speed.samples)
        probe_wall, probe_cpu = speed.wall(), speed.cpu()

    # wall and CPU time of the commands alone, without the probes
    result["wall_s"] = t_stop - t_start - probe_wall
    result["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - probe_cpu
    result["slowdown"] = speed.slowdown()
    result["probes_in_run"] = in_run
    result["peak_rss_mb"] = ru1.ru_maxrss / 1024.0  # Linux reports KiB
    if "run_entry" in marks:
        result["setup_s"] = marks["run_entry"] - _T0
    result["observed"] = _observe(job, codes, stdouts)
    if tracer:
        from spans import LAYERS, summarize

        tracer.save("spans.npz")
        result["layers"], result["counts"] = summarize(tracer, job["commands"], bounds)
        layers = result["layers"]
        layers["trace.wall_s"] = result["wall_s"]
        layers["trace.accounted_frac"] = (
            sum(layers[f"{layer}.self_s"] for layer in LAYERS) / result["wall_s"]
        )
        layers["snapshots.dir_readback_ok"] = _dir_readback_ok(job)
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
