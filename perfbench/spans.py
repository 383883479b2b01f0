"""Outside-in tracing of the nlch modules.

`Tracer.install()` replaces every public function of every `nlch` module,
under every module attribute it is bound to (functions imported by name into
another module included), with a wrapper that records one span: name, start,
end and parent.  The numpy FFT entry points that nlch calls are wrapped the
same way and count as the `grid` layer.  Spans live in flat arrays in memory
and are written out with `Tracer.save()` when the run ends.

Nothing in `src/` changes: the wrappers sit on module attributes, which the
package looks up at call time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "config", "grid", "kernels", "potential", "dynamics",
    "diagnostics", "snapshots", "degiorgi", "equilibrium", "cli",
)
FFT_FUNCTIONS = ("rfftn", "irfftn", "fftn", "ifftn")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # side records, read at the same boundaries as the spans
        self.fft_bytes = array("d")  # per FFT span, in span order of FFT calls
        self.fft_spans = array("i")
        self.step_records: list[tuple[float, float, int]] = []  # (dt asked, dt taken, iters)
        self.snapshot_paths: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(idx, args, kwargs, result)
        runs once the span is closed."""
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, obj, attr: str, new) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        import nlch
        import nlch.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [nlch] + [sys.modules[f"nlch.{layer}"] for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"nlch.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = self.span(f"{layer}.{attr}", fn, self._after(layer, attr))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        for attr in FFT_FUNCTIONS:
            self._patch(np.fft, attr, self.span(f"fft.{attr}", getattr(np.fft, attr), self._after_fft))

        # The CLI's row and snapshot callbacks are CLI code that dynamics.run
        # calls back into; give them their own spans in the cli layer.
        run = nlch.dynamics.run

        def run_with_cli_callbacks(*args, **kwargs):
            for key in ("on_row", "on_snapshot"):
                if kwargs.get(key) is not None:
                    kwargs[key] = self.span(f"cli.{key}", kwargs[key])
            return run(*args, **kwargs)

        self._patch(nlch.dynamics, "run", run_with_cli_callbacks)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def _after(self, layer: str, attr: str):
        hooks = {("dynamics", "step"): self._after_step,
                 ("snapshots", "write_snapshot"): self._after_write}
        return hooks.get((layer, attr))

    def _after_fft(self, idx, args, kwargs, result) -> None:
        a = args[0] if args else kwargs["a"]
        self.fft_spans.append(idx)
        self.fft_bytes.append(float(np.asarray(a).nbytes + result.nbytes))

    def _after_step(self, idx, args, kwargs, state) -> None:
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        asked = kwargs.get("dt", args[4] if len(args) > 4 else None)
        asked = cfg.dt if asked is None else asked
        self.step_records.append((float(asked), state.last_dt, state.last_inner_iters))

    def _after_write(self, idx, args, kwargs, result) -> None:
        self.snapshot_paths.append(os.fspath(args[2] if len(args) > 2 else kwargs["path"]))

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return "grid" if prefix == "fft" else prefix


def _descendants(parent: np.ndarray, is_root: np.ndarray) -> np.ndarray:
    """Mask of spans that have a span with is_root among their ancestors.
    Parents always precede their children, so one forward pass suffices."""
    inside = np.zeros(parent.size, dtype=bool)
    under = is_root.copy()  # span is a root or lies under one
    par = parent.tolist()
    for i, p in enumerate(par):
        if p >= 0 and under[p]:
            inside[i] = True
            under[i] = True
    return inside


def summarize(tracer: Tracer, commands, bounds) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts of one traced run.

    Conventions: ``*_s`` is a total over the whole workload, ``*_ms`` a mean
    per call over the whole workload (inclusive of the spans below it), and
    ``*_per_step`` / ``*_per_row`` a count in the simulate command divided by
    its accepted steps / diagnostics rows.
    """
    a = tracer.arrays()
    names, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    ids = {name: i for i, name in enumerate(tracer.names)}
    span_layer = np.array([layer_of(n) for n in tracer.names] or [""])[names]

    sim = np.zeros(dur.size, dtype=bool)
    for argv, (lo, hi) in zip(commands, bounds):
        if argv[0] == "simulate":
            sim[lo:hi] = True

    def is_(name):
        return names == ids.get(name, -1)

    def calls(name, where=None):
        mask = is_(name) if where is None else is_(name) & where
        return int(np.count_nonzero(mask))

    def total_s(*fn_names):
        return float(sum(dur[is_(n)].sum() for n in fn_names))

    def mean_ms(name):
        d = dur[is_(name)]
        return 1e3 * float(d.mean()) if d.size else 0.0

    fft_names = [f"fft.{f}" for f in FFT_FUNCTIONS]
    is_fft = np.isin(names, [ids[n] for n in fft_names if n in ids])
    fft_bytes = np.zeros(dur.size)
    fft_bytes[np.frombuffer(tracer.fft_spans, dtype=np.int32)] = np.frombuffer(tracer.fft_bytes)

    step_mask = is_("dynamics.step")
    steps = int(np.count_nonzero(step_mask & sim))
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    under_step = _descendants(parent, step_mask)
    fprime_in_step = calls("potential.derivative", under_step)
    records = np.array(tracer.step_records, dtype=float).reshape(-1, 3)
    rejected = float(np.log2(records[:, 0] / records[:, 1]).sum())
    final_iters = int(records[:, 2].sum())
    step_ms = 1e3 * dur[step_mask]

    row_mask = is_("diagnostics.make_row")
    rows = int(np.count_nonzero(row_mask))
    under_row = _descendants(parent, row_mask)

    metrics = {
        "config.load_ms": mean_ms("config.load_config"),
        "kernels.build_ms": mean_ms("kernels.build_kernel"),
        "grid.fft_calls_per_step": per_step(int(np.count_nonzero(is_fft & sim))),
        "grid.fft_s": float(dur[is_fft].sum()),
        "grid.fft_bytes_per_step": per_step(float(fft_bytes[sim].sum())),
        "grid.h1_seminorm_calls": calls("grid.h1_seminorm_sq"),
        "grid.h1_seminorm_ms": mean_ms("grid.h1_seminorm_sq"),
        "potential.derivative_calls_per_step": per_step(calls("potential.derivative", sim)),
        "potential.derivative_s": total_s("potential.derivative"),
        "potential.second_derivative_calls_per_step": per_step(
            calls("potential.second_derivative", sim)
        ),
        "potential.second_derivative_s": total_s("potential.second_derivative"),
        "potential.value_s": total_s("potential.value"),
        "kernels.convolve_calls_per_step": per_step(calls("kernels.convolve", sim)),
        "kernels.convolve_values_calls_per_step": per_step(calls("kernels.convolve_values", sim)),
        "kernels.convolve_s": total_s("kernels.convolve", "kernels.convolve_values"),
        "dynamics.steps": steps,
        "dynamics.step_self_s": float(self_time[step_mask].sum()),
        "dynamics.step_ms_p50": float(np.percentile(step_ms, 50)) if steps else 0.0,
        "dynamics.step_ms_p99": float(np.percentile(step_ms, 99)) if steps else 0.0,
        "dynamics.inner_iters_per_step": per_step(final_iters),
        "dynamics.inner_iters_total_per_step": per_step(fprime_in_step - steps),
        "dynamics.rejected_attempts_per_step": per_step(rejected),
        "dynamics.accept_ratio": steps / (steps + rejected) if steps else 0.0,
        "dynamics.min_dt": float(records[:, 1].min()) if steps else 0.0,
        "diagnostics.rows": rows,
        "diagnostics.make_row_ms": mean_ms("diagnostics.make_row"),
        "diagnostics.fft_calls_per_row": (
            int(np.count_nonzero(is_fft & under_row)) / rows if rows else 0.0
        ),
        "diagnostics.gn_constant_estimate_ms": mean_ms("diagnostics.gn_constant_estimate"),
        "diagnostics.poincare_sweep_ms": mean_ms("diagnostics.poincare_sweep"),
        "snapshots.writes": calls("snapshots.write_snapshot"),
        "snapshots.write_ms": mean_ms("snapshots.write_snapshot"),
        "snapshots.bytes_written": sum(os.path.getsize(p) for p in tracer.snapshot_paths),
        "snapshots.reads": calls("snapshots.read_snapshot"),
        "snapshots.read_ms": mean_ms("snapshots.read_snapshot"),
        "degiorgi.verify_ms": mean_ms("degiorgi.verify_scheme_on_trajectory"),
        "degiorgi.level_set_measures_calls": calls("degiorgi.level_set_measures"),
        "degiorgi.level_set_measures_ms": mean_ms("degiorgi.level_set_measures"),
        "degiorgi.estimate_c_tau_ms": mean_ms("degiorgi.estimate_c_tau"),
        "equilibrium.solve_ms": mean_ms("equilibrium.solve_stationary"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = float(self_time[span_layer == layer].sum())
    metrics["trace.span_count"] = int(dur.size)

    counts = {name: calls(name) for name in tracer.names}
    counts["fft_calls_in_simulate"] = int(np.count_nonzero(is_fft & sim))
    counts["inner_iters_final"] = final_iters
    counts["fprime_in_step"] = fprime_in_step
    counts["rejected_attempts"] = rejected
    return metrics, counts
