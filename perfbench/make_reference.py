"""Regenerate reference.json from the current checkout.

    python3 perfbench/make_reference.py

Runs each workload once (benchmark seed 1, tracing off) and stores the
values the output checks compare against.  Run it only on the commit whose
outputs define "correct"; a change that claims a gain must not touch it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, environment, run_worker  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, command_argvs, prepare_inputs  # noqa: E402

# The frozen timeseries.csv column order, kept here rather than read from
# nlch so that a change to the program cannot redefine what it is checked for.
CSV_COLUMNS = [
    "t", "mass", "energy", "energy_alt", "dissipation_accum", "energy_residual",
    "min_phi", "max_phi", "delta_sep", "mu_linf", "inner_iters", "dt_used",
]

# Loose enough for another inner solver at the same inner_tol.  On
# segregation-1d the accepted dt history is part of the answer: at t = 0.46
# a run held at dt = 3e-3 ends 0.9% higher in energy with an 11% larger
# margin than the seed commit's halving run, and the dt -> 0 limit 7.5% lower
# with a 54% smaller margin, so any dt control between those must pass.
TOLERANCES = {
    "spinodal-2d": {"energy_rel": 1e-6, "delta_sep_rel": 1e-3},
    "segregation-1d": {"energy_rel": 0.1, "delta_sep_rel": 0.6},
    "verify-1d": {"energy_rel": 1e-7, "delta_sep_rel": 1e-5,
                  # two grid cells over one snapshot stride
                  "degiorgi_y_abs": 2 * (4.0 / 128) * (5 * 0.003)},
}


def main() -> int:
    base = ROOT / ".perfbench_runs" / "reference"
    if base.exists():
        shutil.rmtree(base)
    out = {"csv_columns": CSV_COLUMNS, "workloads": {}}
    for name, w in WORKLOADS.items():
        inputs = base / name / "inputs"
        image = prepare_inputs(w, 1, inputs)
        job = {"commands": command_argvs(w, inputs),
               "grid": {"dim": w.dim, "n": w.n, "edge_length": w.edge_length}}
        r = run_worker(dict(job, mode="run"), base / name / "rep", time.monotonic() + 600)
        obs = r["observed"]
        if obs["exit_codes"] != [0] * len(w.commands) or obs["csv_header"] != CSV_COLUMNS:
            print(f"{name}: run failed: {obs}", file=sys.stderr)
            return 1
        ref = {
            "final_energy": obs["final_energy"],
            "min_delta_sep": obs["min_delta_sep"],
            "tolerance": TOLERANCES[name],
        }
        if "degiorgi_y" in obs:
            ref["degiorgi_y"] = obs["degiorgi_y"]
        if "equilibrium" in obs:
            ref["equilibrium"] = {"residual_linf_max": 1e-10, "mass_error_max": 1e-12}
        out["workloads"][name] = ref
        print(name, json.dumps(ref), f"wall {r['wall_s']:.2f} s")
    out["source"] = {k: v for k, v in environment(w, 1, image).items()
                     if k in ("git_commit", "src_sha256", "numpy", "python")}
    REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
