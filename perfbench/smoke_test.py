#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced at the seconds-long --smoke scale,
through the same code as the measured runs, and asserts that:
  * every metric BENCHMARK.json names is emitted, with its unit;
  * every correctness check of the workload ran, and none failed;
  * the layers each workload calls report nonzero values;
  * the traced run wrote its span file with the span fields.
Exits nonzero with a list of problems otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3  # not the default seed

CHECKS = {
    "pin3d_ldpc": {"qor_finite", "stages_complete", "determinism"},
    "dco3d_ldpc": {"qor_finite", "stages_complete", "determinism", "dco_ran",
                   "dco_score_contract", "dco_kept_identical"},
    "train_ldpc": {"qor_finite", "train_finite", "train_guard_clean",
                   "determinism"},
}

_FLOW_STAGES = ["flow.place3d_ms", "flow.after_place_metrics_ms",
                "flow.cts_ms", "flow.legalize_ms", "flow.route_ms",
                "flow.signoff_ms", "flow.final_metrics_ms"]
_FLOW_LAYERS = _FLOW_STAGES + [
    "route.global_route_ms", "place.place_pseudo3d_ms",
    "place.legalize_all_ms", "timing.run_sta_ms", "util.arena_peak_bytes",
    "io.read_design_ms", "qor.signoff_overflow", "qor.signoff_wl_um",
    "trace.job_ms"]
NONZERO = {
    "pin3d_ldpc": _FLOW_LAYERS,
    "dco3d_ldpc": _FLOW_LAYERS + [
        "flow.dco_ms", "route.trial_route_ms", "route.trial_routes",
        "core.run_dco_ms", "core.dco_iters", "core.dco_score_initial",
        "core.spreader_fwd_ms", "core.loss_disp_ms", "core.loss_ovlp_ms",
        "core.loss_cut_ms", "core.loss_cong_ms", "grid.soft_maps_fwd_ms",
        "grid.soft_maps_fwd_bwd_ms", "nn.unet_fwd_ms", "nn.backward_ms",
        "nn.adam_step_ms", "util.pool_dispatches"],
    "train_ldpc": [
        "flow.build_dataset_ms", "flow.make_sample_ms",
        "core.train_predictor_ms", "route.global_route_ms",
        "place.place_pseudo3d_ms", "place.legalize_all_ms",
        "grid.feature_maps_ms", "nn.unet_fwd_ms", "nn.backward_ms",
        "nn.adam_step_ms", "nn.train_step_ms", "util.pool_dispatches",
        "util.arena_peak_bytes", "io.read_design_ms", "qor.test_loss",
        "trace.job_ms"],
}
SPAN_FIELDS = {"id", "parent", "job", "name", "start_ms", "end_ms", "self_ms"}


def run(workload, trace, problems):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    tag = f"{workload} trace={trace}"
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        problems.append(f"{tag}: exit {r.returncode}")
        return None
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 2:
        problems.append(f"{tag}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    checks = next(json.loads(l) for l in lines if l.startswith('{"checks"'))
    missing = CHECKS[workload] - {k for k, n in checks["checks"].items() if n > 0}
    if missing:
        problems.append(f"{tag}: checks never ran: {sorted(missing)}")
    if checks["failures"]:
        problems.append(f"{tag}: failures {checks['failures']}")
    return result["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run(workload, trace, problems)
            if metrics is None:
                continue
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{workload} trace={trace}: metric "
                                    f"{m['name']} missing or unit {got}")
            if sorted(metrics) != sorted(m["name"] for m in spec[key]):
                problems.append(f"{workload} trace={trace}: extra metrics")
            zero = [n for n in (NONZERO[workload] if trace else
                                [m["name"] for m in spec[key]])
                    if metrics.get(n, {}).get("value", 0) == 0]
            if zero:
                problems.append(f"{workload} trace={trace}: zero {zero}")
        trace_file = (ROOT / ".bench_build" / "runs" /
                      f"trace-{workload}-seed{SEED}.json")
        spans = json.loads(trace_file.read_text())["spans"]
        if not spans or any(SPAN_FIELDS - set(s) for s in spans):
            problems.append(f"{workload}: trace file lacks span fields")
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
