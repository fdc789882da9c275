#!/usr/bin/env python3
"""Whole-path wall-clock benchmark of the BGPQ library.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload native_mixed --seed 1 --seconds 6 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run's details (raw figures, machine shape, checks).  See
README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("native_mixed", "knapsack_bb", "serve_durable", "fleet_mixed")

#: library modules each workload uses; importing them is part of set-up
IMPORTS = {
    "native_mixed": ["numpy", "repro.core.native", "repro.device.kernels"],
    "knapsack_bb": ["numpy", "repro.core.native", "repro.apps.knapsack"],
    "serve_durable": ["numpy", "repro.core.native", "repro.serve"],
    "fleet_mixed": ["numpy", "repro.core.native", "repro.fleet"],
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "keys_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "recover_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def _simd_isa() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.machine()
    flags = set()
    for line in text.splitlines():
        if line.startswith(("flags", "Features")):
            flags = set(line.split(":", 1)[1].split())
            break
    for isa in ("avx512f", "avx2", "avx", "sse4_2", "neon", "asimd"):
        if isa in flags:
            return isa
    return platform.machine()


def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    i = min(len(sorted_vals) - 1, max(0, int(round(q * len(sorted_vals))) - 1))
    return sorted_vals[i]


def end_to_end(run, import_s: float) -> tuple[dict, dict]:
    """(raw, host-scaled) end-to-end figures of an untraced run."""
    med = statistics.median
    raw_lat = sorted(run.lat_ns)
    raw = {
        "setup_s": import_s + med(run.setup_ns) / 1e9,
        "ops_per_s": run.ops / (run.busy_ns / 1e9),
        "keys_per_s": run.keys / (run.busy_ns / 1e9),
        "op_p50_us": _percentile(raw_lat, 0.50) / 1e3,
        "op_p99_us": _percentile(raw_lat, 0.99) / 1e3,
        "recover_s": med(run.recover_ns) / 1e9,
    }
    lat = sorted(run.lat_scaled)
    scaled = {
        "setup_s": import_s + med(run.setup_scaled) / 1e9,
        "ops_per_s": run.ops / (run.busy_scaled / 1e9),
        "keys_per_s": run.keys / (run.busy_scaled / 1e9),
        "op_p50_us": _percentile(lat, 0.50) / 1e3,
        "op_p99_us": _percentile(lat, 0.99) / 1e3,
        "recover_s": med(run.recover_scaled) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }
    return raw, scaled


def per_layer(run) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    tr = run.tracer
    ref = run.ref
    on = max(1, run.on_ns)
    ops = max(1, run.ops)
    us = lambda layer, self_time=False: ref.time(tr.mean_us(layer, self_time))
    share = lambda *layers: sum(tr.self_ns.get(x, 0) for x in layers) / on
    layer = run.layer
    native_on = tr.calls.get("native.insert", 0) + tr.calls.get("native.deletemin", 0)
    charge_ns = layer.get("charge_us_per_call", 0.0) * 1e3 * native_on
    native_self = tr.self_ns.get("native.insert", 0) + tr.self_ns.get("native.deletemin", 0)
    charge_ns = min(charge_ns, native_self)
    kern = run.kern
    kernel_layers = [x for x in tr.self_ns if x.startswith("kernels.")]
    wal = sorted(tr.durations.get("wal.append", [])) or [0]
    requests_on = max(1, tr.calls.get("service", 0))
    fleet_layers = [x for x in tr.self_ns if x.startswith("fleet.")]
    attributed = sum(tr.self_ns.values())
    m = {
        "native.insert_us": us("native.insert"),
        "native.deletemin_us": us("native.deletemin"),
        "native.build_ms": ref.time(statistics.median(run.build_ns) / 1e6)
        if run.build_ns else 0.0,
        "native.glue_share": (native_self - charge_ns) / on,
        "charge.share": charge_ns / on,
        "charge.us_per_op": ref.time(layer.get("charge_us_per_call", 0.0))
        * run.native_calls / ops,
        "charge.sim_ns_per_op": float(run.sim_ns) / ops,
        "kernels.fused_insert_us": us("kernels.fused_insert"),
        "kernels.fused_deletemin_us": us("kernels.fused_deletemin"),
        "kernels.sort_records_us": us("kernels.sort_records"),
        "kernels.calls_per_op": (kern.calls if kern else 0) / ops,
        "kernels.records_per_op": (kern.records if kern else 0) / ops,
        "kernels.share": share(*kernel_layers),
        "apps.expand_share": share("apps"),
        "apps.nodes_per_op": layer.get("nodes_per_op", 0.0),
        "apps.prune_frac": layer.get("prune_frac", 0.0),
        "admission.us_per_req": ref.time(tr.total_ns.get("admission", 0) / requests_on / 1e3)
        if "service" in tr.calls else 0.0,
        "admission.shed_frac": layer.get("shed_frac", 0.0),
        "admission.share": share("admission"),
        "wal.append_p50_us": ref.time(_percentile(wal, 0.50) / 1e3),
        "wal.append_p99_us": ref.time(_percentile(wal, 0.99) / 1e3),
        "wal.bytes_per_key": layer.get("wal_bytes_per_key", 0.0),
        "wal.share": share("wal.append"),
        "service.apply_self_us": us("service", self_time=True),
        "service.share": share("service"),
        "ckpt.export_ms": us("ckpt.export") / 1e3,
        "ckpt.save_ms": us("ckpt.save") / 1e3,
        "ckpt.bytes_per_live_key": layer.get("ckpt_bytes_per_live_key", 0.0),
        "ckpt.count": float(layer.get("ckpt_count", 0)),
        "ckpt.share": share("ckpt.export", "ckpt.save"),
        "recover.wal_scan_ms": ref.time(layer.get("wal_scan_ns", 0) / 1e6),
        "recover.restore_ms": ref.time(layer.get("restore_ns", 0) / 1e6),
        "recover.replay_ms": ref.time(layer.get("replay_ns", 0) / 1e6),
        "recover.replayed": float(layer.get("replayed", 0)),
        "fleet.route_us": us("fleet.route"),
        "fleet.plan_us": us("fleet.plan"),
        "fleet.exec_delete_us": us("fleet.exec_delete", self_time=True),
        "fleet.steals_per_delete": layer.get("steals_per_delete", 0.0),
        "fleet.probe_hit_ratio": layer.get("probe_hit_ratio", 0.0),
        "fleet.imbalance": layer.get("imbalance", 0.0),
        "fleet.max_rank": float(layer.get("max_rank", 0)),
        "fleet.share": share(*fleet_layers),
        "host.ref_us": ref.median_us,
        "host.ref_iqr": ref.iqr,
        "trace.overhead": (run.on_ns / max(1, run.on_ops))
        / (run.off_ns / max(1, run.off_ops)) - 1.0
        if run.off_ns else 0.0,
        "trace.unattributed_share": (run.on_ns - attributed) / on,
    }
    return m


PER_LAYER_UNITS = {
    "native.insert_us": "us", "native.deletemin_us": "us",
    "native.build_ms": "ms", "native.glue_share": "fraction",
    "charge.share": "fraction", "charge.us_per_op": "us",
    "charge.sim_ns_per_op": "ns",
    "kernels.fused_insert_us": "us", "kernels.fused_deletemin_us": "us",
    "kernels.sort_records_us": "us", "kernels.calls_per_op": "count",
    "kernels.records_per_op": "count", "kernels.share": "fraction",
    "apps.expand_share": "fraction", "apps.nodes_per_op": "count",
    "apps.prune_frac": "fraction",
    "admission.us_per_req": "us", "admission.shed_frac": "fraction",
    "admission.share": "fraction",
    "wal.append_p50_us": "us", "wal.append_p99_us": "us",
    "wal.bytes_per_key": "B", "wal.share": "fraction",
    "service.apply_self_us": "us", "service.share": "fraction",
    "ckpt.export_ms": "ms", "ckpt.save_ms": "ms",
    "ckpt.bytes_per_live_key": "B", "ckpt.count": "count",
    "ckpt.share": "fraction",
    "recover.wal_scan_ms": "ms", "recover.restore_ms": "ms",
    "recover.replay_ms": "ms", "recover.replayed": "count",
    "fleet.route_us": "us", "fleet.plan_us": "us",
    "fleet.exec_delete_us": "us", "fleet.steals_per_delete": "count",
    "fleet.probe_hit_ratio": "fraction", "fleet.imbalance": "ratio",
    "fleet.max_rank": "count",
    "fleet.share": "fraction",
    "host.ref_us": "us", "host.ref_iqr": "fraction",
    "trace.overhead": "fraction", "trace.unattributed_share": "fraction",
}


#: fresh interpreters whose library import is timed, besides this one
FRESH_IMPORTS = 4


def fresh_imports(workload: str) -> list[float]:
    """Import time of the workload's modules in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {', '.join(IMPORTS[workload])}; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(FRESH_IMPORTS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout))
    return out


def machine_shape(kernel_info: dict, cold_compile_s: float | None, ref) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "simd_isa": _simd_isa(),
        "kernels": kernel_info,
        "cold_compile_s": cold_compile_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "flush_policy": "flush per WAL record, fsync off",
        "host.ref_us": ref.median_us,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: library source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    # the compiled kernels are built once per checkout, inside it
    os.environ["REPRO_CKERN_CACHE"] = str(build / "ckern")
    os.environ["REPRO_KERNELS"] = "auto"
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    for name in IMPORTS[args.workload]:
        importlib.import_module(name)
    imports = [time.perf_counter() - t0] + fresh_imports(args.workload)
    # imports follow loader and file-system work more than interpreter
    # speed (scaling them by the reference made them noisier), so they
    # enter set-up as measured: the median of this process's own import
    # and of a few fresh interpreters'
    import_s = statistics.median(imports)
    ref = hostref.HostRef()

    from repro.device import cbuild
    from repro.primitives import kernels

    cold = not any(cbuild.cache_dir().glob("*/_repro_ckern*"))
    t0 = time.perf_counter()
    backend = kernels.active()
    cold_compile_s = time.perf_counter() - t0 if cold else None
    kernel_info = dict(backend.provenance())
    kernel_info["build_error"] = cbuild.build_error()

    import workloads

    data_root = build / f"run-{os.getpid()}"
    shutil.rmtree(data_root, ignore_errors=True)
    data_root.mkdir(parents=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), data_root, ref)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(data_root, ignore_errors=True)

    raw, scaled = end_to_end(run, import_s)
    if args.trace:
        metrics = {n: {"value": v, "unit": PER_LAYER_UNITS[n]}
                   for n, v in per_layer(run).items()}
    else:
        metrics = {n: {"value": scaled[n], "unit": END_TO_END_UNITS[n]}
                   for n in END_TO_END_UNITS}
    correct = all(run.checks.values()) and run.failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "raw": raw,
        "scaled": scaled,
        "host_scale": {
            "ref_median_us": run.ref.median_us,
            "nominal_ref_us": hostref.NOMINAL_REF_US,
            "ref_iqr": run.ref.iqr,
            "ref_unsteady": run.ref.unsteady,
            "ref_iqr_limit": hostref.REF_IQR_LIMIT,
        },
        "samples": {"ops": len(run.lat_ns), "ref": len(run.ref.samples_us)},
        "imports_s": imports,
        "setup_reps_s": [x / 1e9 for x in run.setup_ns],
        "recover_reps_s": [x / 1e9 for x in run.recover_ns],
        "checks": run.checks,
        "notes": run.notes,
        "machine": machine_shape(kernel_info, cold_compile_s, run.ref),
    }
    if run.ref.unsteady:
        print(f"warning: host reference spread {run.ref.iqr:.3f} exceeds "
              f"{hostref.REF_IQR_LIMIT}: host speed moved inside the run, "
              "so its scaled figures are less trustworthy", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
