"""Convergence-study benchmark of the HHO p-Laplacian solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the library from the `src/` directory next to this one.  A run
repeats the workload's whole convergence study as often as fits in
`--seconds` (and at least twice), checks every study, and reports medians
over the repeats.  With `--trace 1` the last study runs with spans recorded
around calls into each module, and single layers are then probed on its
finest-level solution.  Details and reference figures: README.md here.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record goes to
bench_results/BENCH_<workload>[_trace].json (and the spans of a traced run
to bench_results/TRACE_<workload>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench_results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

END_TO_END = {
    "study_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mib": "MiB",
    "newton_iters": "count",
    "err_1ph": "1",
}

# per-layer figures at the finest level; the spanned layers are totals over
# that level, the probed ones one call on its solution
SPANNED = ("mesh.generate", "solver.build_packs",
           "hho_local.build_local_operators", "polybasis.cell_basis",
           "polybasis.face_basis", "quadrature.cell_rule",
           "quadrature.face_rule", "solver.compute_loads", "harness.manufactured_source",
           "solver.newton_solve", "harness.compute_errors",
           "solver.interpolate_global")
PROBED = ("law.flux_s", "law.flux_jacobian_s", "solver.assemble_residual_s",
          "solver.assemble_system_s", "solver.spsolve_s",
          "solver.newton_step_s")
COUNTS = ("quadrature.cell_nodes", "quadrature.face_nodes", "law.flux_points",
          "solver.residual_evals", "solver.damping_events", "mesh.elements",
          "solver.ndofs", "solver.jacobian_nnz")
PER_LAYER = {**{f"{n}_s": "s" for n in SPANNED}, **{n: "s" for n in PROBED},
             **{n: "count" for n in COUNTS}, "trace.overhead_s": "s"}


def prepare():
    """Pin BLAS to one thread and put the library on the path.

    Must run before numpy is first imported: every dense call the library
    makes is on one element's matrix, where a BLAS thread pool adds spread
    and no speed."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "hho" / "__init__.py").is_file():
        raise SystemExit(f"error: no hho package under {src}")
    sys.path.insert(0, str(src))


def _thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "process_threads": _thread_count(),
        "seed": seed,
    }


def measure(w, seconds: float, rng, min_rounds: int = 2, reserve: int = 0):
    """Repeat the study while the next repeat (plus `reserve` more) still
    fits in `seconds`, and at least `min_rounds` times."""
    import study
    from hho.harness import study_to_csv

    reference = study.coarsest_reference(w)   # also warms lazy set-up
    oracle = reference if w.condense else None
    law = w.law()
    rounds, ops, lengths = [], [], []
    first_csv = None
    t0 = time.perf_counter()
    while (len(rounds) < min_rounds or time.perf_counter() - t0
           + (1 + reserve) * statistics.median(lengths) <= seconds):
        t_round = time.perf_counter()
        rnd = study.run_round(w, law)
        rnd_ops, figures = study.check_round(w, rnd, rng, first_csv, oracle)
        first_csv = first_csv or study_to_csv(rnd.study)
        rnd.finest = None             # keep one level's operators alive
        rounds.append((rnd, figures, rnd_ops))
        ops += rnd_ops
        lengths.append(time.perf_counter() - t_round)
        print(f"{w.name}: round {len(rounds)} study {rnd.study_s:.3f} s",
              file=sys.stderr)
    return rounds, ops, first_csv, oracle


def round_record(rnd, figures, rnd_ops) -> dict:
    return {"study_s": rnd.study_s, "setup_s": rnd.setup_s,
            "solve_s": rnd.solve_s, "errors_s": rnd.errors_s,
            "newton_iters": [r.newton_iters for r in rnd.study.rows],
            "checks": figures,
            "failures": {op.level: op.failures for op in rnd_ops
                         if op.failures}}


def end_to_end(rounds) -> dict:
    last = rounds[-1][0].study
    return {
        "study_s": statistics.median(r.study_s for r, _, _ in rounds),
        "setup_s": statistics.median(sum(r.setup_s) for r, _, _ in rounds),
        "solve_s": statistics.median(sum(r.solve_s) for r, _, _ in rounds),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "newton_iters": sum(row.newton_iters for row in last.rows),
        "err_1ph": last.rows[-1].errors.err_1ph,
    }


def traced(w, rng, first_csv, oracle, untraced_study_s):
    """One more study with spans recorded, then per-layer figures."""
    import study
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched():
        rnd = study.run_round(w, tracer.counting_law(w.law()), tracer)
    rnd_ops, figures = study.check_round(w, rnd, rng, first_csv, oracle)
    probes = tracing.probe_layers(w, rnd.finest)
    root = tracer.root_of(f"study.level_{w.levels[-1]}")
    total, self_time, calls = tracer.totals(root)
    counts = tracer.counts[root]
    finest = rnd.study.rows[-1]
    metrics = {f"{n}_s": total.get(n, 0.0) for n in SPANNED}
    metrics.update({n: probes[n] for n in PROBED})
    metrics.update({
        "quadrature.cell_nodes": counts["quadrature.cell_nodes"],
        "quadrature.face_nodes": counts["quadrature.face_nodes"],
        "law.flux_points": counts["law.flux_points"],
        "solver.residual_evals": calls.get("solver.assemble_residual", 0),
        "solver.damping_events": sum(s.damping_events
                                     for s in finest.report.stages),
        "mesh.elements": len(rnd.finest.mesh.elements),
        "solver.ndofs": finest.ndofs,
        "solver.jacobian_nnz": probes["solver.jacobian_nnz"],
        "trace.overhead_s": rnd.study_s - untraced_study_s,
    })
    record = {"round": round_record(rnd, figures, rnd_ops),
              "total_s": total, "self_s": self_time, "calls": dict(calls)}
    return metrics, rnd_ops, record, tracer.dump()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare()
    import numpy as np
    import study

    if args.workload not in study.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(study.WORKLOADS)}")
    w = study.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)   # energy-check directions only

    # a traced run keeps room for its traced study, which is compared with
    # the first untraced one
    rounds, ops, first_csv, oracle = measure(
        w, args.seconds, rng, min_rounds=1 if args.trace else 2,
        reserve=args.trace)
    e2e = end_to_end(rounds)
    record = {"workload": {"name": w.name, "family": w.family, "k": w.k,
                           "p": w.p, "case": w.case,
                           "condense": w.condense, "levels": list(w.levels)},
              "seconds": args.seconds, "trace": args.trace,
              "rounds": [round_record(*r) for r in rounds],
              "end_to_end": e2e, "csv": first_csv}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, traced_ops, trace_record, spans = traced(
            w, rng, first_csv, oracle, e2e["study_s"])
        ops += traced_ops
        record["traced"] = trace_record
        (OUT_DIR / f"TRACE_{w.name}.json").write_text(json.dumps(spans))
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    failed = sum(1 for op in ops if op.failures)
    record.update(facts=machine_facts(args.seed), attempted=len(ops),
                  failed=failed, metrics=metrics)
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"BENCH_{w.name}{suffix}.json").write_text(
        json.dumps(record, indent=1, default=float))

    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit in units.items()}
    for name, m in out.items():
        if not np.isfinite(m["value"]):
            raise SystemExit(f"error: metric {name} is {m['value']}")
    for op in ops:
        for failure in op.failures:
            print(f"FAILED level {op.level}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": out}, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
