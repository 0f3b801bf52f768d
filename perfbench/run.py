"""Two-clock benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch-hot --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``tpch-hot``, ``tpch-ooc-cold``, ``fleet-param``
(see ``perfbench/workloads.py``).  The seed drives every input.

An untraced run (``--trace 0``) times the workload's setup several times
and reports the median, then repeats passes over the workload's queries
until ``--seconds`` of host time are spent (and the host tail percentile
has ten samples beyond it).  It prints every end-to-end metric of
``BENCHMARK.json`` — host-clock metrics from the timed passes, sim-clock
metrics from one pass — with its unit and clock.

A traced run (``--trace 1``) runs one traced setup, the same untraced
passes, then one more pass with spans recorded around the program's
public functions (``perfbench/tracing.py``), and prints every per-layer
metric.  Its sim numbers must equal the untraced passes' exactly.

Every answer is compared with MiniDuck's CPU engine (outside every timed
region).  An exception, a mismatch, an answer from a CPU fallback tier,
or a fleet job that fails, is rejected or expires counts as failed; any
failure makes the command exit 1.  A sim value or count that does not
repeat exactly across passes, or across runs of one seed, exits 3.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Caches (CPU
reference answers, sim fingerprints) and span dumps go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Clock of each end-to-end metric (BENCHMARK.json has no field for it).
CLOCKS = {
    "setup_s": "host",
    "host_qps": "host",
    "host_query_p50_ms": "host",
    "host_query_tail_ms": "host",
    "peak_rss_mb": "host",
    "sim_total_ms": "sim",
    "sim_speedup_vs_cpu": "sim",
    "sim_latency_p50_ms": "sim",
    "sim_latency_tail_ms": "sim",
    "sim_qps": "sim",
    "slo_frac": "sim",
}
PAPER_SPEEDUP = 7.0  # Figure 4's geomean over DuckDB, printed as a reference
MAX_PASSES = 1000


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale factors and one setup (the smoke test)")
    return ap.parse_args(argv)


def check_answers(passes, refs, rows_equal) -> list[str]:
    failures = []
    for p in passes:
        for c in p.calls:
            if c.error is not None:
                failures.append(f"{c.key}: {c.error}")
            elif not c.gpu:
                failures.append(f"{c.key}: answered by a CPU fallback tier")
            elif not rows_equal(c.table.to_rows(), refs[c.key]["rows"]):
                failures.append(f"{c.key}: result differs from the CPU reference")
    return failures


def sim_state(p) -> dict:
    """Everything of a pass that must repeat exactly."""
    return {"sim": p.sim, "layer": p.layer, "sirius_sim_s": p.sirius_sim_s}


def end_to_end(wl, setup_times, passes, refs, st) -> tuple[dict, dict]:
    """``(metrics, notes)``: the end-to-end values and their sample notes."""
    host = [c.host_s for p in passes for c in p.calls if c.host_s is not None]
    completed = sum(1 for p in passes for c in p.calls if c.error is None)
    first = passes[0]
    lat_ms = [s * 1e3 for s in first.sim["latencies_s"]]
    speedups = [
        refs[k]["cpu_sim_s"] / v for k, v in first.sirius_sim_s.items() if v > 0
    ]
    host_tail, host_pct, host_n = st.tail([h * 1e3 for h in host], wl.host_tail_pct)
    sim_tail, sim_pct, sim_n = st.tail(lat_ms)
    metrics = {
        "setup_s": st.median(setup_times),
        "host_qps": completed / sum(p.host_s for p in passes),
        "host_query_p50_ms": st.median(host) * 1e3,
        "host_query_tail_ms": host_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_total_ms": first.sim["sim_total_ms"],
        "sim_speedup_vs_cpu": st.geomean(speedups),
        "sim_latency_p50_ms": st.median(lat_ms),
        "sim_latency_tail_ms": sim_tail,
        "sim_qps": first.sim["sim_qps"],
        "slo_frac": first.sim["slo_frac"],
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} setups",
        "host_qps": f"{completed} queries in passes of "
        + " ".join(f"{p.host_s:.3f}" for p in passes) + " s",
        "host_query_p50_ms": f"n={host_n}",
        "host_query_tail_ms": f"p{host_pct:g} of n={host_n}",
        "sim_speedup_vs_cpu": f"geomean of {len(speedups)} (paper: {PAPER_SPEEDUP:g}x)",
        "sim_latency_p50_ms": f"n={sim_n}",
        "sim_latency_tail_ms": f"p{sim_pct:.4g} of n={sim_n}",
        "slo_frac": f"limit {wl.slo_ms:g} ms sim",
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import the program from this checkout; drop the script directory
    # so benchmark modules never shadow standard-library ones.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [p for p in sys.path if p != here]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from repro.bench.baselines.canonical import rows_equal

    from perfbench import stats as st
    from perfbench import store, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.make_workload(args.workload, args.seed, smoke=args.smoke)
    recorder = tracing.SpanRecorder() if args.trace else None

    setup_times = []
    for _ in range(1 if recorder else wl.setup_reps):
        t0 = time.perf_counter()
        with recorder or contextlib.nullcontext():
            wl.setup()
        setup_times.append(time.perf_counter() - t0)

    passes = []
    while len(passes) < MAX_PASSES:
        passes.append(wl.run_pass())
        samples = sum(1 for p in passes for c in p.calls if c.host_s is not None)
        if sum(p.host_s for p in passes) >= args.seconds and st.tail_ready(
            samples, wl.host_tail_pct
        ):
            break

    db = store.Store(ROOT, wl.name, wl.sf, args.seed, store.source_digest(ROOT))
    try:
        states = {store.fingerprint(sim_state(p)) for p in passes}
        if len(states) != 1:
            raise store.DeterminismError(
                f"sim values differ between the {len(passes)} passes of one run"
            )
        (state,) = states
        db.check_fingerprint("pass", state)
        traced = span_metrics = None
        if recorder is not None:
            recorder.phase = "pass"
            with recorder:
                traced = wl.run_pass(recorder)
            if store.fingerprint(sim_state(traced)) != state:
                raise store.DeterminismError("the traced pass's sim values differ")
            span_metrics = tracing.layer_host_metrics(recorder)
            db.check_fingerprint(
                "trace", store.fingerprint({k: span_metrics[k] for k in tracing.COUNTS})
            )
    except store.DeterminismError as exc:
        print(f"perfbench: sim determinism violated: {exc}", file=sys.stderr)
        return 3

    checked = passes + ([traced] if traced is not None else [])
    keys = {c.key for p in checked for c in p.calls}
    refs = db.references(wl.data, wl.plans, keys)
    failures = check_answers(checked, refs, rows_equal)
    attempted = sum(p.submitted for p in checked)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"{json.dumps(wl.describe(), sort_keys=True)}")
    if recorder is None:
        values, notes = end_to_end(wl, setup_times, passes, refs, st)
        wanted = spec["end_to_end"]
    else:
        values = {**span_metrics, **traced.layer}
        untraced = st.median([p.host_s for p in passes])
        values["obs.trace_overhead_ratio"] = traced.host_s / untraced
        notes = {}
        wanted = spec["per_layer"]
        recorder.write(
            ROOT / ".perfbench" / "traces" / f"{wl.name}-seed{args.seed}.json",
            {"workload": wl.name, "seed": args.seed, "sf": wl.sf},
        )
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        clock = CLOCKS.get(name, "")
        print(f"  {name:<40} {values[name]:>16.6g} {unit:<10} {clock:<5} {notes.get(name, '')}")
    share = passes[0].sim.get("result_cache_hit_share")
    if share is not None:
        print(f"  result-cache hits: {share:.4f} of arrivals")
    print(f"  failed_frac {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
