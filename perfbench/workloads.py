"""The benchmark's three workloads, each driven only through the
program's public API.

* ``tpch-hot`` — the Figure-4 configuration: one closed-loop client
  sends the 22 TPC-H SQL texts, in order, to ``MiniDuck`` with the
  ``SiriusExtension`` installed on a default ``SiriusEngine`` whose
  caching region was warmed.  Stresses the SQL frontend, the Substrait
  round trip, physical compile, the executor and the NumPy kernels; the
  buffer manager only serves hot hits and ``sched``/``fleet`` never run.
* ``tpch-ooc-cold`` — a join-heavy TPC-H subset, planned once in setup,
  executed by a ``SiriusEngine`` with every opt-in mode on
  (``out_of_core``, ``overlap``, ``fusion``) on a device whose processing
  pool is smaller than Q21's join state while every single table still
  fits the caching region.  Every pass starts with an empty caching
  region, so the buffer manager cold-loads, prefetches and spills
  partition fragments to pinned host memory and on to disk.
* ``fleet-param`` — open-loop Poisson arrivals at one fixed sim rate into
  a two-replica ``FleetScheduler`` (least-outstanding routing, SJF, plan
  and result caches) through ``FleetWorkloadDriver``.  The mix is five
  TPC-H templates with TPC-H substitution parameters; each distinct
  statement is planned once in setup.  Admission, the estimator, SJF,
  routing, plan digests and both caches do their work here and nowhere
  else.

Every pass builds fresh engines (and a fresh fleet), so the simulated
clock starts from zero and every sim number of a pass repeats exactly
on the next pass of the same seed.  The seed drives ``generate_tpch``,
the fleet's parameter picks and its arrival times.
"""

from __future__ import annotations

import itertools
import sys
import time
import traceback
from dataclasses import dataclass, field

import repro.tpch as tpch
from repro.core import SiriusEngine
from repro.fleet import FleetScheduler, FleetWorkloadDriver, engine_factory
from repro.gpu.specs import GH200
from repro.hosts import MiniDuck, SiriusExtension
from repro.sched import JobState, WorkloadQuery

from perfbench.stats import geomean, median, tail

__all__ = ["WORKLOADS", "Call", "Pass", "make_workload"]

MB = 1_000_000

# Figure 5's operator categories; every other clock bucket is "other".
SIM_CATEGORIES = ("join", "groupby", "filter", "aggregation", "orderby", "transfer")


@dataclass
class Call:
    """One query the workload issued, as the client saw it."""

    key: str  # statement id, e.g. "Q3" or "Q14#27"
    host_s: float | None  # host latency; None when no host work was timed
    sim_s: float | None  # sim latency (arrival to completion)
    table: object = None  # result Table, None on failure
    gpu: bool = False  # answered by a GPU tier (not a CPU fallback)
    error: str | None = None


@dataclass
class Pass:
    """One pass over the workload's queries (the unit that repeats)."""

    host_s: float
    calls: list[Call]
    submitted: int
    sim: dict  # sim-clock end-to-end values (deterministic per seed)
    layer: dict  # sim splits, counters and ratios (deterministic per seed)
    # Sirius sim seconds per statement, for the speedup vs the CPU engine.
    sirius_sim_s: dict = field(default_factory=dict)


def _summarize_profiles(profiles) -> dict:
    """Per-layer ``core.*`` sim metrics summed over a pass's profiles."""
    sim = dict.fromkeys(SIM_CATEGORIES, 0.0)
    sim["other"] = 0.0
    busy = hidden = 0.0
    fused = saved = 0
    for p in profiles:
        for cat, seconds in p.breakdown.items():
            cat = "transfer" if cat == "transfer-wait" else cat
            sim[cat if cat in sim else "other"] += seconds
        busy += sum(p.stream_busy.values())
        hidden += p.overlap_hidden_s
        fused += p.fused_kernels
        saved += p.fusion_saved_bytes
    out = {f"core.sim_{cat}_ms": seconds * 1e3 for cat, seconds in sim.items()}
    out["core.fused_kernels"] = fused
    out["core.fusion_saved_bytes"] = saved
    out["core.overlap_efficiency"] = hidden / busy if busy > 0 else 0.0
    return out


def _summarize_engines(engines, before=None) -> dict:
    """Buffer-manager and device counters over a pass (deltas against
    ``before``, the per-engine stats snapshot taken after warm-up)."""
    keys = ("hot_hits", "cold_loads", "prefetches", "prefetch_hits",
            "fragment_spills", "spilled_fragment_bytes", "disk_spilled_bytes")
    tot = dict.fromkeys(keys, 0)
    peak = kernels = 0
    for i, engine in enumerate(engines):
        stats = engine.buffer_manager.stats()
        base = before[i] if before is not None else {}
        for k in keys:
            tot[k] += stats[k] - base.get(k, 0)
        peak = max(peak, engine.device.memory_report()["processing_peak"])
        kernels += engine.device.kernel_count
    lookups = tot["hot_hits"] + tot["cold_loads"] + tot["prefetch_hits"]
    return {
        "core.buffer_manager.hit_ratio": tot["hot_hits"] / lookups if lookups else 0.0,
        "core.buffer_manager.cold_loads": tot["cold_loads"],
        "core.buffer_manager.prefetch_hit_ratio": (
            tot["prefetch_hits"] / tot["prefetches"] if tot["prefetches"] else 0.0
        ),
        "core.buffer_manager.fragment_spills": tot["fragment_spills"],
        "core.buffer_manager.spilled_bytes": tot["spilled_fragment_bytes"],
        "core.buffer_manager.disk_spilled_bytes": tot["disk_spilled_bytes"],
        "gpu.rmm.peak_bytes": peak,
        # Not reported; part of what must repeat exactly across passes.
        "gpu.kernel_count": kernels,
    }


def _failed_call(key: str) -> Call:
    traceback.print_exc(file=sys.stderr)
    return Call(key, None, None, error=traceback.format_exc(limit=1).strip().splitlines()[-1])


class Workload:
    """Common shape: ``setup()`` builds the state timed as ``setup_s``;
    ``run_pass()`` runs one pass; ``plans`` maps statement ids to the
    plans the CPU reference executes."""

    name = ""
    sf = 0.0
    slo_ms = 0.0  # sim latency limit behind slo_frac
    # setup_s is the median of this many setups.
    setup_reps = 3
    # Fixed percentile of host_query_tail_ms; passes repeat until at least
    # ten host samples lie beyond it.
    host_tail_pct = 75.0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        if smoke:
            self.sf = 0.005
            self.setup_reps = 1
            self.host_tail_pct = 50.0
        self.data = None
        self.plans: dict = {}

    def describe(self) -> dict:
        return {"sf": self.sf, "slo_ms": self.slo_ms}


class TpchHot(Workload):
    name = "tpch-hot"
    sf = 0.05
    slo_ms = 0.9

    def setup(self) -> None:
        self.data = tpch.generate_tpch(sf=self.sf, seed=self.seed)
        self.db = MiniDuck()
        self.db.load_tables(self.data)
        self.sqls = {f"Q{q}": tpch.tpch_query(q) for q in range(1, 23)}
        # Planning in setup warms the catalog's distinct-count statistics
        # and gives the CPU reference its plans; timed calls re-plan.
        self.plans = {key: self.db.plan(sql) for key, sql in self.sqls.items()}
        SiriusEngine.for_spec(GH200).warm_cache(self.data)

    def run_pass(self, recorder=None) -> Pass:
        engine = SiriusEngine.for_spec(GH200)
        engine.warm_cache(self.data)
        warm = [engine.buffer_manager.stats()]
        self.db.install_extension(SiriusExtension(engine))
        calls, profiles = [], []
        start = time.perf_counter()
        for key, sql in self.sqls.items():
            if recorder is not None:
                recorder.request = key
            t0 = time.perf_counter()
            try:
                res = self.db.execute(sql)
            except Exception:
                calls.append(_failed_call(key))
                continue
            host = time.perf_counter() - t0
            calls.append(Call(key, host, res.sim_seconds, res.table, res.profile is not None))
            if res.profile is not None:
                profiles.append(res.profile)
        host_s = time.perf_counter() - start
        self.db.uninstall_extension()
        return _closed_loop_pass(host_s, calls, profiles, [engine], warm, self.slo_ms)


class TpchOocCold(Workload):
    name = "tpch-ooc-cold"
    sf = 0.03
    slo_ms = 8.0
    # Five statements whose host times lie ~30% apart, so the pooled
    # median and p75 fall inside one statement's samples (Q18's, Q21's)
    # rather than between two; passes repeat until at least ten samples
    # lie beyond p75 (eight passes).
    host_tail_pct = 75.0
    queries = (5, 9, 10, 18, 21)
    # Device regions per unit of scale factor.  At SF 0.03 the caching
    # region is 19.8 MB (lineitem, the largest table, is ~17 MB) and the
    # processing pool 16.8 MB, below Q21's join state on most seeds, so
    # its join partitions spill; fragments past 2.4 MB of pinned host
    # memory demote to the simulated disk.  Batches are 32768 rows, half
    # the out-of-core default: with 65536, Q21 reaches the disk on only
    # half the seeds.  With a pool 7% smaller, some seeds fail with
    # OutOfDeviceMemory on a fragmented pool (see CHANGES.md).
    caching_mb_per_sf = 660
    pool_mb_per_sf = 560
    pinned_mb_per_sf = 80
    batch_rows = 32_768

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if smoke:
            # Fixed per-query pool overheads dominate at tiny SF.
            self.caching_mb_per_sf *= 2
            self.pool_mb_per_sf *= 2

    def setup(self) -> None:
        self.data = tpch.generate_tpch(sf=self.sf, seed=self.seed)
        db = MiniDuck()
        db.load_tables(self.data)
        self.plans = {f"Q{q}": db.plan(tpch.tpch_query(q)) for q in self.queries}

    def describe(self) -> dict:
        out = super().describe()
        out.update(
            caching_region_mb=self.caching_mb_per_sf * self.sf,
            processing_pool_mb=self.pool_mb_per_sf * self.sf,
            pinned_spill_budget_mb=self.pinned_mb_per_sf * self.sf,
            batch_rows=self.batch_rows,
            dataset_mb=sum(t.nbytes for t in self.data.values()) / MB if self.data else None,
            queries=[f"Q{q}" for q in self.queries],
        )
        return out

    def run_pass(self, recorder=None) -> Pass:
        cache_mb = self.caching_mb_per_sf * self.sf
        total_mb = cache_mb + self.pool_mb_per_sf * self.sf
        engine = SiriusEngine.for_spec(
            GH200,
            memory_limit_gb=total_mb * MB / 1e9,
            caching_fraction=cache_mb / total_mb,
            out_of_core=True,
            overlap=True,
            fusion=True,
            pinned_spill_budget_bytes=int(self.pinned_mb_per_sf * self.sf * MB),
            batch_rows=self.batch_rows,
        )
        calls, profiles = [], []
        start = time.perf_counter()
        for key, plan in self.plans.items():
            if recorder is not None:
                recorder.request = key
            t0 = time.perf_counter()
            try:
                table = engine.execute(plan, self.data)
            except Exception:
                calls.append(_failed_call(key))
                continue
            host = time.perf_counter() - t0
            profile = engine.last_profile
            sim = profile.sim_seconds if profile is not None else None
            calls.append(Call(key, host, sim, table, profile is not None))
            if profile is not None:
                profiles.append(profile)
        host_s = time.perf_counter() - start
        return _closed_loop_pass(host_s, calls, profiles, [engine], None, self.slo_ms)


def _closed_loop_pass(host_s, calls, profiles, engines, before, slo_ms) -> Pass:
    """One client, one query at a time: sim latency = the query's sim time."""
    sims = [c.sim_s for c in calls if c.sim_s is not None]
    total = sum(sims)
    sim = {
        "sim_total_ms": total * 1e3,
        "sim_qps": len(sims) / total if total > 0 else 0.0,
        "slo_frac": sum(1 for s in sims if s * 1e3 <= slo_ms) / len(calls),
        "latencies_s": sims,
    }
    layer = {**_summarize_profiles(profiles), **_summarize_engines(engines, before)}
    layer.update(dict.fromkeys(FLEET_LAYER, 0.0))  # sched/fleet never run here
    return Pass(host_s, calls, len(calls), sim, layer,
                {c.key: c.sim_s for c in calls if c.sim_s is not None})


# -- fleet-param -------------------------------------------------------------


def _dates(years, months=(1,), days=(1,)):
    return [f"date '{y:04d}-{m:02d}-{d:02d}'" for y in years for m in months for d in days]


_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_YEARS = range(1993, 1998)

# TPC-H templates and their substitution parameters (TPC-H spec 2.4):
# query -> [(validation literal in the query text, its alternatives)].
FLEET_TEMPLATES = {
    3: [("'BUILDING'", [f"'{s}'" for s in _SEGMENTS]),
        ("date '1995-03-15'", _dates([1995], [3], range(1, 32)))],
    4: [("date '1993-07-01'", _dates(_YEARS, range(1, 13))[:58])],
    6: [("date '1994-01-01'", _dates(_YEARS)),
        ("between 0.05 and 0.07",
         [f"between 0.0{d - 1} and {(d + 1) / 100:.2f}" for d in range(2, 10)]),
        ("l_quantity < 24", ["l_quantity < 24", "l_quantity < 25"])],
    12: [("('MAIL', 'SHIP')",
          [f"('{a}', '{b}')" for a, b in itertools.combinations(_SHIPMODES, 2)]),
         ("date '1994-01-01'", _dates(_YEARS))],
    14: [("date '1995-09-01'", _dates(_YEARS, range(1, 13)))],
}


def fleet_statements() -> dict[int, list[str]]:
    """Every distinct statement of every template, in a fixed order."""
    out = {}
    for q, params in FLEET_TEMPLATES.items():
        base = tpch.tpch_query(q)
        for literal, _ in params:
            if literal not in base:
                raise ValueError(f"Q{q} template has no literal {literal!r}")
        stmts = []
        for combo in itertools.product(*(alts for _, alts in params)):
            sql = base
            for (literal, _), value in zip(params, combo):
                sql = sql.replace(literal, value)
            stmts.append(sql)
        out[q] = stmts
    return out


class FleetParam(Workload):
    name = "fleet-param"
    sf = 0.01
    slo_ms = 0.3
    host_tail_pct = 95.0
    arrivals = 400
    rate_qps = 24_000.0
    replicas = 2
    routing = "least-outstanding"
    policy = "sjf"
    result_cache_bytes = 64 * MB
    plan_cache_entries = 64

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if smoke:
            self.arrivals = 40

    def describe(self) -> dict:
        out = super().describe()
        out.update(
            arrivals=self.arrivals,
            rate_qps=self.rate_qps,
            replicas=self.replicas,
            routing=self.routing,
            policy=self.policy,
            distinct_statements=len(self.plans),
        )
        return out

    def setup(self) -> None:
        self.data = tpch.generate_tpch(sf=self.sf, seed=self.seed)
        db = MiniDuck()
        db.load_tables(self.data)
        self.plans = {}
        self.mix = []
        for q, stmts in fleet_statements().items():
            for i, sql in enumerate(stmts):
                key = f"Q{q}#{i}"
                self.plans[key] = db.plan(sql)
                # Templates are equally likely; parameters uniform within one.
                self.mix.append(WorkloadQuery(key, self.plans[key], 1.0 / len(stmts)))
        # Warm-up of one replica engine (each pass spawns fresh ones).
        engine_factory(GH200, warm=self.data)(0)

    def run_pass(self, recorder=None) -> Pass:
        host_of_run: dict[int, tuple] = {}
        build = engine_factory(GH200, warm=self.data)
        engines, warm = [], []

        def factory(replica_id: int):
            engine = build(replica_id)
            engines.append(engine)
            warm.append(engine.buffer_manager.stats())
            engine.start_query = _timed_start(engine.start_query, host_of_run, recorder)
            return engine

        fleet = FleetScheduler(
            factory,
            replicas=self.replicas,
            routing=self.routing,
            policy=self.policy,
            seed=self.seed,
            result_cache_bytes=self.result_cache_bytes,
            plan_cache_entries=self.plan_cache_entries,
        )
        driver = FleetWorkloadDriver(self.data, self.mix, seed=self.seed)
        start = time.perf_counter()
        report = driver.open_loop(fleet, self.arrivals, rate_qps=self.rate_qps)
        host_s = time.perf_counter() - start
        return self._summarize(host_s, report, engines, warm, host_of_run)

    def _summarize(self, host_s, report, engines, warm, host_of_run) -> Pass:
        calls, profiles = [], []
        executed = []
        sirius_sim = {}
        for job in report.jobs:
            ok = job.state == JobState.COMPLETED
            host = None
            gpu = ok
            if job.job is not None:
                spent = host_of_run.get(id(job.job.qrun))
                host = spent[1][0] if spent is not None else None
                if ok:
                    gpu = job.job.profile is not None
                    if job.job.profile is not None:
                        profiles.append(job.job.profile)
                    executed.append(job)
                    sirius_sim.setdefault(job.label, job.service_s)
            calls.append(Call(
                job.label, host, job.latency_s if ok else None,
                job.table if ok else None, gpu,
                None if ok else f"{job.state}: {job.error_name}",
            ))
        latencies = [c.sim_s for c in calls if c.sim_s is not None]
        sim = {
            "sim_total_ms": sum(j.service_s for j in executed) * 1e3,
            "sim_qps": report.throughput_qps,
            "slo_frac": sum(1 for s in latencies if s * 1e3 <= self.slo_ms) / len(calls),
            "latencies_s": latencies,
            "result_cache_hit_share": report.counters["cache_hits"] / len(report.jobs),
        }
        layer = {**_summarize_profiles(profiles), **_summarize_engines(engines, warm)}
        layer.update(_sched_metrics(report, executed))
        return Pass(host_s, calls, len(calls), sim, layer, sirius_sim)


def _timed_start(start_query, host_of_run, recorder):
    """Wrap one engine's ``start_query`` so the host seconds spent in it
    and in every ``QueryRun.step`` of the query it starts are summed per
    query run — the fleet's per-query host latency."""

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        qrun = start_query(*args, **kwargs)
        spent = [time.perf_counter() - t0]
        run_step = qrun.step
        request = len(host_of_run)

        def step():
            if recorder is not None:
                recorder.request = request
            t = time.perf_counter()
            try:
                return run_step()
            finally:
                spent[0] += time.perf_counter() - t

        qrun.step = step
        host_of_run[id(qrun)] = (qrun, spent)
        return qrun

    return timed


FLEET_LAYER = (
    "sched.estimate_ratio_geomean", "sched.estimate_ratio_worst",
    "sched.queue_wait_p50_ms", "sched.queue_wait_tail_ms",
    "sched.service_p50_ms", "sched.service_tail_ms",
    "fleet.result_cache_hit_ratio", "fleet.plan_cache_hit_ratio",
)


def _sched_metrics(report, executed) -> dict:
    ratios = []
    for replica in report.replicas:
        for job in replica["report"]["jobs"]:
            est, actual = job["estimated_service_s"], job["service_s"]
            if est is not None and actual > 0 and job["state"] == JobState.COMPLETED:
                ratios.append(est / actual)
    waits = [j.queue_wait_s * 1e3 for j in executed]
    service = [j.service_s * 1e3 for j in executed]
    pc = report.plan_cache
    lookups = pc.get("hits", 0) + pc.get("misses", 0)
    return {
        "sched.estimate_ratio_geomean": geomean(ratios) if ratios else 0.0,
        "sched.estimate_ratio_worst": (
            max(ratios, key=lambda r: max(r, 1 / r)) if ratios else 0.0
        ),
        "sched.queue_wait_p50_ms": median(waits) if waits else 0.0,
        "sched.queue_wait_tail_ms": tail(waits)[0] if waits else 0.0,
        "sched.service_p50_ms": median(service) if service else 0.0,
        "sched.service_tail_ms": tail(service)[0] if service else 0.0,
        "fleet.result_cache_hit_ratio": report.counters["cache_hits"] / len(report.jobs),
        "fleet.plan_cache_hit_ratio": pc.get("hits", 0) / lookups if lookups else 0.0,
    }


WORKLOADS = {w.name: w for w in (TpchHot, TpchOocCold, FleetParam)}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
