"""MaskSearch benchmark: one seeded workload per run, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1_wilds --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

``--workload all`` runs every workload untraced and traced, each in its
own process, and prints their metrics and the tracing overhead. A single
workload prints a human-readable report and, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). See ``perfbench/README.md`` for what each number means.

Everything the benchmark builds or writes stays under ``.bench_build/``
in the checkout: the datasets and CHIs, Spark's scratch space and the
span files of traced runs.
"""
from __future__ import annotations

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(BUILD, "data")
READY = os.path.join(DATA, "READY")

#: Pinned Spark settings, printed with every result.
SETTINGS = {
    # Three task slots on a four-core host: the fourth core is left to
    # the JVM's own threads and the driver, so tasks do not queue behind
    # them for a core, a wait that grows whenever the host is busy.
    "master": "local[3]",
    "driver_memory": "2g",
    "shuffle_partitions": "16",
    "arrow": "true",
    # C1-only JIT and the serial collector: the JVM's background C2 and
    # parallel-GC threads otherwise compete with the four Python workers
    # for four cores, which makes set-up and query times swing from run
    # to run.
    "jvm": "-XX:TieredStopAtLevel=1 -XX:+UseSerialGC",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def pin_environment() -> None:
    """Settings that must be in place before the Spark JVM starts."""
    if not os.path.isfile(os.path.join(SRC, "repro", "harness.py")):
        fail(f"no repro sources under {SRC}; run from the root of a full checkout")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYTHONPATH"] = SRC  # the driver and Spark's Python workers
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["REPRO_DATA_DIR"] = DATA
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(BUILD, "results")
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = SETTINGS["shuffle_partitions"]
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(BUILD, "spark-local")
    # -XX:-UsePerfData: no hsperfdata under /tmp
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData {SETTINGS['jvm']}"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that builds the submit command
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {SETTINGS['master']}",
            f"--driver-memory {SETTINGS['driver_memory']}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            f"--conf spark.sql.warehouse.dir={os.path.join(BUILD, 'warehouse')}",
            f"--driver-java-options '{java_opts}'",
            "pyspark-shell",
        ]
    )
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def rss_mb(field: str) -> float:
    """``VmRSS`` (now) or ``VmHWM`` (peak) of this process, in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not in /proc/self/status")


# ---------------------------------------------------------------------------
# data: built once per checkout in a child process, checked on every run
# ---------------------------------------------------------------------------
def check_data(harness, names) -> None:
    """Fail closed unless every mask file and CHI row is there."""
    import pyarrow.parquet as pq

    for name in names:
        spec, cfg = harness.DATASETS[name]
        root = os.path.join(DATA, name)
        masks = os.path.join(root, "masks")
        n_files = sum(1 for e in os.scandir(masks) if e.name.endswith(".npy")) if os.path.isdir(masks) else 0
        chi = os.path.join(root, cfg.tag())
        parts = [os.path.join(chi, f) for f in os.listdir(chi) if f.endswith(".parquet")] if os.path.isdir(chi) else []
        n_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in parts)
        if n_files != spec.n_masks or n_rows != spec.n_masks:
            raise SystemExit(
                f"perfbench: {name} is incomplete under {root}: {n_files} mask files and "
                f"{n_rows} CHI rows, expected {spec.n_masks} of each; delete .bench_build/data and rerun"
            )


def prepare() -> None:
    """Build both datasets, their CHIs and the TINY self-test store."""
    from repro import harness
    from selftest import run_selftest

    spark = harness.job_session("perfbench-prepare")
    try:
        for name in ("wilds_lite", "imagenet_lite"):
            store = harness.get_store(spark, name)
            harness.ensure_index(spark, store, harness.DATASETS[name][1])
        check_data(harness, ("wilds_lite", "imagenet_lite"))
        tiny = harness.get_store(spark, "tiny")
    finally:
        stop_spark(spark)
    run_selftest(tiny.root)
    # Write the ~300 MB just built back to disk now, so the kernel does
    # not do it during the first timed runs.
    os.sync()
    with open(READY, "w") as f:
        f.write("ok\n")


def ensure_prepared() -> None:
    os.makedirs(DATA, exist_ok=True)
    with open(os.path.join(BUILD, "prepare.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(READY):
            print("perfbench: building datasets under .bench_build/data (once per checkout)", file=sys.stderr)
            rc = subprocess.run([sys.executable, __file__, "--prepare"], stdout=sys.stderr).returncode
            if rc != 0 or not os.path.exists(READY):
                fail(f"data preparation failed (exit code {rc})")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
class Run:
    """Set-up, timed passes and checks of one workload in this process."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup: dict[str, float] = {}
        self.records: list[dict] = []  # one per executed query
        self.passes: dict[str, list[float]] = {}  # phase -> pass seconds

    # -- set-up -------------------------------------------------------------
    def _phase(self, key: str, t0: float) -> float:
        now = time.perf_counter()
        self.setup[key] = now - t0
        return now

    def set_up(self) -> None:
        t = time.perf_counter()
        from repro import harness
        from repro.core.chi import ChiIndex
        from repro.core.executor import MaskSearchEngine

        import tracing

        t = self._phase("import_s", t)
        check_data(harness, (self.wl.dataset,))
        t = time.perf_counter()  # the data check is not set-up
        self.spark = harness.job_session("perfbench")
        t = self._phase("spark_session_s", t)
        self.tracer = tracing.Tracer(spans=self.trace)
        self.tracer.install()
        self.spec, self.cfg = harness.DATASETS[self.wl.dataset]
        self.store = harness.get_store(self.spark, self.wl.dataset)
        self.store.metadata_pandas(self.spark)
        t = self._phase("metadata_s", t)
        self.engine = None
        if self.wl.loads_index:
            rss0 = rss_mb("VmRSS")
            index = ChiIndex.load(self.spark, self.store.index_path(self.cfg), self.cfg)
            t = self._phase("chi_load_s", t)
            self.setup["chi_load_rss_mb"] = rss_mb("VmHWM") - rss0
            self.engine = MaskSearchEngine(self.spark, self.store, index)
            t = self._phase("engine_s", t)
        self.warm_up()
        self._phase("warmup_s", t)
        self.setup_s = sum(v for k, v in self.setup.items() if k.endswith("_s"))

    def warm_up(self) -> None:
        """Part of set-up, outside the timed queries: one 64-mask run of
        each verification kernel the timed queries use. 64 masks fill
        every scan partition, so all of Spark's Python workers start and
        import their modules here rather than in whichever query the seed
        puts first (``harness.warmup`` scans one mask, which starts one)."""
        from repro.core import verify
        from repro.core.cp import CPTerm

        meta = self.store.metadata_pandas(self.spark)
        term = CPTerm(0.5, 1.0, None)
        if self.wl.name == "msii_wilds_ebs40":
            verify.exact_cp_and_chi(self.spark, self.store, meta.head(64), (term,), self.cfg)
        elif self.wl.name == "table1_wilds":
            verify.exact_cp_pdf(self.spark, self.store, meta.head(64), (term,))
            images = meta["image_id"].drop_duplicates().head(32)
            verify.exact_maskagg_pdf(self.spark, self.store, meta[meta["image_id"].isin(images)], 0.5, term)

    # -- queries ------------------------------------------------------------
    def _query(self, call, executor, phase: str) -> None:
        from tracing import spark_job_counts

        qid = len(self.records)
        tr = self.tracer
        tr.query_id = qid
        tr.counts.clear()
        sc = self.spark.sparkContext
        group = f"perfbench-{qid}"
        if tr.spans_on:
            sc.setJobGroup(group, call.name)
        rec = {"id": qid, "phase": phase, "name": call.name, "call": call, "error": None}
        t0 = time.perf_counter()
        try:
            with tr.span("query"):
                res = call(executor)
        except Exception:  # a failed query is counted, the run goes on
            res = None
            rec["error"] = traceback.format_exc()
            print(f"perfbench: query {call.name} failed:\n{rec['error']}", file=sys.stderr)
        rec["seconds"] = time.perf_counter() - t0
        if tr.spans_on:
            sc.setLocalProperty("spark.jobGroup.id", None)
            rec["spark_jobs"], rec["spark_tasks"] = spark_job_counts(sc, group)
        rec["counts"] = dict(tr.counts)
        tr.query_id = None
        if res is not None:
            rec["stats"] = res.stats
            rec["pdf"] = res.pdf
        self.records.append(rec)

    def _passes(self, phase: str, calls, executor_for_pass, seconds: float, by_query: bool) -> None:
        """Passes over ``calls``, in order, while the next unit (a query
        when ``by_query``, else a whole pass) is expected to end within
        ``seconds``; always at least one whole pass. Stateless engines
        stop between queries, so a run measures close to ``seconds``
        whatever a pass costs; an MS-II session stops only between
        passes, because each pass starts from an empty index."""
        times = self.passes.setdefault(phase, [])
        units: list[float] = []
        start = time.perf_counter()
        over = lambda: time.perf_counter() - start + statistics.median(units) > seconds  # noqa: E731
        while True:
            t0 = time.perf_counter()
            executor = executor_for_pass()
            for call in calls:
                self._query(call, executor, phase)
                if by_query:
                    units.append(self.records[-1]["seconds"])
                    if times and over():
                        return
            times.append(time.perf_counter() - t0)
            if not by_query:
                units.append(times[-1])
            if over():
                return

    def measure(self) -> None:
        import workloads as W

        name = self.wl.name
        if name == "msii_wilds_ebs40":
            from repro.core.incremental import IncrementalSession

            calls = W.msii_calls(self.spec, self.seed)
            new_session = lambda: IncrementalSession(self.spark, self.store, self.cfg)  # noqa: E731
            self.store.io_delay_ms = W.MSII_IO_DELAY_MS
            try:
                self._passes("main", calls, new_session, self.seconds, by_query=False)
            finally:
                self.store.io_delay_ms = 0.0
        else:
            calls = (
                W.table1_calls(self.spec, self.seed)
                if name == "table1_wilds"
                else W.explore_calls(self.spec, self.cfg, self.seed)
            )
            self._passes("main", calls, lambda: self.engine, self.seconds, by_query=True)
            if self.trace and name == "table1_wilds":
                from repro.baselines.full_scan import FullScanBaseline

                self.tracer.spans_on = False
                baseline = FullScanBaseline(self.spark, self.store)
                self._passes("fullscan", calls, lambda: baseline, 0, by_query=False)
            if self.trace and name == "explore_imagenet":
                self._passes("rank", W.rank_probe_calls(self.spec, self.seed), lambda: self.engine, 0, by_query=False)
        self.peak_rss_mb = rss_mb("VmHWM")

    # -- checks -------------------------------------------------------------
    def check(self) -> None:
        """Compare every executed query with the reference, and the load
        count the engine reports with the masks it asked the scan for."""
        from reference import Reference, as_answer, same

        ref = Reference(self.store.root)
        by_call: dict[tuple, object] = {}
        for rec in self.records:
            call = rec["call"]
            key = (call.name, call.method)
            if key not in by_call:
                by_call[key] = call(ref)
            problems = []
            if rec["error"] is not None:
                problems.append("raised")
            else:
                if not same(by_call[key], as_answer(call.method, rec["pdf"])):
                    problems.append("result differs from the reference")
                requested = rec["counts"].get("verify.masks_requested", 0)
                if requested != rec["stats"].masks_loaded:
                    problems.append(
                        f"masks_loaded={rec['stats'].masks_loaded} but {requested} masks requested"
                    )
            rec["problems"] = problems
            for p in problems:
                print(f"perfbench: {rec['phase']} {call.name}: {p}", file=sys.stderr)
        # On table1_wilds the full scan must also equal MaskSearch.
        ms = {r["name"]: r for r in self.records if r["phase"] == "main" and not r["problems"]}
        for rec in self.records:
            if rec["phase"] == "fullscan" and not rec["problems"] and rec["name"] in ms:
                a = as_answer(rec["call"].method, rec["pdf"])
                b = as_answer(rec["call"].method, ms[rec["name"]]["pdf"])
                if not same(a, b):
                    rec["problems"].append("full scan differs from MaskSearch")

    # -- metrics ------------------------------------------------------------
    def query_medians(self) -> dict[str, float]:
        """Median latency of each distinct timed query, by name."""
        by_name: dict[str, list[float]] = {}
        for r in self.records:
            if r["phase"] == "main":
                by_name.setdefault(r["name"], []).append(r["seconds"])
        return {k: statistics.median(v) for k, v in by_name.items()}

    def n_passes(self) -> float:
        """Timed queries over queries per pass: whole and partial passes."""
        main = [r for r in self.records if r["phase"] == "main"]
        return len(main) / len(self.query_medians())

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """``pass_s`` is the sum over the pass's queries of each one's
        median latency and ``query_p50_s`` the median of those medians,
        so a query the run repeated more often weighs no more."""
        med = self.query_medians()
        n = sum(r["phase"] == "main" for r in self.records)
        return {
            "setup_s": (self.setup_s, "s", 1),
            "pass_s": (sum(med.values()), "s", n),
            "query_p50_s": (statistics.median(med.values()), "s", n),
            "driver_peak_rss_mb": (self.peak_rss_mb, "MB", 1),
        }

    def extra_end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """Workload-specific end-to-end figures, reported but not gated."""
        main = [r for r in self.records if r["phase"] == "main"]
        out = {}
        io = [r["seconds"] for r in main if "stats" in r and r["stats"].masks_loaded == 0]
        if io:
            out["indexonly_p50_s"] = (statistics.median(io), "s", len(io))
        rank = [r["seconds"] for r in self.records if r["phase"] == "rank"]
        if rank:
            out["rank_p50_s"] = (statistics.median(rank), "s", len(rank))
        if "fullscan" in self.passes:
            out["fullscan_pass_s"] = (self.passes["fullscan"][0], "s", 1)
        n_fail = sum(bool(r["problems"]) for r in self.records)
        out["fail_frac"] = (n_fail / len(self.records), "fraction", len(self.records))
        return out

    def layers(self) -> dict[str, tuple[float, str]]:
        """Every per-layer figure of the traced pass, with its unit. Times
        and counts are per pass; shares are of the traced query time
        (``*_share`` of ``verify`` and ``chi.add``) or of ``setup_s``
        (``chi.load_share``). ``BENCHMARK.json`` lists the subset whose
        times every gated workload measures; the report prints all."""
        from tracing import self_times

        main = [r for r in self.records if r["phase"] == "main"]
        n_pass = self.n_passes()
        ids = {r["id"] for r in main}
        spans = self.tracer.spans
        busy = Counter()  # seconds per span name over the traced passes
        for (name, s, e, _, q), own in zip(spans, self_times(spans)):
            if q in ids:
                busy[name] += e - s
                if name == "query":
                    busy["query.self"] += own
        totals = Counter()
        for r in main:
            totals.update(r["counts"])
            totals["spark_jobs"] += r.get("spark_jobs", 0)
            totals["spark_tasks"] += r.get("spark_tasks", 0)
            st = r.get("stats")
            if st is not None:
                totals.update({k: getattr(st, k) for k in ("n_targeted", "n_pruned", "n_accepted", "n_verified", "masks_loaded")})
                # result rows that only verification could decide
                totals["decided_by_verify"] += len(r["pdf"]) - st.n_accepted
        per = lambda k: totals[k] / n_pass  # noqa: E731
        query_s = max(busy["query"], 1e-12)
        chi_load_s = self.setup.get("chi_load_s", 0.0)
        m = {
            "setup.import_s": (self.setup["import_s"], "s"),
            "setup.spark_session_s": (self.setup["spark_session_s"], "s"),
            "setup.metadata_s": (self.setup["metadata_s"], "s"),
            "chi.load_s": (chi_load_s, "s"),
            "chi.load_share": (chi_load_s / self.setup_s, "fraction"),
            "chi.load_rss_mb": (self.setup.get("chi_load_rss_mb", 0.0), "MB"),
            "setup.engine_s": (self.setup.get("engine_s", 0.0), "s"),
            "setup.warmup_s": (self.setup["warmup_s"], "s"),
            "executor.target_s": (busy["executor.target"] / n_pass, "s"),
            "chi.gather_s": (busy["chi.gather"] / n_pass, "s"),
            "bounds.s": (busy["bounds"] / n_pass, "s"),
            "executor.self_s": (busy["query.self"] / n_pass, "s"),
            "verify.s": (sum(busy[k] for k in ("verify.cp", "verify.maskagg", "verify.cp_chi")) / n_pass, "s"),
        }
        for span in ("verify.cp", "verify.maskagg", "verify.cp_chi", "chi.add"):
            m[f"{span}_s"] = (busy[span] / n_pass, "s")
            m[f"{span}_share"] = (busy[span] / query_s, "fraction")
        for k in ("chi.gathered_masks", "bounds.masks", "verify.calls", "verify.masks_requested", "chi.add_calls"):
            m[k] = (per(k), "count")
        for k in ("n_targeted", "n_pruned", "n_accepted", "n_verified"):
            m[f"executor.{k}"] = (per(k), "count")
        m["executor.fml"] = (totals["masks_loaded"] / max(totals["n_targeted"], 1), "fraction")
        m["verify.masks_loaded"] = (per("masks_loaded"), "count")
        m["verify.yield"] = (totals["decided_by_verify"] / max(totals["masks_loaded"], 1), "ratio")
        m["verify.spark_jobs"] = (per("spark_jobs"), "count")
        m["verify.spark_tasks"] = (per("spark_tasks"), "count")
        m["incremental.first_touch_masks"] = (per("chi.added_masks"), "count")
        indexed = per("chi.added_masks") if self.engine is None else len(self.engine.index)
        m["chi.indexed_masks"] = (indexed, "count")
        # Table 1: MaskSearch (median of the traced runs) against the full scan, per query.
        ms = self.query_medians()
        fs = {r["name"]: r["seconds"] for r in self.records if r["phase"] == "fullscan"}
        for q in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            a, b = (ms.get(q, 0.0), fs.get(q, 0.0)) if fs else (0.0, 0.0)
            m[f"table1.{q}.masksearch_s"] = (a, "s")
            m[f"table1.{q}.fullscan_s"] = (b, "s")
            m[f"table1.{q}.ms_over_fs"] = (a / b if b else 0.0, "ratio")
        m["trace.pass_s"] = (sum(ms.values()), "s")
        for k, (v, unit, _) in self.extra_end_to_end().items():
            m[k] = (v, unit)
        return m

    def rationale(self, m: dict[str, tuple[float, str]]) -> list[tuple[str, bool]]:
        """The traced figures behind each workload's reason to exist."""
        m = {k: v for k, (v, _) in m.items()}
        main = [r for r in self.records if r["phase"] == "main" and "stats" in r]
        per_pass = sum(r["seconds"] for r in main) / self.n_passes()
        if self.wl.name == "table1_wilds":
            share = (m["verify.cp_s"] + m["verify.maskagg_s"]) / per_pass
            return [(f"core.verify is {share:.1%} of MaskSearch query time (>= 90%)", share >= 0.9)]
        if self.wl.name == "explore_imagenet":
            io = sum(r["seconds"] for r in main if r["stats"].masks_loaded == 0) / self.n_passes()
            share = (m["chi.gather_s"] + m["bounds.s"]) / io if io else 0.0
            return [(f"chi.gather + bounds are {share:.1%} of index-only query time (>= 50%)", share >= 0.5)]
        loads = [r["stats"].masks_loaded for r in main]
        secs = [r["seconds"] for r in main]
        r = statistics.correlation(loads, secs) if len(set(loads)) > 1 else 0.0
        return [
            (f"chi.add took {m['chi.add_s']:.4f} s over {m['chi.add_calls']:.0f} calls", m["chi.add_calls"] > 0),
            (f"verify.cp_chi took {m['verify.cp_chi_s']:.3f} s", m["verify.cp_chi_s"] > 0),
            (f"per-query time rises with masks loaded (Pearson r = {r:.2f})", r > 0),
        ]

    def close(self) -> None:
        if hasattr(self, "tracer"):
            self.tracer.uninstall()
        if hasattr(self, "spark"):
            stop_spark(self.spark)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(args) -> int:
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    bench = load_benchmark()
    run = Run(wl, args.seed, args.seconds, bool(args.trace))
    try:
        run.set_up()
        run.measure()
    finally:
        run.close()
    run.check()
    failed = sum(bool(r["problems"]) for r in run.records)
    attempted = len(run.records)

    print(f"workload: {wl.name} (seed {args.seed}) - {wl.why}")
    print("settings: " + " ".join(f"{k}={v}" for k, v in SETTINGS.items()) + f" trace={args.trace}")
    print(f"{'phase':<10}{'query':<10}{'seconds':>10}{'targeted':>10}{'loaded':>8}  status")
    for r in run.records:
        st = r.get("stats")
        print(
            f"{r['phase']:<10}{r['name']:<10}{r['seconds']:>10.4f}"
            f"{st.n_targeted if st else -1:>10}{st.masks_loaded if st else -1:>8}  "
            + ("; ".join(r["problems"]) or "ok")
        )
    e2e = run.end_to_end()
    print(f"{'metric':<32}{'value':>14}  {'unit':<10}{'samples':>8}")
    for k, (v, unit, n) in {**e2e, **run.extra_end_to_end()}.items():
        print(f"{k:<32}{v:>14.6g}  {unit:<10}{n:>8}")
    if args.trace:
        layer = run.layers()
        for k, (v, unit) in layer.items():
            print(f"{k:<32}{v:>14.6g}  {unit:<10}")
        for claim, holds in run.rationale(layer):
            print(f"rationale: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
        metrics = {}
        for spec in bench["per_layer"]:
            value, unit = layer[spec["name"]]
            if unit != spec["unit"]:
                raise RuntimeError(f"{spec['name']} is in {unit}, BENCHMARK.json says {spec['unit']}")
            metrics[spec["name"]] = {"value": value, "unit": unit}
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        run.tracer.dump(os.path.join(BUILD, "traces", f"{wl.name}-seed{args.seed}.json"))
    else:
        want = [m["name"] for m in bench["end_to_end"]]
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in want}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads as W

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        passes = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                fail(f"{name} --trace {trace} exited with {out.returncode}")
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                merged["metrics"][f"{name}.{k}"] = v
            passes[trace] = res["metrics"]["pass_s" if trace == 0 else "trace.pass_s"]["value"]
        overhead = passes[1] - passes[0]
        print(f"{name}: tracing overhead {overhead:+.4f} s per pass ({passes[0]:.4f} s untraced)\n")
        merged["metrics"][f"{name}.trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    pin_environment()
    if args.prepare:
        prepare()
        return 0
    import workloads as W

    if args.workload != "all" and args.workload not in W.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)} or all")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root")
    ensure_prepared()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
