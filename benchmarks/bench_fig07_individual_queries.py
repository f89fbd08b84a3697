"""Figure 7 (as a table): end-to-end individual query time, MaskSearch
vs the full-scan baseline class, Q1-Q5 on both datasets, in the
simulated-EBS regime (40 ms per-mask load latency — the paper's
I/O-bound setting, DESIGN.md §3). Writes
``results/fig7_bench_ebs40.md``; the job
``jobs/fig7_individual_queries.py`` additionally reports the raw-I/O and
near-asymptotic 200 ms regimes.

Paper shape: baselines take ~2 min (WILDS) / >30 min (ImageNet) per
query, MaskSearch <5 s / <20 s — up to two orders of magnitude. On our
substrate MaskSearch must win in aggregate and on the large dataset's
every query; per-query wall-clock carries sandbox variance.
"""
import time

import pandas as pd
import pytest

from repro import harness
from repro.workloads.queries import table1_queries

IO_DELAY_MS = 40.0
_TIMES: dict = {}


def _query(spec, name):
    return {q.name: q for q in table1_queries(spec)}[name]


@pytest.mark.parametrize("qname", ["Q1", "Q2", "Q3", "Q4", "Q5"])
@pytest.mark.parametrize("dataset", ["wilds_lite", "imagenet_lite"])
@pytest.mark.parametrize("method", ["masksearch", "fullscan"])
def test_individual_query(benchmark, spark, request, dataset, method, qname):
    fixture = {
        ("wilds_lite", "masksearch"): "wilds_engine",
        ("wilds_lite", "fullscan"): "wilds_baseline",
        ("imagenet_lite", "masksearch"): "imagenet_engine",
        ("imagenet_lite", "fullscan"): "imagenet_baseline",
    }[(dataset, method)]
    ex = request.getfixturevalue(fixture)
    harness.warmup(spark, ex.store)
    q = _query(ex.store.spec, qname)
    t0 = time.perf_counter()
    try:
        ex.store.io_delay_ms = IO_DELAY_MS
        r = benchmark.pedantic(lambda: q.run(ex), rounds=1, iterations=1)
    finally:
        ex.store.io_delay_ms = 0.0
    _TIMES[(dataset, qname, method)] = (time.perf_counter() - t0, r.stats.masks_loaded)
    benchmark.extra_info["masks_loaded"] = r.stats.masks_loaded


def test_write_fig7(benchmark):
    def _write():
        rows = []
        for (dataset, qname, method), (t, loaded) in sorted(_TIMES.items()):
            rows.append(
                {
                    "dataset": dataset,
                    "query": qname,
                    "method": method,
                    "time_s": round(t, 3),
                    "masks_loaded": loaded,
                }
            )
        if not rows:
            return None
        pdf = pd.DataFrame(rows)
        piv = pdf.pivot_table(
            index=["dataset", "query"], columns="method", values="time_s"
        ).reset_index()
        if {"masksearch", "fullscan"} <= set(piv.columns):
            piv["speedup_x"] = (piv["fullscan"] / piv["masksearch"]).round(1)
        harness.save_markdown(
            piv,
            "fig7_bench_ebs40.md",
            f"Figure 7 (bench) — individual query times (s), EBS {IO_DELAY_MS:.0f} ms/mask",
        )
        return piv

    piv = benchmark.pedantic(_write, rounds=1, iterations=1)
    if piv is not None and "speedup_x" in piv.columns:
        # The paper's headline direction, tolerant of per-query variance
        # from the sandboxed JVM (see EXPERIMENTS.md): MaskSearch must
        # win in the clear majority of (dataset, query) pairs and in the
        # median. Clean-session numbers live in
        # results/fig7_individual_query_times.md (jobs/fig7...).
        assert (piv["speedup_x"] > 1.0).sum() >= 7
        assert piv["speedup_x"].median() > 1.2
