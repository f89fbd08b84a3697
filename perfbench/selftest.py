"""Self-test of the reference evaluator against the repository's DuckDB
pixel oracle (``repro.testing``), on the TINY dataset.

Every query shape the benchmark runs is answered twice, by
:class:`reference.Reference` and by DuckDB SQL over the exploded
per-pixel table, and the answers must be identical. Runs once per
checkout, when the benchmark builds its data.
"""
from __future__ import annotations

import inspect

import duckdb


def selftest_calls(spec, cfg) -> list:
    from repro.core.cp import OBJECT_ROI, CPTerm
    from repro.core.executor import LT, FilterPredicate
    from repro.workloads import random_queries as rq
    from repro.workloads.queries import table1_queries

    import workloads as W

    calls = [W.record(q.name, q.run) for q in table1_queries(spec)]
    calls += W.explore_calls(spec, cfg, seed=0)[:5]
    calls += [c for s in (0, 1) for c in W.rank_probe_calls(spec, s)]
    calls += W.msii_calls(spec, seed=0)
    calls += [W.record(f"R{i}", lambda ex, q=q: q.run(ex, model_id=2)) for i, q in enumerate(rq.random_filter_queries(spec, 3, 0))]
    pred = FilterPredicate(
        terms=(CPTerm(0.5, 1.0, OBJECT_ROI), CPTerm(0.2, 0.6, None)), op=LT, threshold=40, coefs=(2.0, -1.0)
    )
    calls.append(W.Call("two-term", "filter", (pred,), {}))
    return calls


def _oracle_sql(ref, call) -> str:
    from repro import testing

    bound = inspect.signature(getattr(ref, call.method)).bind(*call.args, **call.kwargs)
    bound.apply_defaults()
    a = dict(bound.arguments)
    if call.method == "filter":
        return testing.filter_sql(a["pred"], a["model_id"], a["mask_ids"])
    if call.method == "topk":
        return testing.topk_sql(a["term"], a["k"], a["descending"], a["model_id"], a["mask_ids"])
    models = a["model_ids"] if a["model_ids"] is not None else tuple(sorted(set(ref.meta["model_id"])))
    if call.method == "agg_topk":
        return testing.agg_topk_sql(a["term"], a["k"], a["descending"], models, a["image_ids"])
    return testing.maskagg_topk_sql(a["t"], a["roi"], a["k"], a["descending"], models, a["image_ids"])


def run_selftest(root: str) -> None:
    from repro import harness, testing
    from repro.maskstore.store import MaskStore

    from reference import Reference, as_answer, same

    spec, cfg = harness.DATASETS["tiny"]
    ref = Reference(root)
    con = duckdb.connect()
    try:
        con.register("meta", ref.meta)
        con.register("pixels", testing.pixels_table(MaskStore(root), ref.meta))
        calls = selftest_calls(spec, cfg)
        for call in calls:
            want = as_answer(call.method, con.execute(_oracle_sql(ref, call)).fetchdf())
            got = call(ref)
            if not same(want, got):
                raise SystemExit(
                    f"perfbench: reference disagrees with the DuckDB oracle on {call.name}: "
                    f"{got[:5]}... vs {want[:5]}..."
                )
    finally:
        con.close()
    print(f"perfbench: reference matches the DuckDB oracle on {len(calls)} TINY queries")
