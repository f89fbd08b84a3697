"""Driver-side verification (:mod:`repro.core.verify`): the mask files
every query class opens, the concurrency the simulated-EBS delay is paid
at, and loud failure on a mask that cannot be loaded."""
import gc
import math
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import verify
from repro.core.chi import build_chi_array
from repro.core.cp import OBJECT_ROI, CPTerm, cp
from repro.core.executor import GT, FilterPredicate
from repro.core.incremental import IncrementalSession
from repro.maskstore.store import MaskStore

TERM = CPTerm(0.6, 1.0, (5, 5, 20, 20))
PRED = FilterPredicate(terms=(TERM,), op=GT, threshold=40)

QUERIES = {
    "filter": lambda ex: ex.filter(PRED),
    "topk": lambda ex: ex.topk(TERM, k=5),
    "topk_ratio": lambda ex: ex.topk_ratio(
        CPTerm(0.8, 1.0, OBJECT_ROI), CPTerm(0.2, 1.0, OBJECT_ROI), k=5
    ),
    "agg_topk": lambda ex: ex.agg_topk(TERM, k=5),
    "maskagg_topk": lambda ex: ex.maskagg_topk(t=0.5, roi=OBJECT_ROI, k=5),
}

KERNELS = {
    "cp": lambda spark, store, meta, cfg: verify.exact_cp_pdf(spark, store, meta, (TERM,)),
    "maskagg": lambda spark, store, meta, cfg: verify.exact_maskagg_pdf(
        spark, store, meta, 0.5, TERM
    ),
    "cp_chi": lambda spark, store, meta, cfg: verify.exact_cp_and_chi(
        spark, store, meta, (TERM,), cfg
    ),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("executor", ["engine", "baseline"])
def test_masks_opened_equals_loaded(request, executor, query):
    ex = request.getfixturevalue(executor)
    st = QUERIES[query](ex).stats
    assert st.masks_loaded > 0
    assert st.masks_opened == st.masks_loaded
    if executor == "baseline":
        assert st.masks_loaded == st.n_targeted


def test_masks_opened_equals_loaded_msii(spark, tiny_store, tiny_cfg):
    session = IncrementalSession(spark, tiny_store, tiny_cfg)
    first = session.filter(PRED, mask_ids=range(40)).stats
    again = session.filter(PRED, mask_ids=range(20, 60)).stats
    assert first.masks_loaded == 40
    assert 20 <= again.masks_loaded <= 40  # 20 first-touch + verified
    for st in (first, again):
        assert st.masks_opened == st.masks_loaded


def test_concurrent_loads_succeed_and_are_all_counted(tiny_store):
    """Many threads, frequent thread switches and a garbage collection
    that runs Python code at almost every allocation (a switch point
    inside ``np.load``'s header parse): no load fails, no open is lost."""
    store = MaskStore(tiny_store.root)

    def _on_gc(phase, info):
        sum(range(3))

    old_interval, old_threshold = sys.getswitchinterval(), gc.get_threshold()
    sys.setswitchinterval(1e-6)
    gc.set_threshold(1)
    gc.callbacks.append(_on_gc)
    try:
        with ThreadPoolExecutor(16) as pool:
            futures = [pool.submit(store.load_mask, i % 120) for i in range(4000)]
            for f in futures:
                f.result(timeout=60)
    finally:
        gc.callbacks.remove(_on_gc)
        gc.set_threshold(*old_threshold)
        sys.setswitchinterval(old_interval)
    assert store.masks_opened == 4000


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_delay_paid_at_task_slot_concurrency(spark, tiny_store, tiny_meta, tiny_cfg, kernel):
    """n masks at D ms on P task slots take at least ceil(n / P) * D: the
    delay is neither skipped nor spread over more threads than Spark has
    task slots."""
    delay_ms = 40.0
    store = MaskStore(tiny_store.root, io_delay_ms=delay_ms)
    meta = tiny_meta.head(24)  # 12 whole images
    t0 = time.perf_counter()
    KERNELS[kernel](spark, store, meta, tiny_cfg)
    elapsed = time.perf_counter() - t0
    slots = spark.sparkContext.defaultParallelism
    assert elapsed >= math.ceil(len(meta) / slots) * delay_ms / 1000.0
    assert store.masks_opened == len(meta)


@pytest.mark.parametrize("damage", ["delete", "truncate"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_unreadable_mask_file_raises_naming_it(
    spark, tiny_store, tiny_meta, tiny_cfg, tmp_path, kernel, damage
):
    """A missing or truncated candidate fails the call; no row goes missing."""
    root = tmp_path / "store"
    shutil.copytree(tiny_store.root, root)
    store = MaskStore(str(root))
    path = store.mask_path(17)
    if damage == "delete":
        os.remove(path)
    else:
        os.truncate(path, os.path.getsize(path) - 100)
    with pytest.raises(OSError, match=r"mask 17\b"):
        KERNELS[kernel](spark, store, tiny_meta.head(24), tiny_cfg)


def test_cp_and_chi_match_direct_computation(spark, tiny_store, tiny_meta, tiny_cfg):
    meta = tiny_meta.iloc[[9, 3, 30, 4]]
    pdf, chi_ids, H = verify.exact_cp_and_chi(
        spark, tiny_store, meta, (TERM,), tiny_cfg, chi_ids=[3, 30]
    )
    assert pdf["mask_id"].tolist() == meta["mask_id"].tolist()
    for mid, got in zip(pdf["mask_id"], pdf["cp_0"]):
        assert got == cp(tiny_store.load_mask(mid), TERM.roi, TERM.lv, TERM.uv)
    assert chi_ids.tolist() == [3, 30]
    for mid, h in zip(chi_ids, H):
        assert np.array_equal(h, build_chi_array(tiny_store.load_mask(mid), tiny_cfg))
