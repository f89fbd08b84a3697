"""Exact-evaluation kernels shared by the verification stage and the
full-scan baselines.

Each function reads the masks in ``meta`` with
:meth:`~repro.maskstore.store.MaskStore.load_mask` and reduces each one
to what the query needs (its CPs, its CHI, or its image's intersection)
before dropping it, so a worker never holds more than one mask (one
image's masks for mask aggregation). The loads run on the driver in a
thread pool as wide as the Spark session's task slots
(``defaultParallelism``): the concurrency a Spark scan of the store reads
with, so the simulated-EBS delay slept inside each load costs the same,
without a Spark job's fixed cost per verification round. The *only*
difference between MaskSearch and the baselines is which ``mask_id`` set
reaches these functions.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.chi import ChiConfig, build_chi_array
from repro.core.cp import CPTerm, cp, intersect_threshold
from repro.maskstore.store import MaskStore


def _pool_map(spark: SparkSession, fn, items: list) -> list:
    """``[fn(x) for x in items]`` on ``defaultParallelism`` threads, in
    order. The first exception a worker raises propagates, and tasks not
    yet started are cancelled."""
    if not items:
        return []
    pool = ThreadPoolExecutor(min(spark.sparkContext.defaultParallelism, len(items)))
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def _obj_roi(r) -> tuple[int, int, int, int]:
    return (r.obj_x1, r.obj_y1, r.obj_x2, r.obj_y2)


def _cp_frame(rows: list, n_terms: int) -> pd.DataFrame:
    cols = ["mask_id", "image_id", *(f"cp_{i}" for i in range(n_terms))]
    return pd.DataFrame(rows, columns=cols).astype(np.int64)


def _cp_rows(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
    cfg: ChiConfig | None = None,
    chi_ids: frozenset = frozenset(),
) -> list[tuple[tuple, np.ndarray | None]]:
    """Per row of ``meta``: ``((mask_id, image_id, cp_0, ...), H)``, where
    ``H`` is the mask's CHI under ``cfg`` if it is in ``chi_ids``, else
    ``None``."""
    w, h = store.spec.width, store.spec.height

    def _one(r):
        mid = int(r.mask_id)
        mask = store.load_mask(mid)
        cps = [cp(mask, t.resolve_roi(w, h, _obj_roi(r)), t.lv, t.uv) for t in terms]
        H = build_chi_array(mask, cfg) if mid in chi_ids else None
        return (mid, int(r.image_id), *cps), H

    return _pool_map(spark, _one, list(meta.itertuples(index=False)))


def exact_cp_pdf(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
) -> pd.DataFrame:
    """Load the masks in ``meta`` and compute exact CP per term.

    Returns ``mask_id, image_id, cp_0..cp_{n-1}`` (pandas; one row per
    mask, in ``meta`` order). Opens exactly ``len(meta)`` mask files.
    """
    rows = [row for row, _ in _cp_rows(spark, store, meta, terms)]
    return _cp_frame(rows, len(terms))


def exact_maskagg_pdf(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    t: float,
    term: CPTerm,
) -> pd.DataFrame:
    """Exact per-image ``CP(INTERSECT(masks >= t), roi, (lv, uv))``, one
    image's masks per task. Returns ``image_id, val`` sorted by image."""
    w, h = store.spec.width, store.spec.height

    def _one(item):
        img, g = item
        roi = term.resolve_roi(w, h, _obj_roi(next(g.itertuples(index=False))))
        m = intersect_threshold([store.load_mask(mid) for mid in g["mask_id"]], t)
        return int(img), cp(m, roi, term.lv, term.uv)

    rows = _pool_map(spark, _one, list(meta.groupby("image_id", sort=True)))
    return pd.DataFrame(rows, columns=["image_id", "val"]).astype(np.int64)


def exact_cp_and_chi(
    spark: SparkSession,
    store: MaskStore,
    meta: pd.DataFrame,
    terms: tuple[CPTerm, ...],
    cfg: ChiConfig,
    chi_ids=None,
) -> tuple[pd.DataFrame, np.ndarray, np.ndarray]:
    """Incremental-indexing kernel (§3.6): one pass that loads each mask
    and computes exact CPs, additionally building the CHI for the masks
    in ``chi_ids`` (default: all). This lets MS-II answer a query with a
    *single* load of each mask covering both first-touch masks (CP + CHI)
    and already-indexed masks that need verification (CP only). Returns
    ``(cp_pdf, chi_mask_ids, H_tensor)``; ``cp_pdf`` covers every mask in
    ``meta``, the CHI outputs only ``chi_ids``.
    """
    chi_set = frozenset(int(v) for v in (meta["mask_id"] if chi_ids is None else chi_ids))
    out = _cp_rows(spark, store, meta, terms, cfg, chi_set)
    built = [(row[0], H) for row, H in out if H is not None]
    nx, ny = cfg.grid(store.spec.width, store.spec.height)
    H = (
        np.stack([H for _, H in built])
        if built
        else np.zeros((0, ny + 1, nx + 1, cfg.b), dtype=np.int64)
    )
    chi_mask_ids = np.array([mid for mid, _ in built], dtype=np.int64)
    return _cp_frame([row for row, _ in out], len(terms)), chi_mask_ids, H
