"""Incremental indexing (paper §3.6).

An :class:`IncrementalSession` starts with an *empty* CHI and builds it
as queries execute: masks targeted by a query that are not yet indexed
are loaded from disk (counted as loads), evaluated exactly, and their
CHI is built in the same pass and kept in memory for subsequent queries;
already-indexed masks go through the normal filter-verification path.
:meth:`persist` saves the session's index to Parquet so a later session
(or the non-incremental engine) can reuse it — the paper's session-end
persistence.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import verify
from repro.core.chi import ChiConfig, ChiIndex
from repro.core.executor import (
    GT,
    FilterPredicate,
    MaskSearchEngine,
    QueryResult,
    QueryStats,
    counts_opens,
)
from repro.maskstore.store import MaskStore


class IncrementalSession:
    """MaskSearch session with lazily-built CHI (MS-II in §4.5)."""

    def __init__(self, spark: SparkSession, store: MaskStore, cfg: ChiConfig):
        self.spark = spark
        self.store = store
        self.cfg = cfg
        self.index = ChiIndex(cfg)
        self.engine = MaskSearchEngine(spark, store, self.index)

    @property
    def n_indexed(self) -> int:
        return len(self.index)

    @counts_opens
    def filter(
        self,
        pred: FilterPredicate,
        model_id: int | None = None,
        mask_ids=None,
    ) -> QueryResult:
        """Filter query with on-the-fly indexing of first-touch masks.

        One pass: the CHI filter stage decides already-indexed masks
        (accept / prune / verify); a *single* load of each mask then covers
        first-touch masks (exact CP + CHI build) and indexed masks that
        need verification (exact CP only), as in the paper's §3.6.
        """
        meta = self.engine.target(model_id=model_id, mask_ids=mask_ids)
        ids = meta["mask_id"].to_numpy(np.int64)
        seen = self.index.has(ids)
        meta_new = meta[~seen]
        meta_seen = meta[seen].reset_index(drop=True)

        # Filter stage over indexed masks only (index lookups, no I/O).
        T = pred.threshold
        if len(meta_seen):
            lo, hi = self.engine._combined_bounds(meta_seen, pred)
            if pred.op == GT:
                accept = lo > T
                prune = hi <= T
            else:
                accept = hi < T
                prune = lo >= T
            to_verify = ~(accept | prune)
        else:
            accept = prune = to_verify = np.zeros(0, dtype=bool)

        load_meta = pd.concat([meta_new, meta_seen[to_verify]], ignore_index=True)
        pdf, new_ids, new_H = verify.exact_cp_and_chi(
            self.spark,
            self.store,
            load_meta,
            pred.terms,
            self.cfg,
            chi_ids=meta_new["mask_id"].tolist(),
        )
        self.index.add(new_ids, new_H)
        val = np.zeros(len(pdf))
        for c, i in zip(pred.coefficients, range(len(pred.terms))):
            val = val + c * pdf[f"cp_{i}"].to_numpy()
        passed = pdf.loc[(val > T) if pred.op == GT else (val < T), "mask_id"]

        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=int(prune.sum()),
            n_accepted=int(accept.sum()),
            n_verified=int(to_verify.sum()),
            masks_loaded=len(load_meta),
        )
        out = (
            pd.DataFrame(
                {
                    "mask_id": np.concatenate(
                        [
                            meta_seen.loc[accept, "mask_id"].to_numpy(np.int64),
                            passed.to_numpy(np.int64),
                        ]
                    )
                }
            )
            .sort_values("mask_id")
            .reset_index(drop=True)
        )
        return QueryResult(out, stats)

    def persist(self, path: str | None = None) -> str:
        """Persist the session's CHI to Parquet (paper: session end)."""
        out = path or self.store.index_path(self.cfg)
        if len(self.index) == 0:
            raise ValueError("nothing to persist: index is empty")
        H = self.index._H
        n, ny1, nx1, b = H.shape
        pdf = pd.DataFrame(
            {
                "mask_id": np.asarray(self.index._ids, dtype=np.int64),
                "ny": ny1 - 1,
                "nx": nx1 - 1,
                "b": b,
                "wc": self.cfg.wc,
                "hc": self.cfg.hc,
                "h": [row.ravel().tolist() for row in H],
            }
        )
        sdf = self.spark.createDataFrame(
            pdf, schema="mask_id long, ny int, nx int, b int, wc int, hc int, h array<long>"
        )
        sdf.write.mode("overwrite").parquet(out)
        return out
