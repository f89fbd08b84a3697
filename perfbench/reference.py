"""Independent NumPy evaluator for the benchmark's queries.

Reads the store's metadata with pyarrow and each mask with ``np.load``,
then answers a query by slicing and counting, mask by mask, with no CHI,
no bounds and no Spark. It implements the same call interface as the
engine (``filter``, ``topk``, ``agg_topk``, ``maskagg_topk``) and the
engine's result conventions:

- filter results are mask ids ascending;
- ranked results break ties on the id ascending;
- Agg ranks images by the mean of their masks' CP;
- mask aggregation counts ROI pixels where *every* mask of the image is
  ``>= t`` (the intersection ``CP(INTERSECT(m >= t), roi, (t, 1))``).

Answers are lists of ids or of ``(id, value)`` pairs; :func:`same`
compares one with an engine :class:`~repro.core.executor.QueryResult`.
"""
from __future__ import annotations

import glob
import math
import os

import numpy as np
import pandas as pd


def read_metadata(root: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(root, "metadata", "*.parquet")))
    meta = pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
    return meta.sort_values("mask_id").reset_index(drop=True)


class Reference:
    """Slice-and-count answers over the masks of one store."""

    def __init__(self, root: str):
        self.meta = read_metadata(root)
        self.w = int(self.meta["width"].iat[0])
        self.h = int(self.meta["height"].iat[0])
        self.masks = {
            int(m): np.load(os.path.join(root, "masks", f"{int(m)}.npy"))
            for m in self.meta["mask_id"]
        }

    # -- helpers ------------------------------------------------------------
    def _roi(self, roi, row) -> tuple[int, int, int, int]:
        if roi is None:
            return (0, 0, self.w, self.h)
        if isinstance(roi, str):  # the per-image object box
            return (int(row.obj_x1), int(row.obj_y1), int(row.obj_x2), int(row.obj_y2))
        return tuple(int(v) for v in roi)

    def _cp(self, mask: np.ndarray, box, lv: float, uv: float) -> int:
        x1, y1, x2, y2 = box
        region = mask[y1:y2, x1:x2]
        return int(np.count_nonzero((region >= lv) & (region < uv)))

    def _targets(self, model_ids=None, mask_ids=None, image_ids=None) -> pd.DataFrame:
        m = self.meta
        if model_ids is not None:
            m = m[m["model_id"].isin(list(model_ids))]
        if mask_ids is not None:
            m = m[m["mask_id"].isin([int(v) for v in mask_ids])]
        if image_ids is not None:
            m = m[m["image_id"].isin([int(v) for v in image_ids])]
        return m

    def _term_values(self, targets: pd.DataFrame, term) -> dict[int, int]:
        return {
            int(r.mask_id): self._cp(self.masks[int(r.mask_id)], self._roi(term.roi, r), term.lv, term.uv)
            for r in targets.itertuples()
        }

    @staticmethod
    def _rank(values: dict[int, float], k: int, descending: bool) -> list[tuple[int, float]]:
        sign = -1 if descending else 1
        return sorted(values.items(), key=lambda kv: (sign * kv[1], kv[0]))[:k]

    # -- the engine's query interface --------------------------------------
    def filter(self, pred, model_id=None, mask_ids=None) -> list[int]:
        targets = self._targets(None if model_id is None else (model_id,), mask_ids)
        total = dict.fromkeys((int(v) for v in targets["mask_id"]), 0.0)
        for coef, term in zip(pred.coefficients, pred.terms):
            for mid, v in self._term_values(targets, term).items():
                total[mid] += coef * v
        keep = (lambda v: v > pred.threshold) if pred.op == ">" else (lambda v: v < pred.threshold)
        return sorted(mid for mid, v in total.items() if keep(v))

    def topk(self, term, k, descending=True, model_id=None, mask_ids=None):
        targets = self._targets(None if model_id is None else (model_id,), mask_ids)
        return self._rank(self._term_values(targets, term), k, descending)

    def agg_topk(self, term, k, descending=True, model_ids=None, image_ids=None):
        targets = self._targets(model_ids, None, image_ids)
        per_mask = self._term_values(targets, term)
        sums: dict[int, list[int]] = {}
        for r in targets.itertuples():
            sums.setdefault(int(r.image_id), []).append(per_mask[int(r.mask_id)])
        means = {img: sum(v) / len(v) for img, v in sums.items()}
        return self._rank(means, k, descending)

    def maskagg_topk(self, t, roi, k, descending=True, model_ids=None, image_ids=None):
        targets = self._targets(model_ids, None, image_ids)
        counts = {}
        for img, grp in targets.groupby("image_id", sort=True):
            all_on = np.logical_and.reduce([self.masks[int(m)] >= t for m in grp["mask_id"]])
            x1, y1, x2, y2 = self._roi(roi, next(grp.itertuples()))
            counts[int(img)] = int(np.count_nonzero(all_on[y1:y2, x1:x2]))
        return self._rank(counts, k, descending)


def as_answer(method: str, pdf: pd.DataFrame):
    """An engine result frame in the reference's answer form."""
    if method == "filter":
        return [int(v) for v in pdf["mask_id"]]
    key = "mask_id" if method == "topk" else "image_id"
    return [(int(a), float(b)) for a, b in zip(pdf[key], pdf["val"])]


def same(expected, got) -> bool:
    """Exact ids and order; values equal up to float rounding."""
    if len(expected) != len(got):
        return False
    for e, g in zip(expected, got):
        if isinstance(e, tuple):
            if e[0] != g[0] or not math.isclose(e[1], g[1], rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif e != g:
            return False
    return True
