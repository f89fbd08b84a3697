"""Filter-verification query execution framework (paper §3.2-§3.5).

The engine executes the paper's query classes over a
:class:`~repro.maskstore.store.MaskStore` + :class:`~repro.core.chi.ChiIndex`:

- **filter** (§3.2, §3.3): ``F(CP_1, ..., CP_n) op T`` where ``F`` is a
  monotone linear combination. The *filter stage* computes certified
  bounds per mask from the in-memory CHI alone, prunes guaranteed-fail
  masks, accepts guaranteed-pass masks; the *verification stage* loads
  only the remaining candidates (:mod:`repro.core.verify`, which reads
  exactly those ``.npy`` files) and evaluates the exact predicate.
- **top-k** (§3.5): batched threshold refinement
  (:meth:`MaskSearchEngine._topk_refine`, DESIGN.md §4): ``tau`` starts
  at the k-th best *lower* bound (DESC) / *upper* bound (ASC) and
  tightens as verified exact values accumulate; every mask whose bound
  interval can still beat ``tau`` is verified.
- **scalar aggregation** (§3.4, Q4): per-group (image) bounds are the
  monotone aggregate (mean) of per-mask bounds; top-k refinement over
  groups.
- **mask aggregation** (§3.4, Q5): ``CP(INTERSECT(m_i >= t), roi,
  (t, 1))`` bounded from the *individual* mask CHIs:
  ``ub = min_i ub_i`` and ``lb = max(0, sum_i lb_i - (n-1)|roi|)``.
- **ratio top-k** (§2 Example 1 / §3.3): ``CP_a / CP_b`` with sound
  interval division.

Every result records :class:`QueryStats` whose ``masks_loaded`` is the
paper's Table 2 metric, the number of masks the executor decided to read
from disk, and whose ``masks_opened`` is the number the store actually
opened during the query (:func:`counts_opens`); the two must be equal.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import verify
from repro.core.bounds import cp_bounds_batch
from repro.core.chi import ChiIndex
from repro.core.cp import CPTerm
from repro.maskstore.store import MaskStore

GT, LT = ">", "<"


@dataclass
class QueryStats:
    """Execution accounting (Table 2's ``masks loaded`` and the filter
    stage's three-way split, §3.2.1 Step 2)."""

    n_targeted: int = 0
    n_pruned: int = 0
    n_accepted: int = 0
    n_verified: int = 0
    masks_loaded: int = 0
    #: Mask files the store opened during the query, counted in
    #: :meth:`MaskStore.load_mask`: a measurement of ``masks_loaded``.
    masks_opened: int = 0

    @property
    def fml(self) -> float:
        """Fraction of masks loaded (§4.4)."""
        return self.masks_loaded / self.n_targeted if self.n_targeted else 0.0


def counts_opens(method):
    """Set the returned ``QueryResult``'s ``stats.masks_opened`` to the
    mask files ``self.store`` opened while ``method`` ran."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        before = self.store.masks_opened
        res = method(self, *args, **kwargs)
        res.stats.masks_opened = self.store.masks_opened - before
        return res

    return wrapper


@dataclass
class QueryResult:
    """Result rows (pandas; small by construction) plus stats."""

    pdf: pd.DataFrame
    stats: QueryStats

    def ids(self, col: str = "mask_id") -> list[int]:
        return sorted(int(v) for v in self.pdf[col])

    def to_spark(self, spark: SparkSession, schema: str | None = None) -> DataFrame:
        return spark.createDataFrame(self.pdf, schema=schema)


@dataclass(frozen=True)
class FilterPredicate:
    """``sum_i coef_i * CP_i op T`` — monotone combination (§3.3)."""

    terms: tuple[CPTerm, ...]
    op: str = GT
    threshold: float = 0.0
    coefs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.op not in (GT, LT):
            raise ValueError(f"op must be '>' or '<', got {self.op!r}")
        if self.coefs is not None and len(self.coefs) != len(self.terms):
            raise ValueError("coefs length must match terms")

    @property
    def coefficients(self) -> tuple[float, ...]:
        return self.coefs or tuple(1.0 for _ in self.terms)


def _meta_rois(meta: pd.DataFrame, term: CPTerm, w: int, h: int) -> np.ndarray:
    """Resolve a term's ROI to an (N, 4) int array for masks in ``meta``."""
    n = len(meta)
    if term.roi is None:
        return np.tile(np.array([0, 0, w, h], dtype=np.int64), (n, 1))
    if isinstance(term.roi, str):
        return meta[["obj_x1", "obj_y1", "obj_x2", "obj_y2"]].to_numpy(np.int64)
    roi = np.asarray(term.resolve_roi(w, h), dtype=np.int64)
    return np.tile(roi, (n, 1))


class MaskSearchEngine:
    """MaskSearch over one store + one in-memory CHI (paper's "session")."""

    def __init__(self, spark: SparkSession, store: MaskStore, index: ChiIndex):
        self.spark = spark
        self.store = store
        self.index = index
        self.meta = store.metadata_pandas(spark)
        self.w = store.spec.width
        self.h = store.spec.height

    # ------------------------------------------------------------------
    # targeting & bounds (filter stage — index only, no mask I/O)
    # ------------------------------------------------------------------
    def target(
        self,
        model_id: int | None = None,
        mask_ids=None,
        image_ids=None,
    ) -> pd.DataFrame:
        """Metadata rows targeted by a query's relational predicates."""
        m = self.meta
        if model_id is not None:
            m = m[m["model_id"] == model_id]
        if mask_ids is not None:
            m = m[m["mask_id"].isin(set(int(v) for v in mask_ids))]
        if image_ids is not None:
            m = m[m["image_id"].isin(set(int(v) for v in image_ids))]
        return m.reset_index(drop=True)

    def bounds(
        self, meta: pd.DataFrame, term: CPTerm
    ) -> tuple[np.ndarray, np.ndarray]:
        """Certified (lb, ub) on ``CP(term)`` for each mask in ``meta``."""
        ids = meta["mask_id"].to_numpy(np.int64)
        H = self.index.gather(ids)
        rois = _meta_rois(meta, term, self.w, self.h)
        return cp_bounds_batch(H, rois, term.lv, term.uv, self.index.cfg)

    def _combined_bounds(
        self, meta: pd.DataFrame, pred: FilterPredicate
    ) -> tuple[np.ndarray, np.ndarray]:
        lo = np.zeros(len(meta))
        hi = np.zeros(len(meta))
        for c, term in zip(pred.coefficients, pred.terms):
            lb, ub = self.bounds(meta, term)
            if c >= 0:
                lo, hi = lo + c * lb, hi + c * ub
            else:  # negative coefficient flips the interval (monotone §3.3)
                lo, hi = lo + c * ub, hi + c * lb
        return lo, hi

    # ------------------------------------------------------------------
    # verification stage (mask I/O)
    # ------------------------------------------------------------------
    def exact_cp(
        self, meta: pd.DataFrame, terms: tuple[CPTerm, ...]
    ) -> pd.DataFrame:
        """Load exactly the masks in ``meta`` from disk and compute exact
        CP for every term. Returns ``mask_id, image_id, cp_0..cp_{n-1}``.
        """
        return verify.exact_cp_pdf(self.spark, self.store, meta, terms)

    # ------------------------------------------------------------------
    # query classes
    # ------------------------------------------------------------------
    @counts_opens
    def filter(
        self,
        pred: FilterPredicate,
        model_id: int | None = None,
        mask_ids=None,
    ) -> QueryResult:
        """Mask selection ``F(CP...) op T`` → mask_ids satisfying it."""
        meta = self.target(model_id=model_id, mask_ids=mask_ids)
        lo, hi = self._combined_bounds(meta, pred)
        T = pred.threshold
        if pred.op == GT:
            accept = lo > T
            prune = hi <= T
        else:
            accept = hi < T
            prune = lo >= T
        to_verify = ~(accept | prune)

        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=int(prune.sum()),
            n_accepted=int(accept.sum()),
            n_verified=int(to_verify.sum()),
            masks_loaded=int(to_verify.sum()),
        )
        exact = self.exact_cp(meta[to_verify], pred.terms)
        val = np.zeros(len(exact))
        for c, col in zip(pred.coefficients, (f"cp_{i}" for i in range(len(pred.terms)))):
            val = val + c * exact[col].to_numpy()
        passed = exact[(val > T) if pred.op == GT else (val < T)]
        result = pd.DataFrame(
            {
                "mask_id": np.concatenate(
                    [
                        meta.loc[accept, "mask_id"].to_numpy(np.int64),
                        passed["mask_id"].to_numpy(np.int64),
                    ]
                )
            }
        ).sort_values("mask_id").reset_index(drop=True)
        return QueryResult(result, stats)

    def _topk_refine(
        self,
        keys: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        k: int,
        descending: bool,
        exact_fn,
        loads_per_key: np.ndarray,
    ) -> tuple[pd.DataFrame, int, int]:
        """Batched threshold-refinement top-k (paper §3.5).

        The paper processes masks sequentially, pruning each whose upper
        bound cannot beat the running k-th-best exact value. The batched
        equivalent verifies *batches* of the highest-upper-bound entities, tightening the running threshold ``tau`` =
        max(k-th best lower bound, k-th best verified exact) after each
        round, until no unverified entity's interval can reach ``tau``.
        Ties are handled soundly (``hi >= tau`` stays a candidate) and
        broken by key ascending, matching the oracle's ORDER BY.

        ``exact_fn(sel_keys) -> pdf[key, val]`` runs one verification
        round; it may omit keys that are excluded from the ranking (e.g. a
        zero denominator). ``loads_per_key[i]`` is the number of masks a
        verification of ``keys[i]`` loads. Returns
        ``(result_pdf[key, val], n_verified_keys, masks_loaded)``.
        """
        n = len(keys)
        sign = 1.0 if descending else -1.0
        LO, HI = (lo, hi) if descending else (-hi, -lo)
        LO = LO.astype(np.float64)
        HI = HI.astype(np.float64)
        unverified = np.ones(n, dtype=bool)
        tau = float(np.partition(LO, n - k)[n - k]) if n > k else -np.inf
        # First round verifies just enough to establish a running
        # threshold; later rounds grow geometrically to bound the number
        # of rounds. This mirrors the paper's sequential scan whose
        # threshold tightens as exact values accumulate.
        batch = max(2 * k, 32)
        verified: dict[int, float] = {}  # key -> signed exact value
        loaded = 0
        while True:
            cand = unverified & (HI >= tau)
            if not cand.any():
                break
            idx = np.where(cand)[0]
            take = idx[np.argsort(-HI[idx], kind="stable")[:batch]]
            batch = min(batch * 4, 2048)  # geometric growth bounds #rounds
            sel = keys[take]
            pdf = exact_fn(sel)
            loaded += int(loads_per_key[take].sum())
            unverified[take] = False
            for kk, vv in zip(pdf.iloc[:, 0], pdf.iloc[:, 1]):
                verified[int(kk)] = sign * float(vv)
            if len(verified) >= k:
                vals = np.sort(np.fromiter(verified.values(), dtype=np.float64))
                tau = max(tau, float(vals[-k]))
        if verified:
            res = pd.DataFrame(
                {"key": list(verified.keys()), "val": list(verified.values())}
            ).sort_values(["val", "key"], ascending=[False, True], kind="stable")
            res = res.head(k)
            res["val"] = sign * res["val"]
        else:
            res = pd.DataFrame({"key": pd.Series(dtype=np.int64), "val": pd.Series(dtype=np.float64)})
        n_verified = int((~unverified).sum())
        return res.reset_index(drop=True), n_verified, loaded

    @counts_opens
    def topk(
        self,
        term: CPTerm,
        k: int,
        descending: bool = True,
        model_id: int | None = None,
        mask_ids=None,
    ) -> QueryResult:
        """Top-k masks by ``CP(term)`` (§3.5); ties break on mask_id asc."""
        meta = self.target(model_id=model_id, mask_ids=mask_ids)
        lo, hi = self.bounds(meta, term)
        keys = meta["mask_id"].to_numpy(np.int64)
        meta_by_id = meta.set_index("mask_id", drop=False)

        def _exact(sel: np.ndarray) -> pd.DataFrame:
            pdf = self.exact_cp(meta_by_id.loc[sel], (term,))
            return pdf[["mask_id", "cp_0"]]

        res, n_verified, loaded = self._topk_refine(
            keys, lo, hi, k, descending, _exact, np.ones(len(keys), dtype=np.int64)
        )
        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=len(meta) - n_verified,
            n_verified=n_verified,
            masks_loaded=loaded,
        )
        out = res.rename(columns={"key": "mask_id"})
        out["val"] = out["val"].astype(np.int64)
        return QueryResult(out, stats)

    @counts_opens
    def topk_ratio(
        self,
        num: CPTerm,
        den: CPTerm,
        k: int,
        descending: bool = False,
        model_id: int | None = None,
        mask_ids=None,
    ) -> QueryResult:
        """Top-k by ``CP(num)/CP(den)`` (Example 1, §2.1); masks with an
        exact zero denominator are excluded from the ranking."""
        meta = self.target(model_id=model_id, mask_ids=mask_ids)
        nlo, nhi = self.bounds(meta, num)
        dlo, dhi = self.bounds(meta, den)
        # Interval division with non-negative counts: masks whose
        # denominator is certainly 0 (dhi == 0) are excluded up front;
        # a 0 lower denominator bound makes the ratio upper bound +inf
        # (the mask can never be pruned before verification). The
        # refinement loop's tau comes only from verified exacts and
        # certainly-valid lower bounds, so it is sound even when some
        # denominators turn out to be zero (DESIGN.md §4).
        feasible = dhi > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            rlo = np.where((dhi > 0) & (dlo > 0), nlo / np.maximum(dhi, 1), 0.0)
            rhi = np.where(dlo > 0, nhi / np.maximum(dlo, 1), np.inf)
        # Masks that might be invalid (dlo == 0) contribute a vacuous
        # lower bound so they never inflate tau's initial estimate.
        rlo = np.where(dlo > 0, rlo, -np.inf if descending else 0.0)
        meta_f = meta[feasible].reset_index(drop=True)
        keys = meta_f["mask_id"].to_numpy(np.int64)
        meta_by_id = meta_f.set_index("mask_id", drop=False)

        def _exact(sel: np.ndarray) -> pd.DataFrame:
            pdf = self.exact_cp(meta_by_id.loc[sel], (num, den))
            pdf = pdf[pdf["cp_1"] > 0].copy()
            pdf["val"] = pdf["cp_0"] / pdf["cp_1"]
            return pdf[["mask_id", "val"]]

        res, n_verified, loaded = self._topk_refine(
            keys,
            rlo[feasible],
            rhi[feasible],
            k,
            descending,
            _exact,
            np.ones(len(keys), dtype=np.int64),
        )
        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=len(meta) - n_verified,
            n_verified=n_verified,
            masks_loaded=loaded,
        )
        return QueryResult(res.rename(columns={"key": "mask_id"}), stats)

    @counts_opens
    def agg_topk(
        self,
        term: CPTerm,
        k: int,
        descending: bool = True,
        model_ids: tuple[int, ...] | None = None,
        image_ids=None,
    ) -> QueryResult:
        """Q4-style: top-k images by ``mean(CP)`` over each image's masks
        (SCALAR_AGG of §3.4); ties break on image_id asc."""
        meta = self.meta if model_ids is None else self.meta[
            self.meta["model_id"].isin(model_ids)
        ]
        if image_ids is not None:
            meta = meta[meta["image_id"].isin(set(int(v) for v in image_ids))]
        meta = meta.reset_index(drop=True)
        lo, hi = self.bounds(meta, term)
        g = (
            pd.DataFrame(
                {"image_id": meta["image_id"].to_numpy(np.int64), "lo": lo, "hi": hi}
            )
            .groupby("image_id", sort=True)
            .agg(lo=("lo", "mean"), hi=("hi", "mean"), n=("lo", "size"))
        )
        keys = g.index.to_numpy(np.int64)

        def _exact(sel: np.ndarray) -> pd.DataFrame:
            sub = meta[meta["image_id"].isin(set(int(v) for v in sel))]
            pdf = self.exact_cp(sub, (term,))
            return (
                pdf.groupby("image_id", sort=True)["cp_0"].mean().rename("val").reset_index()
            )

        res, n_verified_groups, loaded = self._topk_refine(
            keys,
            g["lo"].to_numpy(),
            g["hi"].to_numpy(),
            k,
            descending,
            _exact,
            g["n"].to_numpy(np.int64),
        )
        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=len(meta) - loaded,
            n_verified=loaded,
            masks_loaded=loaded,
        )
        return QueryResult(res.rename(columns={"key": "image_id"}), stats)

    @counts_opens
    def maskagg_topk(
        self,
        t: float,
        roi: object,
        k: int,
        descending: bool = True,
        model_ids: tuple[int, ...] | None = None,
        image_ids=None,
    ) -> QueryResult:
        """Q5-style: top-k images by
        ``CP(INTERSECT(masks >= t), roi, (t, 1.0))`` (MASK_AGG of §3.4).

        Bounds come from the *individual* mask CHIs: the intersection
        count is at most each mask's count and at least
        ``sum_i lb_i - (n-1)|roi|``.
        """
        term = CPTerm(lv=t, uv=1.0, roi=roi)
        meta = self.meta if model_ids is None else self.meta[
            self.meta["model_id"].isin(model_ids)
        ]
        if image_ids is not None:
            meta = meta[meta["image_id"].isin(set(int(v) for v in image_ids))]
        meta = meta.reset_index(drop=True)
        lo, hi = self.bounds(meta, term)
        areas = (
            _meta_rois(meta, term, self.w, self.h)[:, [2, 3]]
            - _meta_rois(meta, term, self.w, self.h)[:, [0, 1]]
        ).prod(axis=1)
        gdf = pd.DataFrame(
            {
                "image_id": meta["image_id"].to_numpy(np.int64),
                "lo": lo,
                "hi": hi,
                "area": areas,
            }
        )
        g = gdf.groupby("image_id", sort=True).agg(
            lo_sum=("lo", "sum"), hi_min=("hi", "min"), n=("lo", "size"), area=("area", "first")
        )
        g_lo = np.maximum(g["lo_sum"] - (g["n"] - 1) * g["area"], 0).to_numpy()
        g_hi = g["hi_min"].to_numpy()
        keys = g.index.to_numpy(np.int64)

        def _exact(sel: np.ndarray) -> pd.DataFrame:
            sub = meta[meta["image_id"].isin(set(int(v) for v in sel))]
            return self.exact_maskagg_cp(sub, t, term)

        res, n_verified_groups, loaded = self._topk_refine(
            keys, g_lo, g_hi, k, descending, _exact, g["n"].to_numpy(np.int64)
        )
        stats = QueryStats(
            n_targeted=len(meta),
            n_pruned=len(meta) - loaded,
            n_verified=loaded,
            masks_loaded=loaded,
        )
        out = res.rename(columns={"key": "image_id"})
        out["val"] = out["val"].astype(np.int64)
        return QueryResult(out, stats)

    def exact_maskagg_cp(
        self, meta: pd.DataFrame, t: float, term: CPTerm
    ) -> pd.DataFrame:
        """Exact per-image ``CP(INTERSECT(masks >= t), roi, (lv, uv))``
        over the masks in ``meta``. Returns ``image_id, val``."""
        return verify.exact_maskagg_pdf(self.spark, self.store, meta, t, term)


def bounds_df(
    spark: SparkSession,
    index_path: str,
    store: MaskStore,
    term: CPTerm,
    cfg,
) -> DataFrame:
    """Distributed filter stage: bounds computed by a Spark scan over the
    persisted CHI Parquet (same kernel as the driver path; used to show
    and test the pure-DataFrame variant of §3.2.1)."""
    meta = store.metadata(spark).select(
        "mask_id", "obj_x1", "obj_y1", "obj_x2", "obj_y2"
    )
    idx = spark.read.parquet(index_path)
    joined = idx.join(meta, "mask_id")
    w, h = store.spec.width, store.spec.height
    lv, uv, troi = term.lv, term.uv, term.roi

    def _b(batches):
        from repro.core.chi import ChiConfig

        for pdf in batches:
            if not len(pdf):
                continue
            ny, nx, b = int(pdf["ny"].iat[0]), int(pdf["nx"].iat[0]), int(pdf["b"].iat[0])
            local_cfg = ChiConfig(int(pdf["wc"].iat[0]), int(pdf["hc"].iat[0]), b)
            H = np.stack(
                [np.asarray(x, dtype=np.int64).reshape(ny + 1, nx + 1, b) for x in pdf["h"]]
            )
            t = CPTerm(lv=lv, uv=uv, roi=troi)
            rois = _meta_rois(pdf, t, w, h)
            lb, ub = cp_bounds_batch(H, rois, lv, uv, local_cfg)
            yield pd.DataFrame(
                {"mask_id": pdf["mask_id"].astype(np.int64), "lb": lb, "ub": ub}
            )

    return joined.mapInPandas(_b, schema="mask_id long, lb long, ub long")
