"""The benchmark's three workloads: their inputs, made from the seed.

Every query is a :class:`Call` on the engine interface shared by
``MaskSearchEngine``, ``FullScanBaseline`` and the reference evaluator
(``filter``, ``topk``, ``agg_topk``, ``maskagg_topk``). Calls are captured
from the repository's own query objects (``repro.workloads``) by running
them against a :class:`_Recorder`, so Table 1 and the §4.3 generators are
used as defined in ``src/`` and the reference sees the same arguments.

- ``table1_wilds``: Table 1's Q1-Q5 on WILDS-lite; the seed sets the order.
- ``explore_imagenet``: §4.3-style Filter queries on ImageNet-lite with
  the ROI on the CHI's cell grid and the value range on its bins, so the
  filter stage decides every mask (no verification); the seed draws the
  ROI, range and threshold. The traced run adds one §4.3 Top-K and one
  §4.3 Agg query (``rank_probe``).
- ``msii_wilds_ebs40``: one §4.5 workload-2 session (``p_seen`` = 0.5)
  through ``IncrementalSession`` from an empty index, with a fixed
  10/20/10 % target schedule; the seed draws the targets and predicates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EXPLORE_FILTERS = 20
MSII_FRACTIONS = (0.1, 0.2, 0.1)
MSII_P_SEEN = 0.5
MSII_IO_DELAY_MS = 40.0


@dataclass(frozen=True)
class Call:
    """One query: ``getattr(executor, method)(*args, **kwargs)``."""

    name: str
    method: str
    args: tuple
    kwargs: dict = field(default_factory=dict)

    def __call__(self, executor):
        return getattr(executor, self.method)(*self.args, **self.kwargs)


class _Recorder:
    """Stands in for an executor and returns the call made on it."""

    def __getattr__(self, method):
        return lambda *args, **kwargs: (method, args, kwargs)


def record(name: str, query_run) -> Call:
    method, args, kwargs = query_run(_Recorder())
    return Call(name, method, args, kwargs)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    loads_index: bool  # set-up loads the persisted CHI
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1_wilds",
            "wilds_lite",
            True,
            "Table 1 Q1-Q5: verification is the query; MaskSearch vs full scan",
        ),
        Workload(
            "explore_imagenet",
            "imagenet_lite",
            True,
            "index-only Filter queries on the largest CHI: gather + bounds",
        ),
        Workload(
            "msii_wilds_ebs40",
            "wilds_lite",
            False,
            "MS-II session from an empty index at 40 ms/mask: index writes",
        ),
    )
}


def table1_calls(spec, seed: int) -> list[Call]:
    from repro.workloads.queries import table1_queries

    qs = table1_queries(spec)
    order = np.random.default_rng([seed, 1]).permutation(len(qs))
    return [record(qs[i].name, qs[i].run) for i in order]


def _aligned_box(g, w: int, h: int, cell_w: int, cell_h: int) -> tuple[int, int, int, int]:
    nx, ny = w // cell_w, h // cell_h
    x1, x2 = sorted(g.choice(nx + 1, size=2, replace=False))
    y1, y2 = sorted(g.choice(ny + 1, size=2, replace=False))
    return (int(x1 * cell_w), int(y1 * cell_h), int(x2 * cell_w), int(y2 * cell_h))


def explore_calls(spec, cfg, seed: int) -> list[Call]:
    """Filter ``CP(mask, roi, (lv, uv)) > T`` over model 1, with ``roi``
    on the CHI grid, ``lv``/``uv`` on its bins and ``T`` uniform over the
    ROI's pixel count (§4.3 draws ``T`` over the whole mask)."""
    from repro.core.cp import CPTerm
    from repro.core.executor import GT, FilterPredicate

    g = np.random.default_rng([seed, 2])
    out = []
    for i in range(EXPLORE_FILTERS):
        box = _aligned_box(g, spec.width, spec.height, cfg.wc, cfg.hc)
        lo, hi = sorted(g.choice(cfg.b + 1, size=2, replace=False))
        area = (box[2] - box[0]) * (box[3] - box[1])
        pred = FilterPredicate(
            terms=(CPTerm(lo / cfg.b, hi / cfg.b, box),),
            op=GT,
            threshold=int(g.integers(0, area + 1)),
        )
        out.append(Call(f"F{i}", "filter", (pred,), {"model_id": 1}))
    return out


def rank_probe_calls(spec, seed: int) -> list[Call]:
    """One §4.3 Top-K (model 1) and one §4.3 Agg query, as generated by
    ``repro.workloads.random_queries``."""
    from repro.workloads import random_queries as rq

    topk = rq.random_topk_queries(spec, 1, seed)[0]
    agg = rq.random_agg_queries(spec, 1, seed)[0]
    return [
        record("TopK", lambda ex: topk.run(ex, model_id=1)),
        record("Agg", agg.run),
    ]


def msii_calls(spec, seed: int) -> list[Call]:
    """§4.5's targeting protocol (``multi_query.generate_workload``) with
    the target size fixed per query instead of drawn, so every seed loads
    the same number of first-touch masks."""
    from repro.workloads.random_queries import random_filter_queries

    g = np.random.default_rng([seed, 3])
    all_ids = np.arange(spec.n_masks)
    seen = np.zeros(0, dtype=np.int64)
    unseen = all_ids.copy()
    preds = random_filter_queries(spec, len(MSII_FRACTIONS), seed)
    out = []
    for i, (frac, q) in enumerate(zip(MSII_FRACTIONS, preds)):
        n = int(len(all_ids) * frac)
        n_seen = min(int(round(n * MSII_P_SEEN)), len(seen))
        n_unseen = min(n - n_seen, len(unseen))
        n_seen = min(n - n_unseen, len(seen))
        new = g.choice(unseen, size=n_unseen, replace=False)
        old = g.choice(seen, size=n_seen, replace=False) if n_seen else seen[:0]
        target = tuple(int(v) for v in np.concatenate([old, new]))
        seen = np.union1d(seen, new)
        unseen = np.setdiff1d(unseen, new, assume_unique=True)
        out.append(Call(f"S{i}", "filter", (q.predicate(),), {"mask_ids": target}))
    return out
