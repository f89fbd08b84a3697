"""On-disk mask database (storage substrate, paper §4.1).

The paper stores masks on an EBS volume and the dominant query cost is
loading masks from disk; every evaluated system is charged per *mask
loaded*. This substrate reproduces that cost model on the local
filesystem:

- one ``.npy`` file per mask under ``<root>/masks/`` — the unit of I/O
  that MaskSearch's filter stage avoids;
- a ``<root>/metadata`` Parquet table with the relational part of
  ``MasksDatabaseView`` (§2.1) plus the per-image foreground-object box
  (the paper's YOLOv5 output) and a predicted class label;
- CHI indexes persisted as Parquet siblings, one directory per
  :class:`~repro.core.chi.ChiConfig`.

Dataset generation (:func:`build_store`) is a distributed Spark job:
the metadata DataFrame is generated on the driver (it is small), and a
``mapInPandas`` pass materialises each partition's masks with the
deterministic per-mask generators from :mod:`repro.masks.synth`.
"""
from __future__ import annotations

import json
import math
import os
import threading
import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.masks import synth
from repro.masks.synth import DatasetSpec

METADATA_COLUMNS = [
    "mask_id",
    "image_id",
    "model_id",
    "mask_type",
    "width",
    "height",
    "path",
    "obj_x1",
    "obj_y1",
    "obj_x2",
    "obj_y2",
    "pred_class",
]

_META_SCHEMA = (
    "mask_id long, image_id long, model_id int, mask_type int, "
    "width int, height int, path string, "
    "obj_x1 int, obj_y1 int, obj_x2 int, obj_y2 int, pred_class int"
)

#: mask_type for saliency maps (the only type the evaluation uses).
SALIENCY = 1

#: NumPy parses each ``.npy`` header with ``ast.literal_eval``, which
#: CPython 3.11.7 cannot run in two threads at once (it raises
#: ``SystemError: AST constructor recursion depth mismatch``), so
#: concurrent loads take turns parsing headers; the pixel reads overlap.
_NPY_HEADER_LOCK = threading.Lock()


def _read_npy(path: str) -> np.ndarray:
    """``np.load`` of one ``.npy`` array, parsing its header under
    :data:`_NPY_HEADER_LOCK`."""
    fmt = np.lib.format
    with open(path, "rb") as f:
        version = fmt.read_magic(f)
        with _NPY_HEADER_LOCK:
            if version == (1, 0):
                shape, fortran_order, dtype = fmt.read_array_header_1_0(f)
            else:
                shape, fortran_order, dtype = fmt.read_array_header_2_0(f)
        data = np.fromfile(f, dtype=dtype, count=math.prod(shape))
    return data.reshape(shape, order="F" if fortran_order else "C")


class MaskStore:
    """Handle to a materialised mask database rooted at ``root``."""

    def __init__(self, root: str, io_delay_ms: float = 0.0):
        self.root = os.path.abspath(root)
        #: Simulated-EBS per-mask load latency (ms), slept by every
        #: :meth:`load_mask` (DESIGN.md §4). 0 = raw local I/O.
        self.io_delay_ms = io_delay_ms
        #: Mask files :meth:`load_mask` has opened; executors report the
        #: increase over a query as ``QueryStats.masks_opened``.
        self.masks_opened = 0
        self._opened_lock = threading.Lock()
        spec_path = os.path.join(self.root, "_SPEC.json")
        with open(spec_path) as f:
            d = json.load(f)
        self.spec = DatasetSpec(
            name=d["name"],
            n_images=d["n_images"],
            width=d["width"],
            height=d["height"],
            model_ids=tuple(d["model_ids"]),
            seed=d["seed"],
        )
        self._meta_pdf: pd.DataFrame | None = None

    # -- paths ------------------------------------------------------------
    @property
    def masks_dir(self) -> str:
        return os.path.join(self.root, "masks")

    @property
    def metadata_path(self) -> str:
        return os.path.join(self.root, "metadata")

    def index_path(self, cfg) -> str:
        return os.path.join(self.root, cfg.tag())

    def mask_path(self, mask_id: int) -> str:
        return os.path.join(self.masks_dir, f"{int(mask_id)}.npy")

    # -- access -----------------------------------------------------------
    def n_masks(self) -> int:
        return self.spec.n_masks

    def metadata(self, spark: SparkSession) -> DataFrame:
        """The ``MasksDatabaseView`` relational columns as a DataFrame."""
        return spark.read.parquet(self.metadata_path)

    def metadata_pandas(self, spark: SparkSession) -> pd.DataFrame:
        """Driver-cached metadata (small: one row per mask)."""
        if self._meta_pdf is None:
            self._meta_pdf = (
                self.metadata(spark).toPandas().sort_values("mask_id").reset_index(drop=True)
            )
        return self._meta_pdf

    def load_mask(self, mask_id: int) -> np.ndarray:
        """Read one mask from disk: the unit of I/O every evaluated system
        is charged for. Thread-safe. A missing or unreadable file raises
        ``OSError`` naming the mask."""
        if self.io_delay_ms:
            time.sleep(self.io_delay_ms / 1000.0)
        path = self.mask_path(mask_id)
        try:
            mask = _read_npy(path)
        except (OSError, ValueError) as e:
            raise OSError(f"cannot load mask {int(mask_id)} from {path}: {e}") from e
        with self._opened_lock:
            self.masks_opened += 1
        return mask

    def raw_bytes(self) -> int:
        """Uncompressed dataset size: 4 B per pixel (float32)."""
        return 4 * self.spec.n_masks * self.spec.width * self.spec.height


def _metadata_pdf(spec: DatasetSpec, masks_dir: str) -> pd.DataFrame:
    rows = []
    for image_id in range(spec.n_images):
        bbox = synth.object_bbox(spec, image_id)
        cls = synth.pred_class(spec, image_id)
        for model_id in spec.model_ids:
            mid = spec.mask_id(image_id, model_id)
            rows.append(
                (
                    mid,
                    image_id,
                    model_id,
                    SALIENCY,
                    spec.width,
                    spec.height,
                    os.path.join(masks_dir, f"{mid}.npy"),
                    bbox[0],
                    bbox[1],
                    bbox[2],
                    bbox[3],
                    cls,
                )
            )
    return pd.DataFrame(rows, columns=METADATA_COLUMNS)


def build_store(spark: SparkSession, spec: DatasetSpec, root: str) -> MaskStore:
    """Materialise ``spec`` under ``root`` (idempotent: reuses a complete
    existing store with the same spec) and return a :class:`MaskStore`."""
    root = os.path.abspath(root)
    spec_path = os.path.join(root, "_SPEC.json")
    done_path = os.path.join(root, "_DONE")
    spec_dict = {
        "name": spec.name,
        "n_images": spec.n_images,
        "width": spec.width,
        "height": spec.height,
        "model_ids": list(spec.model_ids),
        "seed": spec.seed,
    }
    if os.path.exists(done_path) and os.path.exists(spec_path):
        with open(spec_path) as f:
            if json.load(f) == spec_dict:
                return MaskStore(root)

    masks_dir = os.path.join(root, "masks")
    os.makedirs(masks_dir, exist_ok=True)
    with open(spec_path, "w") as f:
        json.dump(spec_dict, f)

    meta = _metadata_pdf(spec, masks_dir)
    sdf = spark.createDataFrame(meta, schema=_META_SCHEMA)
    sdf.write.mode("overwrite").parquet(os.path.join(root, "metadata"))

    # Distributed mask materialisation: each task regenerates its masks
    # deterministically from (seed, image_id, mask_id) and writes them.
    spec_d = spec_dict

    def _write(batches):
        local_spec = DatasetSpec(
            name=spec_d["name"],
            n_images=spec_d["n_images"],
            width=spec_d["width"],
            height=spec_d["height"],
            model_ids=tuple(spec_d["model_ids"]),
            seed=spec_d["seed"],
        )
        for pdf in batches:
            written = []
            for mid, img, model, path in zip(
                pdf["mask_id"], pdf["image_id"], pdf["model_id"], pdf["path"]
            ):
                mask = synth.generate_mask(local_spec, int(img), int(model))
                np.save(path, mask)
                written.append(int(mid))
            yield pd.DataFrame({"mask_id": written})

    n_part = max(1, min(spark.sparkContext.defaultParallelism * 2, spec.n_masks))
    n_written = (
        sdf.select("mask_id", "image_id", "model_id", "path")
        .repartition(n_part)
        .mapInPandas(_write, schema="mask_id long")
        .count()
    )
    if n_written != spec.n_masks:
        raise RuntimeError(f"wrote {n_written} masks, expected {spec.n_masks}")
    with open(done_path, "w") as f:
        f.write("ok")
    return MaskStore(root)
