"""``maskstore`` Python DataSourceV2 with Catalyst predicate pushdown.

A DataFrame view of a mask store for Spark users: Catalyst's V2
pushdown rule hands the query's predicates to
:meth:`MaskStoreReader.pushFilters`; filters on the relational columns
(``mask_id``, ``image_id``, ``model_id``) are consumed there and applied
to the *metadata* before any mask file is opened, so a scan like

    spark.read.format("maskstore").options(path=root).load()
         .where(col("mask_id").isin(candidates))

opens exactly the candidate ``.npy`` files — the paper's guarantee that
pruned masks are never loaded from disk (§3.2), expressed through the
Catalyst extension point available to Python sources (see DESIGN.md §6
for why a JVM ``Rule[LogicalPlan]`` is out of scope). The query engine
itself verifies candidates on the driver (:mod:`repro.core.verify`).

Rows are produced as Arrow ``RecordBatch`` objects with the mask pixels
flattened into an ``array<float>`` column (row-major, ``height`` x
``width``).

Register once per session with :func:`register`.
"""
from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from typing import Iterator, List

from pyspark.sql import SparkSession
from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    Filter,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    InputPartition,
    LessThan,
    LessThanOrEqual,
)
from pyspark.sql.types import (
    ArrayType,
    FloatType,
    IntegerType,
    LongType,
    StructField,
    StructType,
)

SCHEMA = StructType(
    [
        StructField("mask_id", LongType()),
        StructField("image_id", LongType()),
        StructField("model_id", IntegerType()),
        StructField("height", IntegerType()),
        StructField("width", IntegerType()),
        StructField("values", ArrayType(FloatType())),
    ]
)

_FILTERABLE = {"mask_id", "image_id", "model_id"}


@dataclass
class MaskPartition(InputPartition):
    """One unit of parallel work: a slice of (mask_id, path, ...) rows."""

    mask_ids: tuple
    image_ids: tuple
    model_ids: tuple
    paths: tuple
    height: int
    width: int


def _read_metadata_pandas(root: str):
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(root, "metadata", "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no metadata parquet under {root}/metadata")
    import pyarrow as pa

    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


class MaskStoreReader(DataSourceReader):
    """Reader with relational-column filter pushdown and metadata-level
    file pruning."""

    def __init__(self, options):
        self.root = options.get("path")
        if not self.root:
            raise ValueError("maskstore requires .option('path', <store root>)")
        self.n_partitions = int(options.get("numpartitions", 16))
        # Simulated-EBS mode (DESIGN.md §3): per-mask load latency in ms,
        # reproducing the paper's provisioned-bandwidth disk where mask
        # loading dominates query time. 0 (default) = raw local I/O.
        self.io_delay_ms = float(options.get("iodelayms", 0.0))
        self._pushed: List[Filter] = []

    # -- Catalyst pushdown ------------------------------------------------
    def pushFilters(self, filters: List[Filter]) -> Iterator[Filter]:
        """Consume supported filters; return the rest for Spark to apply."""
        for f in filters:
            attr = getattr(f, "attribute", None)
            col = attr[0] if attr and len(attr) == 1 else None
            if col in _FILTERABLE and isinstance(
                f,
                (In, EqualTo, GreaterThan, GreaterThanOrEqual, LessThan, LessThanOrEqual),
            ):
                self._pushed.append(f)
            else:
                yield f

    def _apply_pushed(self, meta):
        import numpy as np

        keep = np.ones(len(meta), dtype=bool)
        for f in self._pushed:
            col = meta[f.attribute[0]]
            if isinstance(f, In):
                keep &= col.isin(list(f.value)).to_numpy()
            elif isinstance(f, EqualTo):
                keep &= (col == f.value).to_numpy()
            elif isinstance(f, GreaterThan):
                keep &= (col > f.value).to_numpy()
            elif isinstance(f, GreaterThanOrEqual):
                keep &= (col >= f.value).to_numpy()
            elif isinstance(f, LessThan):
                keep &= (col < f.value).to_numpy()
            elif isinstance(f, LessThanOrEqual):
                keep &= (col <= f.value).to_numpy()
        return meta[keep]

    # -- planning ---------------------------------------------------------
    def partitions(self):
        meta = self._apply_pushed(_read_metadata_pandas(self.root))
        n = len(meta)
        if n == 0:
            return [MaskPartition((), (), (), (), 0, 0)]
        height = int(meta["height"].iat[0])
        width = int(meta["width"].iat[0])
        k = max(1, min(self.n_partitions, n))
        parts = []
        bounds = [round(i * n / k) for i in range(k + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                continue
            sl = meta.iloc[lo:hi]
            parts.append(
                MaskPartition(
                    tuple(int(v) for v in sl["mask_id"]),
                    tuple(int(v) for v in sl["image_id"]),
                    tuple(int(v) for v in sl["model_id"]),
                    tuple(sl["path"]),
                    height,
                    width,
                )
            )
        return parts

    # -- execution (runs on workers) ---------------------------------------
    def read(self, partition: MaskPartition):
        import time

        import numpy as np
        import pyarrow as pa

        if not partition.mask_ids:
            return
        delay_s = self.io_delay_ms / 1000.0
        chunk = 64  # masks per Arrow batch: bounded worker memory
        ids = partition.mask_ids
        for lo in range(0, len(ids), chunk):
            hi = min(lo + chunk, len(ids))
            if delay_s:
                time.sleep(delay_s * (hi - lo))
            values = [
                np.load(p).ravel().astype(np.float32)
                for p in partition.paths[lo:hi]
            ]
            yield pa.RecordBatch.from_arrays(
                [
                    pa.array(ids[lo:hi], type=pa.int64()),
                    pa.array(partition.image_ids[lo:hi], type=pa.int64()),
                    pa.array(partition.model_ids[lo:hi], type=pa.int32()),
                    pa.array([partition.height] * (hi - lo), type=pa.int32()),
                    pa.array([partition.width] * (hi - lo), type=pa.int32()),
                    pa.array(values, type=pa.list_(pa.float32())),
                ],
                names=[f.name for f in SCHEMA.fields],
            )


class MaskStoreDataSource(DataSource):
    """``format("maskstore")`` — scans a :class:`MaskStore` directory."""

    @classmethod
    def name(cls) -> str:
        return "maskstore"

    def schema(self):
        return SCHEMA

    def reader(self, schema) -> MaskStoreReader:
        return MaskStoreReader(self.options)


_REGISTERED: set[int] = set()


def register(spark: SparkSession) -> None:
    """Register the source and enable Python-source filter pushdown.
    Idempotent per session: re-registration and conf churn mid-workload
    measurably perturb query planning, so both happen exactly once."""
    key = id(spark)
    if key in _REGISTERED:
        return
    spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    spark.dataSource.register(MaskStoreDataSource)
    _REGISTERED.add(key)


def scan(
    spark: SparkSession,
    root: str,
    n_partitions: int | None = None,
    io_delay_ms: float = 0.0,
):
    """Convenience: DataFrame over the store at ``root``; restrict it
    with ``.where(...)`` on ``mask_id``/``image_id``/``model_id``, which
    Catalyst pushes into the reader."""
    r = spark.read.format("maskstore").option("path", root)
    if n_partitions is not None:
        r = r.option("numpartitions", str(n_partitions))
    if io_delay_ms:
        r = r.option("iodelayms", str(io_delay_ms))
    return r.load()
