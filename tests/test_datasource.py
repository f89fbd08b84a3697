"""``maskstore`` DataSourceV2 tests: schema, round-trip, and Catalyst
filter pushdown."""
import numpy as np
import pytest
from pyspark.sql import functions as F
from pyspark.sql.datasource import EqualTo, GreaterThan, In, LessThanOrEqual, StringContains

from repro.maskstore import datasource as ds


class TestScan:
    def test_count_all(self, spark, tiny_store):
        ds.register(spark)
        assert ds.scan(spark, tiny_store.root).count() == tiny_store.n_masks()

    def test_schema(self, spark, tiny_store):
        ds.register(spark)
        df = ds.scan(spark, tiny_store.root)
        assert [f.name for f in df.schema.fields] == [
            "mask_id", "image_id", "model_id", "height", "width", "values",
        ]

    def test_values_roundtrip(self, spark, tiny_store):
        ds.register(spark)
        row = (
            ds.scan(spark, tiny_store.root)
            .where(F.col("mask_id") == 7)
            .collect()[0]
        )
        got = np.array(row.values, dtype=np.float32).reshape(row.height, row.width)
        assert np.array_equal(got, tiny_store.load_mask(7))

    def test_isin_filter(self, spark, tiny_store):
        ds.register(spark)
        ids = [0, 5, 9, 44]
        rows = (
            ds.scan(spark, tiny_store.root)
            .where(F.col("mask_id").isin(ids))
            .select("mask_id")
            .collect()
        )
        assert sorted(r.mask_id for r in rows) == ids

    def test_model_filter(self, spark, tiny_store):
        ds.register(spark)
        n = ds.scan(spark, tiny_store.root).where(F.col("model_id") == 1).count()
        assert n == tiny_store.spec.n_images

    def test_empty_result(self, spark, tiny_store):
        ds.register(spark)
        assert (
            ds.scan(spark, tiny_store.root).where(F.col("mask_id") == 10**9).count() == 0
        )

    def test_missing_path_option_raises(self):
        with pytest.raises(ValueError):
            ds.MaskStoreReader({})


class TestPushdown:
    """Direct reader-level tests: supported filters are consumed and
    prune the planned partitions (i.e. file reads)."""

    def _reader(self, tiny_store, **opts):
        return ds.MaskStoreReader({"path": tiny_store.root, **opts})

    def test_in_filter_consumed_and_prunes(self, tiny_store):
        r = self._reader(tiny_store)
        rest = list(r.pushFilters([In(("mask_id",), (1, 2, 3))]))
        assert rest == []
        parts = r.partitions()
        assert sum(len(p.mask_ids) for p in parts) == 3

    def test_equalto_model(self, tiny_store):
        r = self._reader(tiny_store)
        rest = list(r.pushFilters([EqualTo(("model_id",), 2)]))
        assert rest == []
        assert sum(len(p.mask_ids) for p in r.partitions()) == tiny_store.spec.n_images

    def test_range_filters(self, tiny_store):
        r = self._reader(tiny_store)
        rest = list(
            r.pushFilters([GreaterThan(("mask_id",), 9), LessThanOrEqual(("mask_id",), 20)])
        )
        assert rest == []
        assert sum(len(p.mask_ids) for p in r.partitions()) == 11

    def test_unsupported_filter_returned(self, tiny_store):
        r = self._reader(tiny_store)
        unsupported = StringContains(("path",), "foo")
        rest = list(r.pushFilters([unsupported, EqualTo(("model_id",), 1)]))
        assert rest == [unsupported]

    def test_unsupported_column_returned(self, tiny_store):
        r = self._reader(tiny_store)
        f = EqualTo(("height",), 32)
        assert list(r.pushFilters([f])) == [f]

    def test_conjunction_of_filters(self, tiny_store):
        r = self._reader(tiny_store)
        list(r.pushFilters([In(("mask_id",), tuple(range(10))), EqualTo(("model_id",), 1)]))
        ids = [m for p in r.partitions() for m in p.mask_ids]
        meta = ds._read_metadata_pandas(tiny_store.root)
        expect = meta[(meta["mask_id"] < 10) & (meta["model_id"] == 1)]["mask_id"]
        assert sorted(ids) == sorted(int(v) for v in expect)

    def test_empty_selection_single_empty_partition(self, tiny_store):
        r = self._reader(tiny_store)
        list(r.pushFilters([EqualTo(("mask_id",), -1)]))
        parts = r.partitions()
        assert len(parts) == 1 and parts[0].mask_ids == ()

    def test_numpartitions_option(self, tiny_store):
        r = self._reader(tiny_store, numpartitions="4")
        parts = r.partitions()
        assert len(parts) == 4
        assert sum(len(p.mask_ids) for p in parts) == tiny_store.n_masks()

    def test_partitions_cover_each_mask_once(self, tiny_store):
        r = self._reader(tiny_store)
        ids = [m for p in r.partitions() for m in p.mask_ids]
        assert sorted(ids) == list(range(tiny_store.n_masks()))

    def test_io_delay_applied(self, spark, tiny_store):
        """Simulated-EBS mode: per-mask latency slows the scan."""
        import time

        ds.register(spark)
        t0 = time.perf_counter()
        ds.scan(spark, tiny_store.root, io_delay_ms=300).where(F.col("mask_id") == 0).collect()
        assert time.perf_counter() - t0 >= 0.3
