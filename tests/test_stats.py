"""The statistics memo is keyed by the data a relation reads, not by the
name of its source."""
import time
import uuid

import pytest

from repro import harness
from repro.core.cq import R
from repro.optimizer.stats import clear_cache, rel_stats
from repro.workloads import all_queries

QUERIES = all_queries()


@pytest.fixture(scope="module")
def sgpb_tables(quiet_spark):
    # a scale at which sgpb-q2a's filtered triangle bag and
    # sgpb-q2b's unfiltered one differ in size (both are empty at 0.01)
    return harness.tables_for(quiet_spark, "sgpb", scale=0.05)


@pytest.fixture
def prepared(sgpb_tables):
    """Runs ``harness.prepare`` on the SGPB tables; unpersists the bags."""
    preps = []

    def get(name):
        preps.append(harness.prepare(QUERIES[name], sgpb_tables))
        return preps[-1]

    yield get
    for prep in preps:
        for name, df in prep.tables.items():
            if name not in sgpb_tables:
                df.unpersist(blocking=True)


def _bag0(prep):
    return next(r for r in prep.cq.relations if r.source == "__bag0")


def _jobs_started_by(spark, fn) -> list[int]:
    """Ids of the Spark jobs ``fn()`` starts. Job events reach the status
    tracker asynchronously but in order, so once a marker job run after
    ``fn`` is visible, every job ``fn`` started is visible too."""
    sc = spark.sparkContext
    group, marker = uuid.uuid4().hex, uuid.uuid4().hex
    try:
        sc.setJobGroup(group, "")
        fn()
        sc.setJobGroup(marker, "")
        spark.range(1).collect()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 30
    while not tracker.getJobIdsForGroup(marker):
        assert time.monotonic() < deadline, "marker job never reported"
        time.sleep(0.05)
    return list(tracker.getJobIdsForGroup(group))


def test_same_source_name_different_data(quiet_spark):
    rel = R("E", "e", {"a": "src", "b": "dst"})
    for n in (100, 100_000):
        e = quiet_spark.range(n).selectExpr("id AS src", "id % 7 AS dst")
        assert rel_stats({"e": e}, rel, exact=False).rows == n


def test_bags_of_different_queries_get_their_own_stats(prepared):
    """sgpb-q2a's filtered ``__bag0`` and sgpb-q2b's unfiltered one share the
    source name, predicate and columns, but not their rows."""
    preps = [prepared("sgpb-q2a"), prepared("sgpb-q2b")]
    rows = [p.tables["__bag0"].count() for p in preps]
    assert rows[0] < rows[1]
    for prep, n in zip(preps, rows):
        assert rel_stats(prep.tables, _bag0(prep), exact=False).rows == n


def test_rebuilt_bag_hits_memo_without_a_spark_job(quiet_spark, prepared):
    clear_cache()
    first, rebuilt = prepared("sgpb-q2b"), prepared("sgpb-q2b")
    assert first.tables["__bag0"] is not rebuilt.tables["__bag0"]
    out = {}

    def cold():
        out["cold"] = rel_stats(first.tables, _bag0(first), exact=False)

    def warm():
        out["warm"] = rel_stats(rebuilt.tables, _bag0(rebuilt), exact=False)

    assert _jobs_started_by(quiet_spark, cold)  # the check sees jobs
    assert _jobs_started_by(quiet_spark, warm) == []
    assert out["warm"] == out["cold"]
