"""Operator-level executor semantics (Table 1 → Catalyst), checked against
DuckDB on small synthetic inputs: annotated projections, ⊗-combining joins,
semi-joins, finalize variants, and every supported semiring."""
import pandas as pd
import pytest

from repro.core._emit import Rules
from repro.core.cq import CQ, R
from repro.core.executor import execute, native_df, native_plan, scan_df
from repro.core.join_tree import root_tree
from repro.core.semiring import BOOL, MAX_PLUS, MAX_PROD, MIN_PROD, SUM_PROD
from repro.core.yannakakis_plus import plan_yannakakis_plus
from repro.optimizer.rules import eliminate_cycles
from repro.oracle import assert_equivalent

EDGES = pd.DataFrame(
    {
        "src": [1, 1, 2, 2, 3, 3, 4, 5, 1, 2],
        "dst": [2, 3, 3, 4, 4, 5, 5, 1, 2, 3],  # includes a duplicate (1,2),(2,3)
        "w": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    }
)


@pytest.fixture(scope="module")
def tables(quiet_spark):
    df = quiet_spark.createDataFrame(EDGES).cache()
    df.count()
    return {"e": df}


def two_hop(semiring, output, annots=(None, None)):
    return CQ(
        (R("E1", "e", {"a": "src", "b": "dst"}, annot=annots[0]),
         R("E2", "e", {"b": "src", "c": "dst"}, annot=annots[1])),
        output, semiring, name="t",
    )


def run_plus(cq, tables, rules=Rules()):
    tree = root_tree(cq, [("E1", "E2")], "E1")
    return execute(plan_yannakakis_plus(cq, tree, rules=rules), tables)


# ------------------------------------------------------------- semirings
@pytest.mark.parametrize(
    "semiring,annots",
    [
        (SUM_PROD, (None, None)),       # COUNT(*)
        (SUM_PROD, ("w", "w")),         # SUM(w1*w2)
        (SUM_PROD, ("w", None)),        # SUM(w1)
        (MIN_PROD, ("w", "w")),         # MIN(w1*w2)
        (MAX_PROD, ("w", "w")),         # MAX(w1*w2)
        (MAX_PLUS, ("w", "w")),         # MAX(w1+w2)
        (MAX_PLUS, ("w", None)),        # MAX(w1+0)
        (MAX_PLUS, (None, None)),       # MAX(0+0)
    ],
)
@pytest.mark.parametrize("rules", [Rules(True, True), Rules(False, False)])
def test_semiring_aggregates(tables, semiring, annots, rules):
    cq = two_hop(semiring, ("a",), annots)
    assert_equivalent(run_plus(cq, tables, rules), cq.to_sql(), e=EDGES)


def test_global_aggregate_empty_output(tables):
    cq = two_hop(SUM_PROD, ())
    df = run_plus(cq, tables)
    assert_equivalent(df, cq.to_sql(), e=EDGES)
    assert df.count() == 1


def test_boolean_distinct(tables):
    cq = two_hop(BOOL, ("a", "c"))
    assert_equivalent(run_plus(cq, tables), cq.to_sql(), e=EDGES)


def test_boolean_full_enumeration_keeps_duplicates(tables):
    cq = two_hop(BOOL, ("a", "b", "c"))
    df = run_plus(cq, tables)
    assert_equivalent(df, cq.to_sql(), e=EDGES)
    # the duplicated edges must duplicate join rows (bag semantics)
    pdf = df.toPandas()
    assert pdf.duplicated().any()


def test_full_query_with_annotation_product(tables):
    cq = two_hop(SUM_PROD, ("a", "b", "c"), ("w", "w"))
    assert_equivalent(run_plus(cq, tables), cq.to_sql(), e=EDGES)


def test_key_covered_output_keeps_times_identity(tables):
    # the key w makes every output group a singleton, so Finalize skips the
    # group-by; the unannotated MAX_PLUS value is still the ⊗-identity 0
    cq = CQ((R("E", "e", {"w": "w", "a": "src"}, keys=[("w",)]),), ("w",), MAX_PLUS)
    plan = plan_yannakakis_plus(cq, root_tree(cq, [], "E"))
    assert not plan.steps[-1].dedup
    assert_equivalent(execute(plan, tables), cq.to_sql(), e=EDGES)


# ----------------------------------------------------------------- scans
def test_scan_renames_and_filters(tables):
    rel = R("E1", "e", {"a": "src", "b": "dst"}, predicate="src <= 2", annot="w")
    df = scan_df(tables, rel, with_annot=True)
    assert set(df.columns) == {"a", "b", "__v"}
    assert df.count() == 6


def test_scan_without_annotation(tables):
    rel = R("E1", "e", {"a": "src"}, annot="w")
    df = scan_df(tables, rel, with_annot=False)
    assert df.columns == ["a"]


# ------------------------------------------------------------ native path
@pytest.mark.parametrize(
    "semiring,output,annots",
    [
        (SUM_PROD, ("a",), ("w", "w")),
        (SUM_PROD, (), (None, None)),
        (BOOL, ("a", "c"), (None, None)),
        (MIN_PROD, ("c",), ("w", None)),
    ],
)
def test_native_matches_oracle(tables, semiring, output, annots):
    cq = two_hop(semiring, output, annots)
    assert_equivalent(native_df(cq, tables), cq.to_sql(), e=EDGES)


def test_native_eq_filters(tables):
    cq = CQ(
        (R("E1", "e", {"a": "src", "b": "dst"}),
         R("E2", "e", {"b2": "src", "c": "dst"})),
        ("a",), SUM_PROD, eq_filters=(("b", "b2"),), name="eqf",
    )
    # E1 × E2 filtered by b = b2 ≡ the 2-hop count
    ref = two_hop(SUM_PROD, ("a",))
    assert_equivalent(native_df(cq, tables), ref.to_sql(), e=EDGES)


def test_native_plan_joins_in_query_order():
    # relations listed so that query order would cross-join E3 with E1
    cq = CQ(
        (R("E1", "e", {"a": "src", "b": "dst"}),
         R("E3", "e", {"c": "src", "d": "dst"}, annot="w"),
         R("E2", "e", {"b": "src", "c": "dst"})),
        ("a",), SUM_PROD, name="path3",
    )
    lines = native_plan(cq).describe().splitlines()
    assert [ln.split(" <- ")[1] for ln in lines] == [
        "scan e",
        "scan e",
        "join[b] E1@0 E2@1",
        "scan e+v",
        "join[c] join@2 E3@3",
        "finalize[agg:a] join@4",
    ]


def test_native_plan_boolean_distinct():
    lines = native_plan(two_hop(BOOL, ("a", "c"))).describe().splitlines()
    assert "+v" not in "\n".join(lines)
    assert lines[-1].split(" <- ")[1].startswith("finalize[distinct:a,c] ")


def test_native_plan_filters_cycle_equalities_before_finalize():
    square = CQ(
        (R("C", "c", ["ck", "nk"], keys=[("ck",)]),
         R("O", "o", ["ok", "ck"], keys=[("ok",)]),
         R("L", "l", ["ok", "sk"]),
         R("S", "s", ["sk", "nk"], keys=[("sk",)]),
         R("N", "n", ["nk", "nname"], keys=[("nk",)])),
        ("nname",), name="sq",
    )
    cq = eliminate_cycles(square)
    (a, b), = cq.eq_filters
    lines = native_plan(cq).describe().splitlines()
    assert lines[-2].split(" <- ")[1].startswith(f"filter[{a} = {b}] ")
    assert lines[-1].split(" <- ")[1].startswith("finalize[agg:nname] ")


def test_self_join_same_source_independent_scans(tables):
    cq = two_hop(SUM_PROD, ("a",))
    df = native_df(cq, tables)
    assert_equivalent(df, cq.to_sql(), e=EDGES)


# --------------------------------------------------------- empty results
def test_empty_join_aggregate(tables):
    cq = CQ(
        (R("E1", "e", {"a": "src", "b": "dst"}, predicate="src > 999"),
         R("E2", "e", {"b": "src", "c": "dst"})),
        ("a",), SUM_PROD, name="empty",
    )
    df = run_plus(cq, tables)
    assert df.count() == 0
    assert_equivalent(df, cq.to_sql(), e=EDGES)
