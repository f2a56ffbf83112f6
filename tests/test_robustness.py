"""Robustness dimensions of §7.2.4 / Figure 11 at test scale: varying
selectivity and data scale never changes correctness, and the optimizer's
choices remain valid plans."""
import pytest

from repro.core.cq import CQ, R
from repro.core.executor import execute, native_df
from repro.core.semiring import SUM_PROD
from repro.oracle import assert_equivalent
from repro.optimizer.enumerate import choose_plan


@pytest.fixture(scope="module")
def graph(quiet_spark):
    from repro.datagen import graph as g

    df = g.edges(quiet_spark, n_nodes=300, n_edges=3000, alpha=0.8, beta=0.5,
                 seed=3).cache()
    df.count()
    return df


@pytest.mark.parametrize("threshold", [10, 60, 150, 300])
def test_selectivity_sweep(quiet_spark, graph, threshold):
    """Figure 11(a): vary the predicate selectivity; every plan stays
    correct and the optimizer adapts the plan choice."""
    cq = CQ(
        (
            R("E1", "e", {"a": "src", "b": "dst"}, predicate=f"src <= {threshold}"),
            R("E2", "e", {"b": "src", "c": "dst"}),
            R("E3", "e", {"c": "src", "d": "dst"}),
        ),
        ("a",), SUM_PROD, name=f"sel{threshold}",
    )
    tables = {"e": graph}
    pdf = graph.toPandas()
    choice = choose_plan(cq, tables)
    assert_equivalent(execute(choice.plan, tables), cq.to_sql(), e=pdf)
    assert_equivalent(native_df(cq, tables), cq.to_sql(), e=pdf)


@pytest.mark.parametrize("n_edges", [500, 2000, 5000])
def test_scale_sweep(quiet_spark, n_edges):
    """Figure 11(b): runtime scale sweep — correctness at several scales."""
    from repro.datagen import graph as g

    df = g.edges(quiet_spark, n_nodes=200, n_edges=n_edges, alpha=0.7, seed=5)
    cq = CQ(
        (R("E1", "e", {"a": "src", "b": "dst"}),
         R("E2", "e", {"b": "src", "c": "dst"})),
        ("a",), SUM_PROD, name=f"scale{n_edges}",
    )
    tables = {"e": df}
    choice = choose_plan(cq, tables)
    assert_equivalent(execute(choice.plan, tables), cq.to_sql(), e=df.toPandas())


def test_selective_predicate_changes_plan_choice(quiet_spark, graph):
    """With a very selective predicate the optimizer should keep semi-join
    reductions (they pay); with none it should drop them (§7.2.4)."""
    tables = {"e": graph}

    def q(pred):
        return CQ(
            (
                R("E1", "e", {"a": "src", "b": "dst"}, predicate=pred),
                R("E2", "e", {"b": "src", "c": "dst"}),
                R("E3", "e", {"c": "src", "d": "dst"}),
            ),
            ("a", "d"), SUM_PROD, name=f"p{bool(pred)}",
        )

    loose = choose_plan(q(None), tables)
    tight = choose_plan(q("src <= 3"), tables)
    assert tight.plan.n_semijoins() >= loose.plan.n_semijoins()
