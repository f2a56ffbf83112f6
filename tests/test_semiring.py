"""Semiring definitions (§2.1)."""
import pytest

from repro.core.semiring import (
    BOOL, MAX_PLUS, MAX_PROD, MIN_PROD, SUM_PROD, Semiring
)


@pytest.mark.parametrize(
    "sr,plus_fn,times_op",
    [
        (SUM_PROD, "sum", "*"),
        (MIN_PROD, "min", "*"),
        (MAX_PROD, "max", "*"),
        (MAX_PLUS, "max", "+"),
    ],
)
def test_sql_realisations(sr, plus_fn, times_op):
    assert sr.plus_fn == plus_fn
    assert sr.times_op == times_op
    assert not sr.boolean


def test_boolean_semiring_is_flagged():
    assert BOOL.boolean


def test_identity_aggregate_sum_prod_is_count():
    # SUM over virtual ⊗-identity (1) annotations is a plain count
    assert SUM_PROD.times_identity_aggregate() == "count(*)"


@pytest.mark.parametrize("sr", [MIN_PROD, MAX_PROD, MAX_PLUS])
def test_identity_aggregate_minmax_is_constant(sr):
    # ⊕ over ⊗-identities is the identity: 1 for ⊗=mul, 0 for ⊗=add
    expected = {MIN_PROD: "min(1)", MAX_PROD: "max(1)", MAX_PLUS: "max(0)"}[sr]
    assert sr.times_identity_aggregate() == expected


def test_times_identity_and_count_predicate():
    assert (SUM_PROD.one, MIN_PROD.one, MAX_PROD.one, MAX_PLUS.one) == (1, 1, 1, 0)
    assert SUM_PROD.plus_counts_ones
    assert not any(sr.plus_counts_ones for sr in (MIN_PROD, MAX_PROD, MAX_PLUS))


def test_unknown_plus_rejected():
    with pytest.raises(KeyError):
        Semiring("bad", plus="avg").plus_fn  # AVG is not a semiring ⊕


def test_semirings_are_hashable_and_frozen():
    assert len({SUM_PROD, MIN_PROD, MAX_PROD, MAX_PLUS, BOOL}) == 5
    with pytest.raises(Exception):
        SUM_PROD.plus = "max"
