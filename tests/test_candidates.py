"""Tests for candidate sets, ancestor pairs, and object_info."""
import numpy as np
import pandas as pd
import pytest

from repro.core.candidates import (
    candidate_sets,
    hierarchical_ancestor_pairs,
    numeric_ancestor_pairs_df,
    object_info,
)
from repro.hierarchy import Hierarchy
from repro.hierarchy.tree import ROOT


@pytest.fixture()
def h():
    return Hierarchy(
        {ROOT: None, "USA": ROOT, "NY": "USA", "LibertyIsland": "NY", "LA": "USA"}
    )


@pytest.fixture()
def recs():
    return pd.DataFrame(
        [
            ("o1", "s1", "NY"),
            ("o1", "s2", "LibertyIsland"),
            ("o1", "s3", "LA"),
            ("o2", "s1", "LA"),
            ("o2", "s2", "NY"),
        ],
        columns=["object", "source", "value"],
    )


class TestCandidateSets:
    def test_distinct_sorted(self, recs):
        cand = candidate_sets(recs)
        assert len(cand) == 5
        assert list(cand.columns) == ["object", "value"]
        assert cand.equals(cand.sort_values(["object", "value"]).reset_index(drop=True))

    def test_dedupes(self):
        recs = pd.DataFrame(
            [("o1", "s1", "NY"), ("o1", "s2", "NY")],
            columns=["object", "source", "value"],
        )
        assert len(candidate_sets(recs)) == 1


class TestAncestorPairs:
    def test_within_object_only(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        # o1 has LibertyIsland with candidate ancestor NY; o2 has none
        pairs = set(map(tuple, anc.to_numpy()))
        assert ("o1", "LibertyIsland", "NY") in pairs
        assert not any(o == "o2" for o, _, _ in pairs)

    def test_root_never_appears(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        assert ROOT not in set(anc["anc"])

    def test_empty_candidates(self, h):
        empty = pd.DataFrame(columns=["object", "value"])
        anc = hierarchical_ancestor_pairs(empty, h)
        assert len(anc) == 0
        assert list(anc.columns) == ["object", "value", "anc"]

    def test_numeric_pairs(self):
        cand = pd.DataFrame(
            {"object": ["o1"] * 3, "value": ["605.196", "605.2", "605"]}
        )
        anc = numeric_ancestor_pairs_df(cand)
        pairs = set(map(tuple, anc.to_numpy()))
        assert ("o1", "605.196", "605.2") in pairs
        assert ("o1", "605.2", "605") in pairs

    def test_numeric_pairs_scoped_per_object(self):
        cand = pd.DataFrame(
            {"object": ["o1", "o2"], "value": ["605.196", "605"]}
        )
        assert len(numeric_ancestor_pairs_df(cand)) == 0


class TestObjectInfo:
    def test_counts(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        info = object_info(recs, anc)
        o1 = info["o1"]
        assert o1["S"] == 3.0
        assert o1["oh"] is True
        li = o1["values"].index("LibertyIsland")
        ny = o1["values"].index("NY")
        assert (li, ny) in o1["anc"]
        assert o1["cnt"][ny] == 1.0
        assert o1["gen_cnt"][li] == 1.0  # NY claimed once, is ancestor of LI

    def test_flat_object(self, recs, h):
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        info = object_info(recs, anc)
        assert info["o2"]["oh"] is False
        assert np.all(info["o2"]["gen_cnt"] == 0.0)
