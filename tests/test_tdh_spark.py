"""Spark TDH engine: equivalence with the reference engine + oracle checks."""
import re

import numpy as np
import pandas as pd
import pytest

from repro.core.candidates import candidate_sets, hierarchical_ancestor_pairs
from repro.core.tdh_local import TDH
from repro.core.tdh_spark import TDHSpark
from repro.datagen.truthdata import birthplaces_lite, heritages_lite
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def problem():
    ds = birthplaces_lite(sf=0.01, seed=0)
    cand = candidate_sets(ds.records)
    anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
    answers = pd.DataFrame(
        [
            (o, f"w{i % 3}", v)
            for i, (o, v) in enumerate(
                cand.groupby("object").head(1).head(12).to_numpy()
            )
        ],
        columns=["object", "worker", "value"],
    )
    return ds, cand, anc, answers


class TestSparkLocalEquivalence:
    def test_sources_only(self, spark, problem):
        ds, cand, anc, _ = problem
        loc = TDH(max_iter=40).fit(ds.records, None, anc)
        sp = TDHSpark(spark, max_iter=40).fit(
            spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
        )
        m = loc.mu.merge(sp.mu, on=["object", "value"], suffixes=("_l", "_s"))
        assert len(m) == len(loc.mu)
        assert float((m["mu_l"] - m["mu_s"]).abs().max()) < 1e-9
        p = loc.phi.merge(sp.phi, on="source", suffixes=("_l", "_s"))
        for c in ("phi1", "phi2", "phi3"):
            assert float((p[f"{c}_l"] - p[f"{c}_s"]).abs().max()) < 1e-9
        t = loc.truths.merge(sp.truths, on="object", suffixes=("_l", "_s"))
        assert (t["value_l"] == t["value_s"]).all()

    def test_with_answers(self, spark, problem):
        ds, cand, anc, answers = problem
        loc = TDH(max_iter=30).fit(ds.records, answers, anc)
        sp = TDHSpark(spark, max_iter=30).fit(
            spark.createDataFrame(ds.records),
            spark.createDataFrame(answers),
            spark.createDataFrame(anc),
        )
        m = loc.mu.merge(sp.mu, on=["object", "value"], suffixes=("_l", "_s"))
        assert float((m["mu_l"] - m["mu_s"]).abs().max()) < 1e-9
        q = loc.psi.merge(sp.psi, on="worker", suffixes=("_l", "_s"))
        for c in ("psi1", "psi2", "psi3"):
            assert float((q[f"{c}_l"] - q[f"{c}_s"]).abs().max()) < 1e-9

    def test_nd_tables_match(self, spark, problem):
        ds, cand, anc, _ = problem
        loc = TDH(max_iter=25).fit(ds.records, None, anc)
        sp = TDHSpark(spark, max_iter=25).fit(
            spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
        )
        n = loc.N.merge(sp.N, on=["object", "value"], suffixes=("_l", "_s"))
        assert float((n["N_l"] - n["N_s"]).abs().max()) < 1e-8
        d = loc.D.merge(sp.D, on="object", suffixes=("_l", "_s"))
        assert float((d["D_l"] - d["D_s"]).abs().max()) < 1e-12

    def test_heritages_dataset(self, spark):
        ds = heritages_lite(sf=0.02, seed=1)
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        loc = TDH(max_iter=25).fit(ds.records, None, anc)
        sp = TDHSpark(spark, max_iter=25).fit(
            spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
        )
        t = loc.truths.merge(sp.truths, on="object", suffixes=("_l", "_s"))
        assert (t["value_l"] == t["value_s"]).all()


@pytest.fixture(scope="module")
def spark_info(spark, problem):
    """The flattened ``object_info`` of a TDHSpark fit: one row per candidate."""
    ds, _, anc, _ = problem
    res = TDHSpark(spark, max_iter=1).fit(
        spark.createDataFrame(ds.records), None, spark.createDataFrame(anc)
    )
    rows = [
        (o, v, i["cnt"][k], i["gen_cnt"][k], i["S"], any(d == k for d, _ in i["anc"]))
        for o, i in res.extras["object_info"].items()
        for k, v in enumerate(i["values"])
    ]
    return pd.DataFrame(rows, columns=["object", "value", "n", "gen_cnt", "s_o", "has_anc"])


class TestSparkAggregationsOracle:
    """DuckDB oracle checks of the static statistics a TDHSpark fit builds."""

    def test_candidate_sets(self, spark_info, problem):
        ds, *_ = problem
        assert_equivalent(
            spark_info[["object", "value"]],
            "SELECT DISTINCT object, value FROM records",
            records=ds.records,
        )

    def test_claim_counts(self, spark_info, problem):
        ds, *_ = problem
        assert_equivalent(
            spark_info[["object", "value", "n"]],
            "SELECT object, value, COUNT(*) AS n FROM records GROUP BY object, value",
            records=ds.records,
        )

    def test_sources_per_object(self, spark_info, problem):
        ds, *_ = problem
        assert_equivalent(
            spark_info[["object", "s_o"]].drop_duplicates(),
            "SELECT object, COUNT(*) AS s_o FROM records GROUP BY object",
            records=ds.records,
        )

    def test_gen_cnt_join(self, spark_info, problem):
        """The Pop2 denominator: sum of ancestor claim counts per candidate."""
        ds, cand, anc, _ = problem
        if not len(anc):
            pytest.skip("no ancestor pairs at this scale")
        assert_equivalent(
            spark_info.loc[spark_info["has_anc"], ["object", "value", "gen_cnt"]],
            """
            SELECT a.object, a.value, SUM(c.cnt) AS gen_cnt
            FROM anc a
            JOIN (SELECT object, value, COUNT(*) AS cnt FROM records GROUP BY 1,2) c
              ON c.object = a.object AND c.value = a.anc
            GROUP BY a.object, a.value
            """,
            records=ds.records,
            anc=anc,
        )


def _tiny(case: str):
    """A two-object problem (``o2`` has a single candidate) with one fault."""
    rec = [("o1", "s1", "NY"), ("o1", "s2", "USA"), ("o1", "s3", "NY"), ("o2", "s1", "LA")]
    ans = [("o1", "w1", "NY"), ("o2", "w1", "LA"), ("o1", "w2", "USA")]
    anc = [("o1", "NY", "USA")]
    if case == "duplicate record":
        rec.append(("o1", "s1", "USA"))
    elif case == "duplicate answer":
        ans.append(("o1", "w1", "USA"))
    elif case == "non-candidate answer":
        ans.append(("o2", "w2", "SF"))
    elif case == "ancestor outside candidates":
        anc.append(("o1", "NY", "Earth"))
    elif case == "empty answers":
        ans = []
    elif case == "no ancestor pairs":
        anc = []
    elif case == "answers on one object":  # o2's shard has no worker side
        ans = [("o1", "w1", "NY"), ("o1", "w2", "USA")]
    return (
        pd.DataFrame(rec, columns=["object", "source", "value"]),
        pd.DataFrame(ans, columns=["object", "worker", "value"]),
        pd.DataFrame(anc, columns=["object", "value", "anc"]),
    )


@pytest.mark.parametrize(
    "case",
    [
        "duplicate record",
        "duplicate answer",
        "non-candidate answer",
        "ancestor outside candidates",
        "empty answers",
        "no ancestor pairs",
        "answers on one object",
        "valid",
    ],
)
def test_engines_agree_on_edge_inputs(spark, case):
    """Both engines reject the same bad inputs with ``_prepare``'s message,
    and agree on an empty answers frame, no ancestor pairs, a shard without
    answers and a single-candidate object."""
    rec, ans, anc = _tiny(case)
    sp_ans = spark.createDataFrame(ans, "object string, worker string, value string")
    sp_anc = spark.createDataFrame(anc, "object string, value string, anc string")
    fit_spark = lambda: TDHSpark(spark, max_iter=5).fit(  # noqa: E731
        spark.createDataFrame(rec), sp_ans, sp_anc
    )
    try:
        loc = TDH(max_iter=5).fit(rec, ans, anc)
    except ValueError as e:
        with pytest.raises(Exception, match=re.escape(str(e))):
            fit_spark()
        return
    assert case in ("empty answers", "no ancestor pairs", "answers on one object", "valid")
    sp = fit_spark()
    for key in ("n_iter", "converged", "final_delta"):
        assert sp.extras[key] == pytest.approx(loc.extras[key], rel=1e-6), key
    if case == "empty answers":
        assert sp.psi is None
        none = TDH(max_iter=5).fit(rec, None, anc)
        assert np.array_equal(loc.mu["mu"].to_numpy(), none.mu["mu"].to_numpy())
    m = loc.mu.merge(sp.mu, on=["object", "value"], suffixes=("_l", "_s"))
    assert len(m) == len(loc.mu) == len(sp.mu) == 3
    assert float((m["mu_l"] - m["mu_s"]).abs().max()) < 1e-9
    assert sp.mu.loc[sp.mu["object"] == "o2", "mu"].tolist() == [1.0]


class TestVoteSparkOracle:
    def test_vote_counts_match_duckdb(self, spark, problem):
        from repro.baselines.vote import vote_spark

        ds, *_ = problem
        rec = spark.createDataFrame(ds.records)
        got = vote_spark(rec).select("object", "value", "n")
        assert_equivalent(
            got,
            "SELECT object, value, COUNT(*) AS n FROM records GROUP BY object, value",
            records=ds.records,
        )

    def test_vote_spark_matches_local(self, spark, problem):
        from repro.baselines.vote import vote, vote_spark
        from repro.core.result import argmax_truths

        ds, *_ = problem
        rec = spark.createDataFrame(ds.records)
        mu = vote_spark(rec).select("object", "value", "mu").toPandas()
        sp_truths = argmax_truths(mu)
        loc = vote(ds.records)
        t = loc.truths.merge(sp_truths, on="object", suffixes=("_l", "_s"))
        assert (t["value_l"] == t["value_s"]).all()
