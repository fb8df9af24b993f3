"""TDH truth inference on Spark: the local engine's EM over object shards.

TDH's EM is in summation form (Chu et al., NIPS 2006): the μ update of
Eq. (9) is per object, and φ/ψ (Eq. 10–11) need only per-agent sums.
So one range shuffle co-partitions records, answers and ancestor pairs
by object into ``sc.defaultParallelism`` shards, and each shard runs
:func:`repro.core.tdh_local._prepare` and its own ``object_info``, with
agent codes remapped to the global sorted source and worker lists. The
driver runs the same ``TDH._em`` loop and ``_package`` as the local
engine on small global aggregates; each E-step is one Spark job whose
shards return :func:`repro.core.tdh_local._estep_sums`. The driver
collects only distinct agent names, per-shard aggregates, ``object_info``
and those sums, never the records, answers or ancestor pairs.

Task assignment is a separate job (see ``jobs/assign_tasks.py``); its
inputs ``N_ov``/``D_o`` and ``object_info`` come from this fit.
"""
from __future__ import annotations

import os
import pickle
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark import SparkContext, SparkFiles
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

import repro
from repro.core.candidates import object_info
from repro.core.result import InferenceResult
from repro.core.tdh_local import TDH, _estep_sums, _package, _prepare, _Side

_COLUMNS = (["object", "source", "value"], ["object", "worker", "value"],
            ["object", "value", "anc"])


class TDHSpark(TDH):
    """TDH EM over Spark DataFrames (same priors/defaults as :class:`TDH`)."""

    def __init__(
        self,
        spark: SparkSession,
        alpha: tuple[float, float, float] = (3.0, 3.0, 2.0),
        beta: tuple[float, float, float] = (2.0, 2.0, 2.0),
        gamma: float = 2.0,
        max_iter: int = 100,
        tol: float = 1e-7,
    ):
        super().__init__(alpha, beta, gamma, max_iter, tol)
        self.spark = spark

    def fit(
        self,
        records: DataFrame,
        answers: DataFrame | None,
        anc_pairs: DataFrame,
    ) -> InferenceResult:
        """Run distributed EM; inputs are Spark DataFrames.

        ``records``: (object, source, value); ``answers``: (object,
        worker, value) or None; ``anc_pairs``: (object, value, anc).
        """
        p = self._build_base(records, answers, anc_pairs)
        try:
            em = self._em(p, self._estep_job)
            mu_num = self._estep_job(p, *em[:3])[0]
            return self._package(p, em, mu_num)
        finally:
            p["shards"].unpersist()

    def _build_base(self, records, answers, anc_pairs) -> dict:
        """Shard the problem by object; return the driver's global ``p``."""
        sc = self.spark.sparkContext
        _ship_repro(sc)
        sources = _distinct(records, "source")
        workers = _distinct(answers, "worker") if answers is not None else []
        agent = F.col("source").alias("agent")
        tagged = records.select("object", F.lit(0).alias("tag"), agent, "value")
        if answers is not None:
            agent = F.col("worker").alias("agent")
            ans = answers.select("object", F.lit(1).alias("tag"), agent, "value")
            tagged = tagged.unionByName(ans)
        anc = anc_pairs.select("object", F.lit(2).alias("tag"), "value", "anc")
        shards = (
            tagged.unionByName(anc, allowMissingColumns=True)
            .repartitionByRange(sc.defaultParallelism, "object")
            .rdd.mapPartitionsWithIndex(
                lambda i, rows: _build_shard(i, rows, sources, workers)
            )
            .cache()
        )
        aggs = [pickle.loads(b) for b in shards.map(lambda s: s[2]).collect()]
        cat = lambda key: np.concatenate([a[key] for a in aggs])  # noqa: E731
        names = lambda key: [x for a in aggs for x in a[key]]  # noqa: E731
        nV, cnt = cat("nV"), cat("cnt")
        ends = np.cumsum([len(a["cnt"]) for a in aggs])
        p = {
            "n_obj": len(nV),
            "n_cand": len(cnt),
            "objects": names("objects"),
            "cand": pd.DataFrame(
                {"object": names("cand_object"), "value": names("cand_value")}
            ),
            "obj_of_cand": np.repeat(np.arange(len(nV)), nV.astype(int)),
            "nV": nV,
            "cnt": cnt,
            "ans_cnt": cat("ans_cnt"),
            "object_info": {o: i for a in aggs for o, i in a["object_info"].items()},
            "shards": shards,
            "bounds": {a["shard"]: (e - len(a["cnt"]), e) for a, e in zip(aggs, ends)},
        }
        p["src"] = _driver_side(sources, "src", aggs)
        p["wrk"] = _driver_side(workers, "wrk", aggs) if workers else None
        return p

    def _estep_job(self, p: dict, mu: np.ndarray, phi: np.ndarray, psi):
        """One E-step as one Spark job: each shard's ``_estep_sums``, joined."""
        bounds = p["bounds"]
        parts = (
            p["shards"]
            .map(lambda s: _estep_sums(s[1], mu[slice(*bounds[s[0]])], phi, psi))
            .collect()
        )
        n_wrk = p["wrk"].n_agents if p["wrk"] is not None else 0
        g_wrk = sum((g for _, _, g in parts if g is not None), np.zeros((n_wrk, 3)))
        mu_num = np.concatenate([m for m, _, _ in parts])
        return mu_num, sum(g for _, g, _ in parts), g_wrk

    def _package(self, p, em, mu_num) -> InferenceResult:
        return _package(self, p, em, mu_num, p["object_info"])


def _distinct(df: DataFrame, col: str) -> list:
    return sorted(r[0] for r in df.select(col).distinct().collect())


def _driver_side(agents: list, key: str, aggs: list[dict]) -> _Side:
    """The driver's view of a side: claim totals per agent and per object.

    Its expanded rows stay on the shards, so the row arrays are empty.
    """
    per_agent = sum(a[f"{key}_per_agent"] for a in aggs)
    per_object = np.concatenate([a[f"{key}_per_obj"] for a in aggs])
    none = np.zeros(0, dtype=int)
    return _Side(none, none, none, none, np.zeros(0), int(per_agent.sum()),
                 len(agents), per_agent, per_object, agents)


def _build_shard(shard: int, rows, sources: list, workers: list):
    """Executor side: ``_prepare`` one shard on global agent codes."""
    claims = ([], [], [])
    for o, tag, agent, value, anc in rows:
        claims[tag].append((o, agent, value) if tag < 2 else (o, value, anc))
    if not any(claims):
        return
    rec, ans, anc = (pd.DataFrame(c, columns=k) for c, k in zip(claims, _COLUMNS))
    p = _prepare(rec, ans, anc)
    agg = {k: p[k] for k in ("objects", "nV", "cnt", "ans_cnt")}
    agg["shard"] = shard
    agg["cand_object"] = list(p["cand"]["object"])
    agg["cand_value"] = list(p["cand"]["value"])
    for key, names in (("src", sources), ("wrk", workers)):
        side = p[key]
        per_obj, per_agent = np.zeros(p["n_obj"]), np.zeros(len(names))
        if side is not None:
            code = {a: i for i, a in enumerate(names)}
            glob = np.asarray([code[a] for a in side.agents], dtype=int)
            per_obj = side.claims_per_object
            per_agent[glob] = side.claims_per_agent
            p[key] = replace(side, agent=glob[side.agent], n_agents=len(names),
                             claims_per_agent=per_agent, agents=names)
        agg[f"{key}_per_obj"], agg[f"{key}_per_agent"] = per_obj, per_agent
    agg["object_info"] = object_info(rec, anc)
    # Kept pickled in the cache, so the E-step jobs do not unpickle it again.
    slim = {"src": p["src"], "wrk": p["wrk"], "n_cand": p["n_cand"]}
    yield shard, slim, pickle.dumps(agg)


def _ship_repro(sc: SparkContext) -> None:
    """Make ``repro`` importable in Python workers, once per SparkContext.

    ``repro`` is not installed, so workers see it only as a shipped zip.
    The zip lives under the context's own file root, which Spark deletes
    when the context stops.
    """
    out = Path(SparkFiles.getRootDirectory()) / "repro-pkg" / "repro.zip"
    if out.exists():
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    pkg = Path(repro.__file__).parent
    with zipfile.ZipFile(out, "w") as z:
        for f in sorted(pkg.rglob("*.py")):
            z.write(f, f.relative_to(pkg.parent))
    sc.addPyFile(os.fspath(out))
