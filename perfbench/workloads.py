"""The benchmark's three workloads, each a closed loop with one client.

A workload builds its inputs from the seed in :meth:`setup`, runs one
*pass* of its fixed job per :meth:`run_pass` call, and checks outputs in
:meth:`finish`, after measurement.  Every pass records its *steps*, the
``(start, end)`` of the unit a user waits for: a crowdsourcing round, or
one fit.  ``attempted``/``failed`` count rounds and fits; a failure is an
exception or a failed output check.
"""
from __future__ import annotations

import importlib.util
import os
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np
import pandas as pd

import layers
from repro.core.candidates import (
    candidate_sets,
    hierarchical_ancestor_pairs,
    numeric_ancestor_pairs_df,
)
from repro.core.tdh_local import TDH
from repro.datagen.stock import ATTRIBUTES, stock_lite
from repro.datagen.truthdata import birthplaces_lite
from repro.eval import metrics as M
from repro.eval import simulate
from repro.hierarchy.numeric import rounds_to

ROOT = Path(__file__).resolve().parent.parent
SF = 1.0
SETUP_REPEATS = 3  # setup_s is the median of this many input builds
ROUNDS, N_WORKERS, K = 4, 10, 5  # crowd loop: rounds per pass, 10 workers x k=5 (paper §5)
SPARK_ITERS = 2  # fixed EM iterations per Spark fit (tol=0)
MU_TOL = 1e-9


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def _mu_sums_to_one(mu: pd.DataFrame) -> bool:
    s = mu.groupby("object", sort=False)["mu"].sum().to_numpy()
    return bool(np.all(np.abs(s - 1.0) <= MU_TOL))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.steps: list[tuple[float, float]] = []
        self.passes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.accuracy = 0.0
        self.datagen_s = 0.0
        self.session_s = 0.0
        self.setup_s = 0.0
        self.answers_per_round: list[int] = []
        self.context: dict = {}
        self.report: dict = {}
        self.tracer = None

    def _build_inputs(self, build) -> None:
        """Build the inputs ``SETUP_REPEATS`` times; keep the last, time the median."""
        times = []
        for _ in range(SETUP_REPEATS):
            self.inputs, dt = _timed(build)
            times.append(dt)
        self.datagen_s = median(times)

    def step_p50_s(self) -> float:
        return median(e - s for s, e in self.steps)

    def _fail(self, n: int) -> None:
        traceback.print_exc()
        self.failed += n

    def instrument(self, tracer) -> None:
        layers.instrument_local(tracer)

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


class CrowdBpEai(Workload):
    """Fig. 2 loop: TDH inference, EAI assignment, simulated answers."""

    name = "crowd-bp-eai"

    def setup(self) -> None:
        self._build_inputs(lambda: birthplaces_lite(sf=SF, seed=self.seed))
        self.setup_s = self.datagen_s
        self.first = None

    def instrument(self, tracer) -> None:
        layers.instrument_crowd(tracer)

    def run_pass(self) -> None:
        ends, mus, plans = [], [], []
        infer, assign = simulate.INFERENCE["TDH"], simulate.ASSIGNERS["EAI"]

        def timed_infer(*args):
            res = infer(*args)
            ends.append(time.perf_counter())
            mus.append(res.mu)
            return res

        def recorded_assign(ctx):
            before = {o: set(ws) for o, ws in ctx.answered.items()}
            out = assign(ctx)
            plans.append((out, before, ctx.k))
            return out

        n = ROUNDS + 1  # round 0 is the cold fit
        self.attempted += n
        simulate.INFERENCE["TDH"], simulate.ASSIGNERS["EAI"] = timed_infer, recorded_assign
        try:
            log, loop_s = _timed(
                lambda: simulate.run_crowdsourcing(
                    self.inputs, "TDH", "EAI",
                    rounds=ROUNDS, n_workers=N_WORKERS, k=K, seed=self.seed,
                )
            )
        except Exception:
            return self._fail(n)
        finally:
            simulate.INFERENCE["TDH"], simulate.ASSIGNERS["EAI"] = infer, assign
        self.passes.append(loop_s)
        self.steps += list(zip(ends, ends[1:]))
        bad = {r for r, mu in enumerate(mus) if not _mu_sums_to_one(mu)}
        for r, (out, before, k) in enumerate(plans, start=1):
            self.answers_per_round.append(sum(map(len, out.values())))
            for w, objs in out.items():
                if len(set(objs)) != len(objs) or len(objs) > k:
                    bad.add(r)
                if any(w in before.get(o, ()) for o in objs):
                    bad.add(r)
        rows = log.history.to_dict("records")
        assignments = [p[0] for p in plans]
        if len(rows) != n or len(assignments) != ROUNDS:
            bad.update(range(n))
        elif self.first is None:
            self.first = (rows, assignments)
        else:  # same seed, same inputs: histories and assignments must repeat
            rows0, assignments0 = self.first
            bad.update(r for r in range(n) if rows[r] != rows0[r])
            bad.update(r for r in range(1, n) if assignments[r - 1] != assignments0[r - 1])
        self.failed += len(bad)
        self.accuracy = float(log.history["accuracy"].iloc[-1])


class FitStockCold(Workload):
    """Table 6 path: one cold TDH fit per stock attribute, no crowd."""

    name = "fit-stock-cold"

    def setup(self) -> None:
        def build():
            out = []
            for attr in ATTRIBUTES:
                ds = stock_lite(attr, sf=SF, seed=self.seed)
                out.append((ds, numeric_ancestor_pairs_df(candidate_sets(ds.records))))
            return out

        self._build_inputs(build)
        self.setup_s = self.datagen_s
        self.first_mu: dict[str, np.ndarray] = {}
        self.truths: dict[str, pd.DataFrame] = {}
        self.fit_s: dict[str, list[float]] = {}

    def step_p50_s(self) -> float:
        """Mean over the attributes of each attribute's median fit time.

        The attributes' fits differ in cost, so a median over all fits would
        report whichever attribute happens to sit in the middle.
        """
        return float(np.mean([median(ts) for ts in self.fit_s.values()]))

    def run_pass(self) -> None:
        results = []
        t0 = time.perf_counter()
        for ds, anc in self.inputs:
            self.attempted += 1
            t = time.perf_counter()
            try:
                res = TDH().fit(ds.records, None, anc)
            except Exception:
                self._fail(1)
                continue
            self.steps.append((t, time.perf_counter()))
            self.fit_s.setdefault(ds.attribute, []).append(self.steps[-1][1] - t)
            results.append((ds.attribute, res))
        self.passes.append(time.perf_counter() - t0)
        for attr, res in results:
            mu = res.mu["mu"].to_numpy()
            phi_rows = res.phi[["phi1", "phi2", "phi3"]].sum(axis=1).to_numpy()
            ok = _mu_sums_to_one(res.mu) and bool(np.all(np.abs(phi_rows - 1.0) <= MU_TOL))
            ok = ok and np.array_equal(self.first_mu.setdefault(attr, mu), mu)
            self.failed += not ok
            self.truths[attr] = res.truths

    def finish(self) -> None:
        """Accuracy under the §3.2 rounding hierarchy, and Table 6's R/E."""
        accs, rel = [], []
        for ds, _ in self.inputs:
            truths = self.truths[ds.attribute]
            digits = 4 if ds.attribute == "change_rate" else 2
            gold = {o: f"{t:.{digits}f}" for o, t in zip(ds.gold["object"], ds.gold["truth"])}
            est = dict(zip(truths["object"], truths["value"]))
            accs.append(np.mean([rounds_to(g, est[o]) for o, g in gold.items()]))
            num = truths.assign(value=truths["value"].astype(float))
            rel.append(M.mae_re(num, ds.gold)[1])
        self.accuracy = float(np.mean(accs))
        self.report["rel_error"] = float(np.mean(rel))


def _get_spark():
    """``jobs/_common.get_spark``: the spark-submit entrypoints' session."""
    spec = importlib.util.spec_from_file_location("jobs_common", ROOT / "jobs" / "_common.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.get_spark("perfbench")


class SparkFitBp(Workload):
    """The distributed engine: ``TDHSpark`` with a fixed iteration count."""

    name = "spark-fit-bp"
    spark = None

    def setup(self) -> None:
        def build():
            ds = birthplaces_lite(sf=SF, seed=self.seed)
            cand = candidate_sets(ds.records)
            return ds, cand, hierarchical_ancestor_pairs(cand, ds.hierarchy)

        self._build_inputs(build)
        ds, _, anc = self.inputs
        # The entrypoint defaults (local[*], 16 shuffle partitions) are the
        # measured configuration; scratch files stay inside the checkout.
        for var in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
            os.environ.pop(var, None)
        tmp = ROOT / ".bench_build" / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = tempfile.tempdir = str(tmp)
        os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        self.spark, self.session_s = _timed(_get_spark)
        sc = self.spark.sparkContext
        sc.setLogLevel("ERROR")
        (self.records, self.anc), df_s = _timed(
            lambda: (
                self.spark.createDataFrame(ds.records[["object", "source", "value"]]),
                self.spark.createDataFrame(anc),
            )
        )
        _, warm_s = _timed(self._fit)  # the first fit in a session is ~2x slower
        self.setup_s = self.datagen_s + self.session_s + df_s + warm_s
        self.context = {
            "spark_master": sc.master,
            "default_parallelism": sc.defaultParallelism,
            "shuffle_partitions": int(self.spark.conf.get("spark.sql.shuffle.partitions")),
        }
        self.mus: list[pd.DataFrame] = []
        self.counts: list[dict] = []

    def instrument(self, tracer) -> None:
        layers.instrument_spark(tracer)
        self.tracer = tracer

    def _fit(self):
        from repro.core.tdh_spark import TDHSpark

        return TDHSpark(self.spark, max_iter=SPARK_ITERS, tol=0.0).fit(self.records, None, self.anc)

    def run_pass(self) -> None:
        sc = self.spark.sparkContext
        group = f"perfbench-fit-{self.attempted}"
        sc.setJobGroup(group, "perfbench TDHSpark fit")
        self.attempted += 1
        t = time.perf_counter()
        try:
            res = self._fit()
        except Exception:
            return self._fail(1)
        t1 = time.perf_counter()
        self.steps.append((t, t1))
        self.passes.append(t1 - t)
        self.mus.append(res.mu)
        self.truths = res.truths
        counts = _job_counts(sc.statusTracker(), group)
        self.counts.append(counts)
        if self.tracer is not None:
            self.tracer.named("tdh_spark.fit")[-1].attrs.update(counts)

    def finish(self) -> None:
        """Compare every fit with the local engine at the same iteration count."""
        ds, cand, anc = self.inputs
        ref = TDH(max_iter=SPARK_ITERS, tol=0.0).fit(ds.records, None, anc).mu
        for mu in self.mus:
            m = ref.merge(mu, on=["object", "value"], suffixes=("_ref", ""))
            ok = len(m) == len(ref) == len(mu) and _mu_sums_to_one(mu)
            ok = ok and float(np.max(np.abs(m["mu"] - m["mu_ref"]))) <= MU_TOL
            self.failed += not ok
        gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
        self.accuracy = M.accuracy(self.truths, gold)
        self.report["spark_counts_per_fit"] = self.counts

    def close(self) -> None:
        """Stop the session and wait for the JVM it launched to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        self.spark.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                proc.wait(timeout=60)


def _job_counts(tracker, group: str) -> dict:
    """Jobs, stages and tasks Spark ran for one job group."""
    jobs = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
    stages = [tracker.getStageInfo(s) for j in jobs if j is not None for s in j.stageIds]
    ran = [s for s in stages if s is not None and s.numCompletedTasks > 0]
    return {
        "jobs": len(jobs),
        "stages": len(ran),
        "tasks": sum(s.numCompletedTasks for s in ran),
    }


WORKLOADS = {w.name: w for w in (CrowdBpEai, FitStockCold, SparkFitBp)}
