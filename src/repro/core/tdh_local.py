"""TDH truth inference — the model's one numpy encoding and its local driver.

Implements the paper's EM algorithm (§3.2, Fig. 4, Eq. 9–11) exactly:

* three-way source model ``phi_s`` (exact / generalized / wrong) with the
  uniform-ancestor and uniform-wrong selection of Eq. (1) and the
  collapsed two-case model of Eq. (2) for objects without any
  ancestor–descendant candidate pair (``o ∉ O_H``);
* three-way worker model ``psi_w`` with the popularity terms
  ``Pop2``/``Pop3`` (Eq. 3–4) computed from the *source* records;
* Dirichlet priors ``alpha=(3,3,2)``, ``beta=gamma=(2,…)`` (§5.1) and the
  MAP M-step updates of Eq. (9)–(11).

Everything is represented with integer-coded numpy arrays; one EM
iteration is a handful of ``np.bincount`` segment reductions over the
expanded (claim × candidate) relation. :class:`TDH` runs it in process;
:mod:`repro.core.tdh_spark` runs the same ``_prepare`` per object shard,
:func:`_estep_sums` as one Spark job per iteration, and the same
``TDH._em`` loop and ``_package`` on the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.candidates import candidate_codes, candidate_stats, object_info
from repro.core.result import InferenceResult, argmax_truths


@dataclass
class _Side:
    """Expanded (claim × candidate) rows for one side (sources or workers)."""

    row: np.ndarray  # claim-row id (one per record/answer)
    agent: np.ndarray  # source / worker code
    cand: np.ndarray  # global candidate id of the conditioning truth v
    rel: np.ndarray  # 1 exact, 2 generalized, 3 wrong
    coef: np.ndarray  # static coefficient multiplying phi/psi[rel]
    n_rows: int  # number of claims
    n_agents: int
    claims_per_agent: np.ndarray  # |O_s| (or |O_w|)
    claims_per_object: np.ndarray  # |S_o| (or |W_o|)
    agents: list[str]


class TDH:
    """The paper's hierarchical truth-inference algorithm (TDH)."""

    def __init__(
        self,
        alpha: tuple[float, float, float] = (3.0, 3.0, 2.0),
        beta: tuple[float, float, float] = (2.0, 2.0, 2.0),
        gamma: float = 2.0,
        max_iter: int = 100,
        tol: float = 1e-7,
    ):
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.gamma = float(gamma)
        self.max_iter = int(max_iter)
        self.tol = float(tol)

    # ------------------------------------------------------------------
    def fit(
        self,
        records: pd.DataFrame,
        answers: pd.DataFrame | None,
        anc_pairs: pd.DataFrame,
    ) -> InferenceResult:
        """Run EM to convergence and return the MAP estimate.

        Parameters
        ----------
        records: (object, source, value) — at most one row per (o, s).
        answers: (object, worker, value) or None — worker answers; values
            must be candidates of their object.
        anc_pairs: (object, value, anc) — per-object candidate ancestor
            pairs (``anc ∈ G_o(value)``).
        """
        p = _prepare(records, answers, anc_pairs)
        em = self._em(p)
        mu_num = _estep_sums(p, *em[:3])[0]
        return _package(self, p, em, mu_num, object_info(records, anc_pairs))

    # ------------------------------------------------------------------
    def _em(self, p: dict, sums=None):
        """Run EM on ``p``; ``sums(p, mu, phi, psi)`` returns the E-step
        sums (default: :func:`_estep_sums` over ``p``'s own expanded rows).

        Returns ``(mu, phi, psi, n_iter, delta)``, ``delta`` being the last
        iteration's max |Δμ| (inf if no iteration ran)."""
        sums = sums or _estep_sums
        gm1 = self.gamma - 1.0
        src: _Side = p["src"]
        wrk: _Side | None = p["wrk"]
        # init: mu from smoothed claim counts; phi/psi at prior means
        counts = p["cnt"].astype(float) + p["ans_cnt"] + gm1
        obj_of = p["obj_of_cand"]
        denom0 = np.bincount(obj_of, counts, minlength=p["n_obj"])
        mu = counts / denom0[obj_of]
        phi = np.tile(self.alpha / self.alpha.sum(), (src.n_agents, 1))
        psi = (
            np.tile(self.beta / self.beta.sum(), (wrk.n_agents, 1))
            if wrk is not None
            else None
        )
        mu_den = (
            src.claims_per_object
            + (wrk.claims_per_object if wrk is not None else 0.0)
            + p["nV"] * gm1
        )
        a_sum = self.alpha.sum() - 3.0
        b_sum = self.beta.sum() - 3.0
        n_iter, delta = 0, float("inf")
        for n_iter in range(1, self.max_iter + 1):
            mu_num, g_src, g_wrk = sums(p, mu, phi, psi)
            mu_new = (mu_num + gm1) / mu_den[obj_of]
            phi = (g_src + (self.alpha - 1.0)) / (
                src.claims_per_agent[:, None] + a_sum
            )
            if wrk is not None:
                psi = (g_wrk + (self.beta - 1.0)) / (
                    wrk.claims_per_agent[:, None] + b_sum
                )
            delta = float(np.max(np.abs(mu_new - mu)))
            mu = mu_new
            if delta < self.tol:
                break
        return mu, phi, psi, n_iter, delta


# ----------------------------------------------------------------------
def _estep(side: _Side, param: np.ndarray, mu: np.ndarray):
    """One E-step over a side: returns per-candidate f sums' raw values
    aligned to rows (to be bincounted by caller) and per-agent g sums."""
    key = side.agent * 3 + side.rel - 1  # flat (agent, rel) index into param
    w = param.reshape(-1)[key] * side.coef * mu[side.cand]
    z = np.bincount(side.row, w, minlength=side.n_rows)
    f = w / z[side.row]
    g = np.bincount(key, f, minlength=3 * side.n_agents).reshape(side.n_agents, 3)
    return f, g


def _estep_sums(p: dict, mu: np.ndarray, phi: np.ndarray, psi: np.ndarray | None):
    """The E-step sums of Eq. (9)–(11): per-candidate ``f`` and per-agent
    ``g`` for sources and workers (``g_wrk`` is None without answers)."""
    f_src, g_src = _estep(p["src"], phi, mu)
    mu_num = np.bincount(p["src"].cand, f_src, minlength=p["n_cand"])
    g_wrk = None
    if p["wrk"] is not None:
        f_wrk, g_wrk = _estep(p["wrk"], psi, mu)
        mu_num += np.bincount(p["wrk"].cand, f_wrk, minlength=p["n_cand"])
    return mu_num, g_src, g_wrk


def _prepare(
    records: pd.DataFrame,
    answers: pd.DataFrame | None,
    anc_pairs: pd.DataFrame,
) -> dict:
    """Integer-code the problem and build the expanded E-step relations."""
    if records.duplicated(["object", "source"]).any():
        raise ValueError("records must have at most one claim per (object, source)")
    if answers is not None and not len(answers):
        answers = None
    if answers is not None and answers.duplicated(["object", "worker"]).any():
        raise ValueError("answers must have at most one row per (object, worker)")
    stats = candidate_stats(records, anc_pairs)
    n_cand = stats["n_cand"]
    rec = records.reset_index(drop=True).sort_values(["object", "source"])
    rec_cid = stats["rec_cid"][rec.index]
    stats["src"] = _expand_side(rec_cid, rec["source"], stats, popularity=False)
    stats["wrk"], stats["ans_cnt"] = None, np.zeros(n_cand)
    if answers is not None:
        ans_cid = candidate_codes(stats["cand_index"], answers["object"], answers["value"])
        if (ans_cid < 0).any():
            o, v = answers[["object", "value"]].to_numpy()[(ans_cid < 0).argmax()]
            raise ValueError(f"answer value {v!r} not a candidate of {o!r}")
        ans = answers.reset_index(drop=True).sort_values(["object", "worker"])
        ans_cid = ans_cid[ans.index]
        stats["wrk"] = _expand_side(ans_cid, ans["worker"], stats, popularity=True)
        stats["ans_cnt"] = np.bincount(ans_cid, minlength=n_cand).astype(float)
    return stats


def _expand_side(
    claim_cid: np.ndarray, claim_agent: pd.Series, stats: dict, *, popularity: bool
) -> _Side:
    """Build the expanded (claim × candidate-of-object) relation.

    ``claim_cid`` is each claim's candidate id and ``claim_agent`` its
    source or worker, with claims sorted by (object, agent). Rows follow
    claim order, then candidate order; a claim's own candidate of an
    object without ancestor pairs gets two rows, rel 1 then rel 2.
    ``popularity=False`` gives the source coefficients of Eq. (1)–(2);
    ``popularity=True`` gives the worker coefficients of Eq. (3)–(4).
    """
    agents = sorted(claim_agent.unique())
    agent_code = pd.Index(agents).get_indexer(claim_agent)
    obj_of_cand, n_cand = stats["obj_of_cand"], stats["n_cand"]
    nV, nG, oh = stats["nV"], stats["nG"], stats["oh"]
    cnt, gen_cnt, S = stats["cnt"], stats["gen_cnt"], stats["S_per_obj"]

    # one row per (claim, candidate of the claim's object)
    claim_obj = obj_of_cand[claim_cid]
    n_here = nV.astype(int)[claim_obj]
    first_cand = np.searchsorted(obj_of_cand, claim_obj)
    row = np.repeat(np.arange(len(claim_cid)), n_here)
    pos = np.arange(len(row)) - np.repeat(np.cumsum(n_here) - n_here, n_here)
    c = first_cand[row] + pos
    claim, o = claim_cid[row], claim_obj[row]
    is_oh = oh[o]

    exact = c == claim
    gen = np.isin(c * n_cand + claim, stats["anc_key"])  # claim ∈ G_o(c)
    wrong = ~exact & ~gen
    coef = np.ones(len(row))
    if popularity:
        coef[gen] = cnt[claim[gen]] / gen_cnt[c[gen]]
        num = cnt[claim]
        den = np.where(is_oh, S[o] - cnt[c] - gen_cnt[c], S[o] - cnt[c])
    else:
        coef[gen] = 1.0 / nG[c[gen]]
        num = np.ones(len(row))
        den = np.where(is_oh, nV[o] - nG[c] - 1.0, nV[o] - 1.0)
    ok = wrong & (den > 0)
    coef[wrong] = 0.0
    coef[ok] = num[ok] / den[ok]
    rel = np.where(exact, 1, np.where(gen, 2, 3))

    # Eq. (2)/(4): o ∉ O_H collapses phi1+phi2, a second (rel 2) row
    twice = np.repeat(np.arange(len(row)), 1 + (exact & ~is_oh))
    rel = rel[twice]
    rel[1:][twice[1:] == twice[:-1]] = 2
    return _Side(
        row=row[twice],
        agent=agent_code[row][twice],
        cand=c[twice],
        rel=rel,
        coef=coef[twice],
        n_rows=len(claim_cid),
        n_agents=len(agents),
        claims_per_agent=np.bincount(agent_code, minlength=len(agents)).astype(float),
        claims_per_object=np.bincount(claim_obj, minlength=stats["n_obj"]).astype(float),
        agents=agents,
    )


def _package(
    model: TDH, p: dict, em: tuple, mu_num: np.ndarray, info: dict
) -> InferenceResult:
    """The fit's result; ``em`` is :meth:`TDH._em`'s return value,
    ``mu_num`` :func:`_estep_sums`'s ``f`` at its parameters and ``info``
    the fit's :func:`object_info`."""
    mu, phi, psi, n_iter, delta = em
    cand = p["cand"]
    mu_df = pd.DataFrame(
        {"object": cand["object"], "value": cand["value"], "mu": mu}
    )
    truths = argmax_truths(mu_df)
    src: _Side = p["src"]
    phi_df = pd.DataFrame(phi, columns=["phi1", "phi2", "phi3"])
    phi_df.insert(0, "source", src.agents)
    psi_df = None
    wacc = None
    if psi is not None:
        wrk: _Side = p["wrk"]
        psi_df = pd.DataFrame(psi, columns=["psi1", "psi2", "psi3"])
        psi_df.insert(0, "worker", wrk.agents)
        wacc = pd.DataFrame({"worker": wrk.agents, "acc": psi[:, 0]})
    gm1 = model.gamma - 1.0
    # Eq. (9) numerator/denominator, cached for the EAI incremental EM.
    W_per_obj = p["wrk"].claims_per_object if psi is not None else np.zeros(p["n_obj"])
    N = mu_num + gm1
    D = src.claims_per_object + W_per_obj + p["nV"] * gm1
    N_df = pd.DataFrame({"object": cand["object"], "value": cand["value"], "N": N})
    D_df = pd.DataFrame({"object": p["objects"], "D": D})
    extras = {
        "n_iter": n_iter,
        "converged": delta < model.tol,
        "final_delta": delta,
        "psi_prior_mean": model.beta / model.beta.sum(),  # ψ of unseen workers
        "object_info": info,
    }
    return InferenceResult(
        truths=truths,
        mu=mu_df,
        phi=phi_df,
        psi=psi_df,
        N=N_df,
        D=D_df,
        worker_accuracy=wacc,
        extras=extras,
    )


