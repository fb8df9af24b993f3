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

from repro.core.candidates import object_info
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
        mu, phi, psi, n_iter = self._em(p)
        mu_num = _estep_sums(p, mu, phi, psi)[0]
        info = object_info(records, answers, anc_pairs)
        return _package(p, mu, phi, psi, self.gamma, n_iter, mu_num, info)

    # ------------------------------------------------------------------
    def _em(self, p: dict, sums=None):
        """Run EM on ``p``; ``sums(p, mu, phi, psi)`` returns the E-step
        sums (default: :func:`_estep_sums` over ``p``'s own expanded rows)."""
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
        n_iter = 0
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
        return mu, phi, psi, n_iter


# ----------------------------------------------------------------------
def _estep(side: _Side, param: np.ndarray, mu: np.ndarray):
    """One E-step over a side: returns per-candidate f sums' raw values
    aligned to rows (to be bincounted by caller) and per-agent g sums."""
    w = param[side.agent, side.rel - 1] * side.coef * mu[side.cand]
    z = np.bincount(side.row, w, minlength=side.n_rows)
    f = w / z[side.row]
    g = np.zeros((side.n_agents, 3))
    for t in (1, 2, 3):
        m = side.rel == t
        g[:, t - 1] = np.bincount(side.agent[m], f[m], minlength=side.n_agents)
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
    cand = (
        records[["object", "value"]]
        .drop_duplicates()
        .sort_values(["object", "value"])
        .reset_index(drop=True)
    )
    objects = sorted(cand["object"].unique())
    ocode = {o: i for i, o in enumerate(objects)}
    cand["ocode"] = cand["object"].map(ocode)
    cand["cid"] = np.arange(len(cand))
    cid_of = {(o, v): c for o, v, c in zip(cand["object"], cand["value"], cand["cid"])}
    n_obj, n_cand = len(objects), len(cand)
    if answers is not None:
        for o, v in zip(answers["object"], answers["value"]):
            if (o, v) not in cid_of:
                raise ValueError(f"answer value {v!r} not a candidate of {o!r}")
    obj_of_cand = cand["ocode"].to_numpy()
    nV_per_obj = np.bincount(obj_of_cand, minlength=n_obj).astype(float)

    # ancestor pairs → cid space
    anc_cids: set[tuple[int, int]] = set()
    if len(anc_pairs):
        for o, v, a in anc_pairs[["object", "value", "anc"]].itertuples(index=False):
            d_cid = cid_of.get((o, v))
            a_cid = cid_of.get((o, a))
            if d_cid is None or a_cid is None:
                raise ValueError(f"ancestor pair ({o},{v},{a}) not in candidate set")
            anc_cids.add((d_cid, a_cid))
    nG = np.zeros(n_cand)
    for d, _a in anc_cids:
        nG[d] += 1
    oh = np.zeros(n_obj, dtype=bool)
    for d, _a in anc_cids:
        oh[obj_of_cand[d]] = True

    # source claim counts per candidate; popularity denominators
    rec = records.sort_values(["object", "source"]).reset_index(drop=True)
    rec_cid = np.asarray([cid_of[(o, v)] for o, v in zip(rec["object"], rec["value"])])
    cnt = np.bincount(rec_cid, minlength=n_cand).astype(float)
    gen_cnt = np.zeros(n_cand)
    for d, a in anc_cids:
        gen_cnt[d] += cnt[a]
    S_per_obj = np.bincount(rec["object"].map(ocode).to_numpy(), minlength=n_obj).astype(
        float
    )

    stats = {
        "n_obj": n_obj,
        "n_cand": n_cand,
        "objects": objects,
        "cand": cand,
        "cid_of": cid_of,
        "obj_of_cand": obj_of_cand,
        "nV": nV_per_obj,
        "nG": nG,
        "oh": oh,
        "cnt": cnt,
        "gen_cnt": gen_cnt,
        "S_per_obj": S_per_obj,
        "anc_cids": anc_cids,
    }
    stats["src"] = _expand_side(
        rec, "source", stats, popularity=False, ocode=ocode
    )
    if answers is not None:
        ans = answers.sort_values(["object", "worker"]).reset_index(drop=True)
        stats["wrk"] = _expand_side(ans, "worker", stats, popularity=True, ocode=ocode)
        stats["ans_cnt"] = np.bincount(
            np.asarray([cid_of[(o, v)] for o, v in zip(ans["object"], ans["value"])]),
            minlength=n_cand,
        ).astype(float)
    else:
        stats["wrk"] = None
        stats["ans_cnt"] = np.zeros(n_cand)
    return stats


def _expand_side(
    claims: pd.DataFrame, agent_col: str, stats: dict, *, popularity: bool, ocode: dict
) -> _Side:
    """Build the expanded (claim × candidate-of-object) relation.

    ``popularity=False`` gives the source coefficients of Eq. (1)–(2);
    ``popularity=True`` gives the worker coefficients of Eq. (3)–(4).
    """
    agents = sorted(claims[agent_col].unique())
    acode = {a: i for i, a in enumerate(agents)}
    cid_of = stats["cid_of"]
    obj_of_cand = stats["obj_of_cand"]
    nV, nG, oh = stats["nV"], stats["nG"], stats["oh"]
    cnt, gen_cnt, S = stats["cnt"], stats["gen_cnt"], stats["S_per_obj"]
    anc_cids = stats["anc_cids"]
    cand = stats["cand"]
    cands_by_obj: dict[int, np.ndarray] = {
        int(k): g["cid"].to_numpy() for k, g in cand.groupby("ocode", sort=True)
    }

    rows, agts, cands_, rels, coefs = [], [], [], [], []
    for i, (o, a, v) in enumerate(
        zip(claims["object"], claims[agent_col], claims["value"])
    ):
        oc = ocode[o]
        claim_cid = cid_of[(o, v)]
        a_i = acode[a]
        is_oh = oh[oc]
        for c in cands_by_obj[oc]:
            if c == claim_cid:
                if is_oh:
                    pairs = [(1, 1.0)]
                else:
                    pairs = [(1, 1.0), (2, 1.0)]  # Eq. (2)/(4): phi1+phi2 collapse
            elif (c, claim_cid) in anc_cids:  # claim ∈ G_o(truth candidate c)
                if popularity:
                    pairs = [(2, cnt[claim_cid] / gen_cnt[c])]
                else:
                    pairs = [(2, 1.0 / nG[c])]
            else:
                if is_oh:
                    if popularity:
                        den = S[oc] - cnt[c] - gen_cnt[c]
                        pairs = [(3, cnt[claim_cid] / den if den > 0 else 0.0)]
                    else:
                        den = nV[oc] - nG[c] - 1.0
                        pairs = [(3, 1.0 / den if den > 0 else 0.0)]
                else:
                    if popularity:
                        den = S[oc] - cnt[c]
                        pairs = [(3, cnt[claim_cid] / den if den > 0 else 0.0)]
                    else:
                        pairs = [(3, 1.0 / (nV[oc] - 1.0))]
            for rel, coef in pairs:
                rows.append(i)
                agts.append(a_i)
                cands_.append(c)
                rels.append(rel)
                coefs.append(coef)
    claims_per_agent = np.bincount(
        claims[agent_col].map(acode).to_numpy(), minlength=len(agents)
    ).astype(float)
    claims_per_object = np.bincount(
        claims["object"].map(ocode).to_numpy(), minlength=stats["n_obj"]
    ).astype(float)
    return _Side(
        row=np.asarray(rows),
        agent=np.asarray(agts),
        cand=np.asarray(cands_),
        rel=np.asarray(rels),
        coef=np.asarray(coefs, dtype=float),
        n_rows=len(claims),
        n_agents=len(agents),
        claims_per_agent=claims_per_agent,
        claims_per_object=claims_per_object,
        agents=agents,
    )


def _package(
    p: dict,
    mu: np.ndarray,
    phi: np.ndarray,
    psi: np.ndarray | None,
    gamma: float,
    n_iter: int,
    mu_num: np.ndarray,
    info: dict,
) -> InferenceResult:
    """The fit's result; ``mu_num`` is :func:`_estep_sums`'s ``f`` at the
    final parameters and ``info`` the fit's :func:`object_info`."""
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
    gm1 = gamma - 1.0
    # Eq. (9) numerator/denominator, cached for the EAI incremental EM.
    W_per_obj = p["wrk"].claims_per_object if psi is not None else np.zeros(p["n_obj"])
    N = mu_num + gm1
    D = src.claims_per_object + W_per_obj + p["nV"] * gm1
    N_df = pd.DataFrame({"object": cand["object"], "value": cand["value"], "N": N})
    D_df = pd.DataFrame({"object": p["objects"], "D": D})
    extras = {"n_iter": n_iter, "object_info": info}
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


