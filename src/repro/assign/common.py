"""Shared plumbing for the task assigners.

The central object is the per-(worker, object) *answer likelihood
matrix* ``A[v', v] = P(v_o^w = v' | v_o^* = v)``:

* with a TDH result we evaluate Eq. (3)/(4) from ``psi_w`` and the
  cached per-object popularity statistics;
* with baseline results (DOCS/LCA/ACCU/POPACCU) we use the symmetric
  one-coin model implied by their estimated worker accuracy.

Workers with no answers yet fall back to prior-mean parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.result import InferenceResult


@dataclass
class AssignContext:
    """Everything an assigner may need for one round."""

    result: InferenceResult
    workers: list[str]
    k: int
    answered: dict[str, set[str]]  # object -> workers who already answered it
    rng: np.random.Generator
    object_info: dict | None = None  # TDH per-object structure (popularity etc.)
    mu_map: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.mu_map:
            self.mu_map = self.result.mu_map()
        if self.object_info is None:
            self.object_info = self.result.extras.get("object_info")
        self._psi_cache: dict[str, np.ndarray] = {}
        if self.result.psi is not None:
            for _, r in self.result.psi.iterrows():
                self._psi_cache[r["worker"]] = np.asarray(
                    [r["psi1"], r["psi2"], r["psi3"]], dtype=float
                )
        self._acc_cache: dict[str, float] = {}
        if self.result.worker_accuracy is not None:
            self._acc_cache = dict(
                zip(
                    self.result.worker_accuracy["worker"],
                    self.result.worker_accuracy["acc"].astype(float),
                )
            )
        self._psi_prior = np.asarray(
            self.result.extras.get("psi_prior_mean", (1 / 3, 1 / 3, 1 / 3)), dtype=float
        )
        self._basis_cache: dict[str, tuple] = {}
        self._mu_vec_cache: dict[str, tuple[list[str], np.ndarray]] = {}
        self._eai = None  # repro.assign.eai's per-round cache

    @property
    def objects(self) -> list[str]:
        return sorted(self.mu_map)

    def worker_psi(self, w: str) -> np.ndarray:
        """TDH trustworthiness of ``w`` (the fit's beta prior mean if unseen)."""
        return self._psi_cache.get(w, self._psi_prior)

    def worker_acc(self, w: str, default: float = 0.7) -> float:
        """Scalar worker accuracy for one-coin worker models."""
        return self._acc_cache.get(w, default)

    def likelihood_basis(self, o: str):
        """Per-object basis (B1, B2, B3) with A = psi1·B1 + psi2·B2 + psi3·B3.

        Eq. (3)/(4) is linear in psi, so the data-dependent parts are
        computed once per object per round and reused for every worker.
        """
        b = self._basis_cache.get(o)
        if b is None:
            b = _likelihood_basis(self.object_info[o])
            self._basis_cache[o] = b
        return b


def _likelihood_basis(info: dict):
    K = len(info["values"])
    cnt, gen_cnt, S = info["cnt"], info["gen_cnt"], info["S"]
    oh = info["oh"]
    B1 = np.eye(K)
    B2 = np.zeros((K, K))
    B3 = np.zeros((K, K))
    if oh:
        for v, vp in info["anc"]:  # vp ∈ G_o(v): generalized truth answer
            B2[vp, v] = cnt[vp] / max(gen_cnt[v], 1e-12)
        den = np.maximum(S - cnt - gen_cnt, 1e-12)  # per truth column v
        B3 = np.outer(cnt, 1.0 / den)
        B3[np.eye(K, dtype=bool)] = 0.0
        for v, vp in info["anc"]:
            B3[vp, v] = 0.0
    else:
        B2 = np.eye(K)  # Eq. (4): exact match carries psi1 + psi2
        den = np.maximum(S - cnt, 1e-12)
        B3 = np.outer(cnt, 1.0 / den)
        B3[np.eye(K, dtype=bool)] = 0.0
    return B1, B2, B3


def tdh_likelihood_matrix(info: dict, psi: np.ndarray) -> np.ndarray:
    """Eq. (3)/(4) as a K×K matrix; rows = answered value v', cols = truth v."""
    B1, B2, B3 = _likelihood_basis(info)
    return psi[0] * B1 + psi[1] * B2 + psi[2] * B3


def onecoin_likelihood_matrix(K: int, acc: float) -> np.ndarray:
    """Symmetric worker model: correct w.p. acc, else uniform error."""
    if K == 1:
        return np.ones((1, 1))
    A = np.full((K, K), (1.0 - acc) / (K - 1))
    np.fill_diagonal(A, acc)
    return A


def mu_vector(ctx: AssignContext, o: str, values: list[str]) -> np.ndarray:
    cached = ctx._mu_vec_cache.get(o)
    if cached is not None and cached[0] == values:
        return cached[1]
    mu = ctx.mu_map[o]
    vec = np.asarray([mu[v] for v in values])
    ctx._mu_vec_cache[o] = (values, vec)
    return vec
