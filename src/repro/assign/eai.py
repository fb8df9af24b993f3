"""EAI — Expected Accuracy Improvement task assignment (paper §4).

Implements:

* the **incremental EM** estimate of the conditional confidence with one
  additional answer (Eq. 16–18), using the cached ``N_ov``/``D_o`` from
  the last full EM run;
* the quality measure ``EAI(w, o)`` (Eq. 14–15);
* the **upper bound** ``U_EAI(o) = (1 - max_v mu_ov) / (|O|·(D_o+1))``
  of Lemma 4.1;
* **Algorithm 1**: scan objects by non-increasing ``U_EAI`` from a max
  heap, offer each to workers in non-increasing ``psi_{w,1}`` order, keep
  the top-k per worker in min-heaps, cascade evictions to the next
  worker, and stop when every heap is full and no remaining upper bound
  can beat any heap minimum.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.assign.common import AssignContext, mu_vector


def eai_quality(ctx: AssignContext, w: str, o: str) -> float:
    """EAI(w, o) per Eq. (14)–(18); ``w`` is one of ``ctx.workers``."""
    return _eai_row(ctx, o)[w]


def u_eai(ctx: AssignContext, o: str) -> float:
    """Lemma 4.1 upper bound."""
    mu = ctx.mu_map[o]
    n_obj = len(ctx.mu_map)
    return (1.0 - max(mu.values())) / (n_obj * (_state(ctx).D[o] + 1.0))


@dataclass
class _EAIState:
    """One round's EAI inputs and results, cached on the context."""

    N: dict[str, np.ndarray]  # N_ov aligned to object_info[o]["values"]
    D: dict[str, float]  # D_o
    psi: np.ndarray  # (W, 3): worker_psi of each of ctx.workers
    rows: dict[str, dict[str, float]] = field(default_factory=dict)  # o -> {w: EAI}


def _state(ctx: AssignContext) -> _EAIState:
    if ctx._eai is None:
        N, D = ctx.result.N, ctx.result.D
        if N is None or D is None:
            raise ValueError("EAI requires a TDH result with N/D tables")
        N = N.sort_values(["object", "value"])
        obj = N["object"].to_numpy()
        start = np.flatnonzero(np.r_[True, obj[1:] != obj[:-1]])
        ctx._eai = _EAIState(
            N=dict(zip(obj[start], np.split(N["N"].to_numpy(float), start[1:]))),
            D=dict(zip(D["object"], D["D"].astype(float).tolist())),
            psi=np.asarray([ctx.worker_psi(w) for w in ctx.workers]).reshape(-1, 3),
        )
    return ctx._eai


def _eai_row(ctx: AssignContext, o: str) -> dict[str, float]:
    """EAI(w, o) for every worker of the context, computed once per object."""
    rows = _state(ctx).rows
    if o not in rows:
        mu = mu_vector(ctx, o, ctx.object_info[o]["values"])
        if len(mu) == 1:
            q = np.zeros(len(ctx.workers))
        else:
            pv, mu_cond = incremental_em(ctx, o)
            # Eq. (15): E[max_v mu_cond] over the answer distribution pv;
            # matmul runs one BLAS dot per worker, as a per-pair `pv @ m` does
            e_max = (pv[:, None, :] @ mu_cond.max(axis=2)[:, :, None])[:, 0, 0]
            q = (e_max - mu.max()) / len(ctx.mu_map)
        rows[o] = dict(zip(ctx.workers, q.tolist()))
    return rows[o]


def incremental_em(ctx: AssignContext, o: str) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (16)–(18) for every worker ``w`` of the context at once.

    Returns ``pv[w, v']`` = P(v_o^w = v' | psi_w, mu_o) (Eq. 6) and
    ``mu_cond[w, v', v]``, the confidence of ``v`` after one incremental
    EM step from the cached ``N_ov``/``D_o`` with the answer ``v'``.
    """
    st = _state(ctx)
    mu = mu_vector(ctx, o, ctx.object_info[o]["values"])
    psi = st.psi[:, :, None, None]
    B1, B2, B3 = ctx.likelihood_basis(o)
    A = psi[:, 0] * B1 + psi[:, 1] * B2 + psi[:, 2] * B3  # (W, K', K)
    pv = A @ mu
    pv_safe = np.where(pv > 0, pv, 1.0)
    F = A * mu / pv_safe[:, :, None]  # f^v_{o,w|v'} of Eq. (16)
    return pv, (st.N[o] + F) / (st.D[o] + 1.0)  # Eq. (18)


def eai_assign(ctx: AssignContext, *, use_pruning: bool = True) -> dict[str, list[str]]:
    """Algorithm 1 (with the Lemma 4.1 pruning; disable to measure its
    benefit, cf. Figure 13)."""
    workers = sorted(ctx.workers, key=lambda w: -ctx.worker_psi(w)[0])
    # max-heap of (-U, o); tie-break by object id for determinism
    ub = {o: u_eai(ctx, o) for o in ctx.objects}
    h_ub = [(-u, o) for o, u in ub.items()]
    heapq.heapify(h_ub)
    heaps: dict[str, list[tuple[float, int, str]]] = {w: [] for w in workers}
    counter = itertools.count()
    n_eval = 0
    while h_ub:
        neg_u, o = heapq.heappop(h_ub)
        u_o = -neg_u
        if use_pruning and all(
            len(heaps[w]) == ctx.k and heaps[w][0][0] > u_o for w in workers
        ):
            break
        current = o
        for w in workers:
            if w in ctx.answered.get(current, set()):
                continue
            if (
                use_pruning
                and len(heaps[w]) == ctx.k
                and heaps[w][0][0] >= ub.get(current, u_o)
            ):
                continue
            q = eai_quality(ctx, w, current)
            n_eval += 1
            # (q, -counter): on equal quality the newest entry pops first,
            # which makes the Lemma 4.1 skip (heap-min ≥ U ≥ EAI) exactly
            # equivalent to insert-then-evict — pruning preserves results.
            heapq.heappush(heaps[w], (q, -next(counter), current))
            if len(heaps[w]) <= ctx.k:
                break
            _, _, evicted = heapq.heappop(heaps[w])
            if evicted == current:
                continue  # didn't make the cut; offer same object to next worker
            current = evicted  # cascade the evicted object to later workers
        # objects falling off the last worker's heap are dropped this round
    ctx.result.extras["_eai_evals"] = n_eval
    return {w: sorted(o for _, _, o in heaps[w]) for w in workers}
