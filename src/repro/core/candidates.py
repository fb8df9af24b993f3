"""Candidate sets and per-object ancestor pairs.

``V_o`` (candidate values of object ``o``) is the set of distinct values
claimed by the *sources* (workers answer by selecting from ``V_o``, so
answers never extend it). ``G_o(v)`` is the set of candidates that are
ancestors of ``v`` in the hierarchy (root excluded); ``D_o(v)`` its
descendants. Both are derived from the per-object *ancestor-pair*
relation ``(object, value, anc)`` produced here — either from a
:class:`~repro.hierarchy.Hierarchy` or from the numeric rounding rule.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.hierarchy import Hierarchy
from repro.hierarchy.numeric import numeric_ancestor_pairs


def candidate_sets(records: pd.DataFrame) -> pd.DataFrame:
    """Distinct (object, value) pairs, sorted — the candidate sets ``V_o``."""
    return (
        records[["object", "value"]]
        .drop_duplicates()
        .sort_values(["object", "value"])
        .reset_index(drop=True)
    )


def hierarchical_ancestor_pairs(
    candidates: pd.DataFrame, hierarchy: Hierarchy
) -> pd.DataFrame:
    """(object, value, anc) rows with ``anc ∈ G_o(value)``.

    Both endpoints must be candidates of the same object; the hierarchy
    root never appears (the paper excludes it from ``G_o``).
    """
    closure = hierarchy.closure_pdf()  # (desc, anc), root excluded already
    if closure.empty or candidates.empty:
        return pd.DataFrame(columns=["object", "value", "anc"])
    pairs = candidates.merge(closure, left_on="value", right_on="desc")
    pairs = pairs.merge(
        candidates.rename(columns={"value": "anc"}), on=["object", "anc"]
    )
    return (
        pairs[["object", "value", "anc"]]
        .sort_values(["object", "value", "anc"])
        .reset_index(drop=True)
    )


def numeric_ancestor_pairs_df(candidates: pd.DataFrame) -> pd.DataFrame:
    """(object, value, anc) rows under the §3.2 numeric rounding rule."""
    rows: list[tuple[str, str, str]] = []
    for obj, grp in candidates.groupby("object", sort=True):
        for desc, anc in sorted(numeric_ancestor_pairs(list(grp["value"]))):
            rows.append((obj, desc, anc))
    return pd.DataFrame(rows, columns=["object", "value", "anc"])


def candidate_codes(index: pd.MultiIndex, objects, values) -> np.ndarray:
    """Position of each (object, value) pair in ``index``, the candidates'
    (object, value) rows; -1 where the pair is not a candidate."""
    return index.get_indexer(pd.MultiIndex.from_arrays([objects, values]))


def candidate_stats(records: pd.DataFrame, anc_pairs: pd.DataFrame) -> dict:
    """Integer-coded candidates and the popularity statistics of Eq. (1)–(4).

    Candidate ids are the rows of :func:`candidate_sets`, so each object's
    candidates are one contiguous id range. Ancestor pairs become the
    sorted unique keys ``anc_key = desc_id * n_cand + anc_id``; a pair
    whose endpoints are not candidates of its object is rejected.
    """
    cand = candidate_sets(records)
    index = pd.MultiIndex.from_frame(cand)
    obj_of_cand, objects = pd.factorize(cand["object"])  # cand is sorted
    n_obj, n_cand = len(objects), len(cand)
    anc_key = np.zeros(0, dtype=int)
    if len(anc_pairs):
        d = candidate_codes(index, anc_pairs["object"], anc_pairs["value"])
        a = candidate_codes(index, anc_pairs["object"], anc_pairs["anc"])
        bad = (d < 0) | (a < 0)
        if bad.any():
            o, v, an = anc_pairs[["object", "value", "anc"]].to_numpy()[bad.argmax()]
            raise ValueError(f"ancestor pair ({o},{v},{an}) not in candidate set")
        anc_key = np.unique(d * n_cand + a)
    anc_d, anc_a = np.divmod(anc_key, n_cand)
    rec_cid = candidate_codes(index, records["object"], records["value"])
    cnt = np.bincount(rec_cid, minlength=n_cand).astype(float)
    oh = np.zeros(n_obj, dtype=bool)
    oh[obj_of_cand[anc_d]] = True
    return {
        "n_obj": n_obj,
        "n_cand": n_cand,
        "objects": list(objects),
        "cand": cand,
        "cand_index": index,
        "obj_of_cand": obj_of_cand,
        "rec_cid": rec_cid,  # candidate id of each record, in input order
        "anc_key": anc_key,
        "nV": np.bincount(obj_of_cand, minlength=n_obj).astype(float),
        "nG": np.bincount(anc_d, minlength=n_cand).astype(float),
        "oh": oh,
        "cnt": cnt,
        "gen_cnt": np.bincount(anc_d, cnt[anc_a], minlength=n_cand),
        "S_per_obj": np.bincount(obj_of_cand[rec_cid], minlength=n_obj).astype(float),
    }


def object_info(records: pd.DataFrame, anc_pairs: pd.DataFrame) -> dict[str, dict]:
    """Per-object candidate structure used by the task assigners.

    Maps object → dict with:

    * ``values``: sorted candidate list (local index space),
    * ``anc``: set of (desc_idx, anc_idx) pairs within the candidates,
    * ``cnt``: per-candidate source-claim counts (Pop numerators),
    * ``gen_cnt``: sum of ``cnt`` over each candidate's ancestors,
    * ``S``: |S_o|, ``oh``: whether o ∈ O_H.

    Everything needed to evaluate the worker answer likelihood
    P(v'|v, psi_w) of Eq. (3)/(4) per object.
    """
    st = candidate_stats(records, anc_pairs)
    obj_of_cand, n_obj = st["obj_of_cand"], st["n_obj"]
    start = np.searchsorted(obj_of_cand, np.arange(n_obj + 1))
    d, a = np.divmod(st["anc_key"], st["n_cand"])
    d_obj = obj_of_cand[d]
    pairs = list(zip((d - start[d_obj]).tolist(), (a - start[d_obj]).tolist()))
    pair_start = np.searchsorted(d_obj, np.arange(n_obj + 1)).tolist()
    values = st["cand"]["value"].tolist()
    cnt, gen_cnt = st["cnt"], st["gen_cnt"]
    start = start.tolist()
    S, oh = st["S_per_obj"].tolist(), st["oh"].tolist()
    return {
        o: {
            "values": values[start[j] : start[j + 1]],
            "anc": set(pairs[pair_start[j] : pair_start[j + 1]]),
            "cnt": cnt[start[j] : start[j + 1]],
            "gen_cnt": gen_cnt[start[j] : start[j + 1]],
            "S": S[j],
            "oh": oh[j],
        }
        for j, o in enumerate(st["objects"])
    }
