"""Tests for the TDH EM reference engine (model math of §3)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    candidate_codes,
    candidate_sets,
    hierarchical_ancestor_pairs,
)
from repro.core.tdh_local import TDH, _expand_side, _prepare
from repro.datagen.truthdata import birthplaces_lite
from repro.eval import metrics as M
from repro.hierarchy import Hierarchy
from repro.hierarchy.tree import ROOT


@pytest.fixture()
def h():
    return Hierarchy(
        {
            ROOT: None,
            "USA": ROOT,
            "UK": ROOT,
            "NY": "USA",
            "LibertyIsland": "NY",
            "LA": "USA",
            "London": "UK",
            "Manchester": "UK",
        }
    )


def _records(rows):
    return pd.DataFrame(rows, columns=["object", "source", "value"])


def _fit(records, h, answers=None, **kw):
    cand = candidate_sets(records)
    anc = hierarchical_ancestor_pairs(cand, h)
    return TDH(**kw).fit(records, answers, anc)


class TestStatueOfLiberty:
    """The paper's running example (Table 1)."""

    def test_hierarchy_resolves_generalized_conflict(self, h):
        # UNESCO says NY, Wikipedia says Liberty Island, Arrangy says LA;
        # supporting sources elsewhere establish reliabilities.
        rows = [
            ("statue", "unesco", "NY"),
            ("statue", "wikipedia", "LibertyIsland"),
            ("statue", "arrangy", "LA"),
            ("bigben", "quora", "Manchester"),
            ("bigben", "tripadvisor", "London"),
            # extra corroborating objects so EM can tell sources apart
            ("o1", "unesco", "USA"),
            ("o1", "wikipedia", "NY"),
            ("o1", "tripadvisor", "NY"),
            ("o2", "wikipedia", "London"),
            ("o2", "tripadvisor", "London"),
            ("o2", "arrangy", "LA"),
            ("o3", "wikipedia", "LA"),
            ("o3", "unesco", "LA"),
            ("o3", "arrangy", "UK"),
        ]
        res = _fit(_records(rows), h)
        # NY and LibertyIsland do not conflict; the most specific wins
        assert res.truth_map()["statue"] == "LibertyIsland"

    def test_confidences_sum_to_one(self, h):
        rows = [
            ("statue", "unesco", "NY"),
            ("statue", "wikipedia", "LibertyIsland"),
            ("statue", "arrangy", "LA"),
        ]
        res = _fit(_records(rows), h)
        sums = res.mu.groupby("object")["mu"].sum()
        assert np.allclose(sums, 1.0)


class TestEMInvariants:
    @pytest.fixture(scope="class")
    def ds(self):
        return birthplaces_lite(sf=0.02, seed=0)

    @pytest.fixture(scope="class")
    def res(self, ds):
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        return TDH().fit(ds.records, None, anc)

    def test_mu_is_distribution(self, res):
        assert np.allclose(res.mu.groupby("object")["mu"].sum(), 1.0)
        assert (res.mu["mu"] >= 0).all()

    def test_phi_is_distribution(self, res):
        assert np.allclose(res.phi[["phi1", "phi2", "phi3"]].sum(axis=1), 1.0)
        assert (res.phi[["phi1", "phi2", "phi3"]].to_numpy() >= 0).all()

    def test_truths_are_candidates(self, ds, res):
        cand = set(map(tuple, candidate_sets(ds.records).to_numpy()))
        assert all((o, v) in cand for o, v in res.truths.to_numpy())

    def test_every_object_gets_truth(self, ds, res):
        assert set(res.truths["object"]) == set(ds.records["object"].unique())

    def test_N_D_consistent_with_mu(self, res):
        """Eq. (9): mu = N/D at convergence (within EM tolerance)."""
        m = res.mu.merge(res.N, on=["object", "value"]).merge(res.D, on="object")
        assert np.allclose(m["mu"], m["N"] / m["D"], atol=1e-4)

    def test_D_formula(self, ds, res):
        """D_o = |S_o| + |W_o| + |V_o| for gamma=2 (no answers here)."""
        s = ds.records.groupby("object").size()
        nv = candidate_sets(ds.records).groupby("object").size()
        d = res.D.set_index("object")["D"]
        for o in s.index:
            assert d[o] == pytest.approx(s[o] + nv[o])

    def test_deterministic(self, ds):
        cand = candidate_sets(ds.records)
        anc = hierarchical_ancestor_pairs(cand, ds.hierarchy)
        r1 = TDH().fit(ds.records, None, anc)
        r2 = TDH().fit(ds.records, None, anc)
        pd.testing.assert_frame_equal(r1.mu, r2.mu)

    def test_convergence_flag(self, ds, res):
        assert 1 <= res.extras["n_iter"] <= 100

    def test_beats_majority_vote(self, ds, res):
        from repro.baselines.vote import vote

        cand = candidate_sets(ds.records)
        gold = M.map_gold_to_candidates(ds.gold, cand, ds.hierarchy)
        assert M.accuracy(res.truths, gold) >= M.accuracy(vote(ds.records).truths, gold)


class TestFitDiagnostics:
    @pytest.fixture(scope="class")
    def bp(self):
        ds = birthplaces_lite(sf=0.1, seed=0)
        return ds, hierarchical_ancestor_pairs(candidate_sets(ds.records), ds.hierarchy)

    def test_round_loop_cap_is_reported(self, bp):
        """The round loop's ``TDH(max_iter=60)`` stops before ``tol``."""
        from repro.eval.simulate import INFERENCE

        ds, anc = bp
        res = INFERENCE["TDH"](ds, None, anc, ds.records, None)
        assert res.extras["n_iter"] == 60
        assert res.extras["converged"] is False
        assert res.extras["final_delta"] >= 1e-7

    def test_converged_fit(self, bp):
        ds, anc = bp
        res = TDH(max_iter=400).fit(ds.records, None, anc)
        assert res.extras["n_iter"] < 400
        assert res.extras["converged"] is True
        assert 0.0 <= res.extras["final_delta"] < 1e-7


class TestWorkerSide:
    def test_answers_change_mu(self, h):
        rows = [
            ("o1", "s1", "NY"),
            ("o1", "s2", "LA"),
            ("o2", "s1", "London"),
            ("o2", "s2", "London"),
            ("o2", "s3", "UK"),
        ]
        recs = _records(rows)
        answers = pd.DataFrame(
            [("o1", "w1", "LA"), ("o1", "w2", "LA"), ("o1", "w3", "LA")],
            columns=["object", "worker", "value"],
        )
        r_no = _fit(recs, h)
        r_yes = _fit(recs, h, answers=answers)
        mu_no = r_no.mu_map()["o1"]["LA"]
        mu_yes = r_yes.mu_map()["o1"]["LA"]
        assert mu_yes > mu_no
        assert r_yes.truth_map()["o1"] == "LA"

    def test_psi_reported_per_worker(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA")])
        answers = pd.DataFrame(
            [("o1", "w1", "NY")], columns=["object", "worker", "value"]
        )
        res = _fit(recs, h, answers=answers)
        assert list(res.psi["worker"]) == ["w1"]
        assert np.allclose(res.psi[["psi1", "psi2", "psi3"]].sum(axis=1), 1.0)

    def test_answer_outside_candidates_rejected(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA")])
        answers = pd.DataFrame(
            [("o1", "w1", "London")], columns=["object", "worker", "value"]
        )
        with pytest.raises(ValueError, match="not a candidate"):
            _fit(recs, h, answers=answers)

    def test_duplicate_answer_rejected(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA")])
        answers = pd.DataFrame(
            [("o1", "w1", "NY"), ("o1", "w1", "LA")],
            columns=["object", "worker", "value"],
        )
        with pytest.raises(ValueError, match="at most one"):
            _fit(recs, h, answers=answers)


class TestModelStructure:
    def test_duplicate_record_rejected(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s1", "LA")])
        with pytest.raises(ValueError, match="at most one claim"):
            _fit(recs, h)

    def test_generalization_detected(self, h):
        """A source that always claims the parent of the consensus value
        should get high phi2, not low phi1+high phi3."""
        rows = []
        cities = ["NY", "LA", "London", "Manchester"]
        parents = {"NY": "USA", "LA": "USA", "London": "UK", "Manchester": "UK"}
        for i, c in enumerate(cities * 3):
            o = f"o{i}"
            rows += [
                (o, "exact1", c),
                (o, "exact2", c),
                (o, "generalizer", parents[c]),
            ]
        res = _fit(_records(rows), h)
        phi = res.phi.set_index("source")
        assert phi.loc["generalizer", "phi2"] > phi.loc["generalizer", "phi3"]
        assert phi.loc["generalizer", "phi2"] > phi.loc["exact1", "phi2"]
        assert phi.loc["exact1", "phi1"] > phi.loc["generalizer", "phi1"]

    def test_flat_objects_use_collapsed_model(self, h):
        """Objects without ancestor pairs (o ∉ O_H) still infer fine and
        split credit between phi1 and phi2 (Eq. 2)."""
        rows = [
            ("o1", "s1", "NY"), ("o1", "s2", "NY"), ("o1", "s3", "LA"),
            ("o2", "s1", "London"), ("o2", "s2", "London"), ("o2", "s3", "London"),
        ]
        res = _fit(_records(rows), h)
        assert res.truth_map() == {"o1": "NY", "o2": "London"}

    def test_single_candidate_object(self, h):
        rows = [("o1", "s1", "NY"), ("o1", "s2", "NY")]
        res = _fit(_records(rows), h)
        assert res.truth_map()["o1"] == "NY"
        assert res.mu_map()["o1"]["NY"] == pytest.approx(1.0)

    def test_prepare_marks_oh_objects(self, h):
        recs = _records(
            [("o1", "s1", "NY"), ("o1", "s2", "USA"), ("o2", "s1", "LA"), ("o2", "s2", "London")]
        )
        cand = candidate_sets(recs)
        anc = hierarchical_ancestor_pairs(cand, h)
        p = _prepare(recs, None, anc)
        objs = p["objects"]
        assert bool(p["oh"][objs.index("o1")]) is True
        assert bool(p["oh"][objs.index("o2")]) is False

    def test_object_info_in_extras(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "USA")])
        res = _fit(recs, h)
        info = res.extras["object_info"]
        assert info["o1"]["oh"] is True
        assert info["o1"]["S"] == 2.0
        assert set(info["o1"]["values"]) == {"NY", "USA"}


class TestPriors:
    def test_alpha_prior_shapes_phi_with_no_data_signal(self, h):
        # single object, single source: phi should stay near prior mean
        res = _fit(_records([("o1", "s1", "NY")]), h, max_iter=5)
        phi = res.phi.iloc[0]
        assert phi["phi1"] + phi["phi2"] > phi["phi3"]

    def test_custom_gamma_changes_smoothing(self, h):
        recs = _records([("o1", "s1", "NY"), ("o1", "s2", "LA"), ("o1", "s3", "LA")])
        strong = _fit(recs, h, gamma=5.0).mu_map()["o1"]["LA"]
        weak = _fit(recs, h, gamma=2.0).mu_map()["o1"]["LA"]
        assert strong < weak  # heavier prior pulls toward uniform


# ----------------------------------------------------------------------
# Expansion oracle: the per-claim loop of Eq. (1)–(4) is the specification
# of the vectorised ``_prepare``/``_expand_side``.


def _reference_stats(records, anc_pairs):
    cand = candidate_sets(records)
    objects = sorted(cand["object"].unique())
    ocode = {o: i for i, o in enumerate(objects)}
    cid_of = {(o, v): c for c, (o, v) in enumerate(zip(cand["object"], cand["value"]))}
    obj_of_cand = np.asarray([ocode[o] for o in cand["object"]])
    anc_cids = {
        (cid_of[(o, v)], cid_of[(o, a)])
        for o, v, a in anc_pairs[["object", "value", "anc"]].itertuples(index=False)
    }
    nG, gen_cnt, cnt = np.zeros(len(cand)), np.zeros(len(cand)), np.zeros(len(cand))
    oh, S = np.zeros(len(objects), dtype=bool), np.zeros(len(objects))
    for o, v in zip(records["object"], records["value"]):
        cnt[cid_of[(o, v)]] += 1.0
        S[ocode[o]] += 1.0
    for d, a in anc_cids:
        nG[d] += 1
        gen_cnt[d] += cnt[a]
        oh[obj_of_cand[d]] = True
    cands_by_obj = {}
    for c, k in enumerate(obj_of_cand):
        cands_by_obj.setdefault(k, []).append(c)
    return dict(
        ocode=ocode, cid_of=cid_of, anc_cids=anc_cids, cands_by_obj=cands_by_obj,
        nV=np.bincount(obj_of_cand).astype(float), nG=nG, oh=oh, cnt=cnt,
        gen_cnt=gen_cnt, S=S,
    )


def _reference_side(claims, agent_col, ref, *, popularity):
    """(row, agent, cand, rel, coef) of one side, built claim by claim."""
    acode = {a: i for i, a in enumerate(sorted(claims[agent_col].unique()))}
    nV, nG, oh, cnt, gen_cnt, S = (ref[k] for k in ("nV", "nG", "oh", "cnt", "gen_cnt", "S"))
    out = []
    for i, (o, a, v) in enumerate(zip(claims["object"], claims[agent_col], claims["value"])):
        oc, claim = ref["ocode"][o], ref["cid_of"][(o, v)]
        for c in ref["cands_by_obj"][oc]:
            if c == claim:
                pairs = [(1, 1.0)] if oh[oc] else [(1, 1.0), (2, 1.0)]
            elif (c, claim) in ref["anc_cids"]:
                pairs = [(2, cnt[claim] / gen_cnt[c] if popularity else 1.0 / nG[c])]
            elif oh[oc]:
                den = S[oc] - cnt[c] - gen_cnt[c] if popularity else nV[oc] - nG[c] - 1.0
                num = cnt[claim] if popularity else 1.0
                pairs = [(3, num / den if den > 0 else 0.0)]
            elif popularity:
                den = S[oc] - cnt[c]
                pairs = [(3, cnt[claim] / den if den > 0 else 0.0)]
            else:
                pairs = [(3, 1.0 / (nV[oc] - 1.0))]
            out += [(i, acode[a], c, rel, coef) for rel, coef in pairs]
    row, agent, cand, rel, coef = zip(*out)
    return [np.asarray(x) for x in (row, agent, cand, rel, coef)]


def _assert_side(side, expected):
    got = (side.row, side.agent, side.cand, side.rel, side.coef)
    for name, g, e in zip(("row", "agent", "cand", "rel", "coef"), got, expected):
        assert np.array_equal(g, e, equal_nan=True), name


@st.composite
def _instances(draw):
    """Up to 4 objects with 1–4 candidates, random ancestor pairs (possibly
    none, possibly repeated), 1–5 source claims and 0–3 worker answers."""
    vocab = ["a", "b", "c", "d"]
    rec, ans, anc = [], [], []
    for k in range(draw(st.integers(1, 4))):
        o = f"o{k}"
        claims = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=5))
        rec += [(o, f"s{i}", v) for i, v in enumerate(claims)]
        cands = sorted(set(claims))
        for i, j in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4)):
            if i < len(cands) and j < len(cands) and i != j:
                anc.append((o, cands[i], cands[j]))
        for w in range(3):
            if draw(st.booleans()):
                ans.append((o, f"w{w}", draw(st.sampled_from(cands))))
    return (
        pd.DataFrame(rec, columns=["object", "source", "value"]),
        pd.DataFrame(ans, columns=["object", "worker", "value"]),
        pd.DataFrame(anc, columns=["object", "value", "anc"]),
    )


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_expansion_matches_per_claim_loop(inst):
    """Flat and single-candidate objects, no answers and repeated ancestor
    pairs: ``_prepare`` gives the loop's statistics and rows, in order."""
    rec, ans, anc = inst
    p = _prepare(rec, ans, anc)
    ref = _reference_stats(rec, anc)
    for key, ref_key in (("nV", "nV"), ("nG", "nG"), ("oh", "oh"), ("cnt", "cnt"),
                         ("gen_cnt", "gen_cnt"), ("S_per_obj", "S")):
        assert np.array_equal(p[key], ref[ref_key]), key
    rec_sorted = rec.sort_values(["object", "source"]).reset_index(drop=True)
    _assert_side(p["src"], _reference_side(rec_sorted, "source", ref, popularity=False))
    if len(ans):
        ans_sorted = ans.sort_values(["object", "worker"]).reset_index(drop=True)
        _assert_side(p["wrk"], _reference_side(ans_sorted, "worker", ref, popularity=True))
    else:
        assert p["wrk"] is None


@settings(max_examples=60, deadline=None)
@given(_instances(), st.data())
def test_expansion_zero_coefficient_when_den_not_positive(inst, data):
    """Popularity counts drawn freely (zeros included), so Eq. (3)–(4)'s
    ``Pop3`` denominator can be ≤ 0; both give those rows coefficient 0."""
    rec, ans, anc = inst
    if not len(ans):
        return
    p = _prepare(rec, ans, anc)
    ref = _reference_stats(rec, anc)
    n = p["n_cand"]
    cnt = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
    S = np.asarray(data.draw(
        st.lists(st.integers(0, 3), min_size=p["n_obj"], max_size=p["n_obj"])), float)
    gen_cnt = np.zeros(n)
    for d, a in ref["anc_cids"]:
        gen_cnt[d] += cnt[a]
    ref.update(cnt=cnt, gen_cnt=gen_cnt, S=S)
    stats = dict(p, cnt=cnt, gen_cnt=gen_cnt, S_per_obj=S)
    ans = ans.sort_values(["object", "worker"]).reset_index(drop=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # Pop2 with gen_cnt = 0
        side = _expand_side(
            candidate_codes(p["cand_index"], ans["object"], ans["value"]), ans["worker"], stats,
            popularity=True,
        )
        _assert_side(side, _reference_side(ans, "worker", ref, popularity=True))
