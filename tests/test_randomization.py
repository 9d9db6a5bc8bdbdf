"""Re-randomization draws, seed derivation, and p-value mechanics."""

from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from villagenet import io as vio
from villagenet.core import CONTRAST_KINDS, DOSAGE_SCOPES, Individual, StudyPanel, TreatmentDesign
from villagenet.effects import ContrastSpec, effect_suite
from villagenet.networks import LayerNetwork
from villagenet.randomization import (
    RandomizationError,
    block_groups,
    derive_stream,
    permute_assignment,
    permutation_pvalue,
    pvalue_from_draws,
)
from villagenet.synth import SyntheticScenario, generate_panel

from conftest import make_panel
from draw_oracle import draw_by_id


class TestDeriveStream:
    def test_same_inputs_same_prefix(self):
        a = derive_stream(123, 7).random(16)
        b = derive_stream(123, 7).random(16)
        assert np.array_equal(a, b)

    def test_out_of_order_generation(self):
        forward = [derive_stream(9, i).random(4) for i in range(100)]
        backward = [derive_stream(9, i).random(4) for i in reversed(range(100))]
        for i in range(100):
            assert np.array_equal(forward[i], backward[99 - i])

    def test_distinct_draws_distinct_streams(self):
        assert not np.array_equal(derive_stream(5, 0).random(8),
                                  derive_stream(5, 1).random(8))

    def test_master_seeds_uncorrelated_chi2(self):
        u = derive_stream(1000, 0).random(4000)
        v = derive_stream(2000, 0).random(4000)
        counts = np.histogram2d(u, v, bins=4, range=[[0, 1], [0, 1]])[0]
        _, p, _, _ = sps.chi2_contingency(counts)
        assert p > 0.01


def design_panel(dosages: dict, assignments: dict) -> StudyPanel:
    """A panel of one member per household with the given design and no ties."""
    return make_panel({v: {"dosage": alpha,
                           "households": {h: [f"{h}m"] for h in assignments[v]},
                           "treated": [h for h, t in assignments[v].items() if t]}
                       for v, alpha in dosages.items()})


def id_draws(panel: StudyPanel, seed: int, n: int, blocks=None):
    """The first n re-randomizations of the panel, by id."""
    index = panel.index
    groups = block_groups(index.villages, blocks)
    return [draw_by_id(panel.design, permute_assignment(index, groups, derive_stream(seed, i)))
            for i in range(n)]


def two_arm_panel():
    return design_panel(
        {"a": 0.0, "b": 1.0},
        {"a": {"a1": False, "a2": False}, "b": {"b1": True, "b2": True}},
    )


class TestPermuteAssignment:
    def test_two_villages_two_possible_stage1_draws(self):
        seen = {(dosages["a"], dosages["b"]) for dosages, _ in id_draws(two_arm_panel(), 3, 64)}
        assert seen == {(0.0, 1.0), (1.0, 0.0)}

    def test_zero_dosage_village_never_treated(self):
        for dosages, treatments in id_draws(two_arm_panel(), 4, 32):
            for village, alpha in dosages.items():
                n_treated = sum(treatments[village].values())
                if alpha == 0.0:
                    assert n_treated == 0
                else:
                    assert n_treated == 2

    def test_dosage_multiset_preserved(self):
        panel = design_panel(
            {"a": 0.0, "b": 0.2, "c": 0.5, "d": 0.5},
            {"a": {"h1": False, "h2": False},
             "b": {"h3": False, "h4": False, "h5": False, "h6": False, "h7": True},
             "c": {"h8": True, "h9": False},
             "d": {"ha": True, "hb": False}},
        )
        want = Counter(panel.design.village_dosages.values())
        for dosages, _ in id_draws(panel, 5, 10_000):
            assert Counter(dosages.values()) == want

    def test_blocks_confine_permutation(self):
        panel = design_panel(
            {"a": 0.0, "b": 1.0, "c": 0.0, "d": 1.0},
            {"a": {"h1": False}, "b": {"h2": True},
             "c": {"h3": False}, "d": {"h4": True}},
        )
        blocks = {"a": "x", "b": "x", "c": "y", "d": "y"}
        for dosages, _ in id_draws(panel, 6, 50, blocks):
            assert {dosages["a"], dosages["b"]} == {0.0, 1.0}
            assert {dosages["c"], dosages["d"]} == {0.0, 1.0}

    def test_missing_block_label_errors(self):
        with pytest.raises(RandomizationError, match="villages without a block label"):
            block_groups(("a", "b"), {"a": "x"})


class TestPvalueFormula:
    def test_add_one_two_sided(self):
        draws = [2.0] * 68 + [0.5] * (1999 - 68)
        assert pvalue_from_draws(1.0, draws) == pytest.approx(69 / 2000)

    def test_constant_statistic_p_one(self):
        assert pvalue_from_draws(1.5, [1.5] * 100) == 1.0

    def test_monotone_in_observed(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(size=200)
        ps = [pvalue_from_draws(obs, draws) for obs in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert ps == sorted(ps, reverse=True)

    def test_lower_bound(self):
        assert pvalue_from_draws(99.0, list(range(10))) == pytest.approx(1 / 11)

    def test_one_sided(self):
        draws = [-1.0, 0.0, 1.0, 2.0]
        assert pvalue_from_draws(1.0, draws, sided="right") == pytest.approx(3 / 5)
        assert pvalue_from_draws(1.0, draws, sided="left") == pytest.approx(4 / 5)


def _perm_panel():
    villages = {
        "c1": {"dosage": 0.0,
               "households": {f"ch{k}": [f"c{k}"] for k in range(6)}},
        "t1": {"dosage": 0.5,
               "households": {f"th{k}": [f"t{k}"] for k in range(6)},
               "treated": ["th0", "th1", "th2"]},
    }
    edges = {
        ("c1", 1, "health"): [("c0", "c1"), ("c1", "c2"), ("c3", "c4")],
        ("c1", 3, "health"): [("c0", "c1"), ("c3", "c4")],
        ("t1", 1, "health"): [("t0", "t3"), ("t1", "t4"), ("t2", "t5"), ("t3", "t4")],
        ("t1", 3, "health"): [("t0", "t3"), ("t1", "t4")],
    }
    return make_panel(villages, edges)


class TestPermutationPvalue:
    SPEC = ContrastSpec(kind="total", dosage_scope="all", layer="health",
                        metric="degree")

    def test_deterministic_given_seed(self):
        panel = _perm_panel()
        r1 = permutation_pvalue(panel, self.SPEC, permutations=60, master_seed=11)
        r2 = permutation_pvalue(panel, self.SPEC, permutations=60, master_seed=11)
        assert r1 == r2

    def test_thread_count_invariance(self):
        panel = _perm_panel()
        serial = permutation_pvalue(panel, self.SPEC, permutations=40,
                                    master_seed=2, threads=1)
        parallel = permutation_pvalue(panel, self.SPEC, permutations=40,
                                      master_seed=2, threads=2)
        assert serial.null_draws == parallel.null_draws
        assert serial.p_value == parallel.p_value

    @pytest.mark.parametrize("kind", ["spillover_first_order", "spillover_higher_order"])
    @pytest.mark.parametrize("variant", [(), ("exclude_intra_household",)])
    def test_thread_count_invariance_of_exposure_groups(self, kind, variant):
        # the kernel's wave-1 skeleton (edges and components) goes to forked workers
        spec = ContrastSpec(kind=kind, dosage_scope="all", layer="health", metric="degree",
                            variant_flags=variant)
        serial, parallel = (permutation_pvalue(_rename_base(), spec, permutations=40,
                                               master_seed=7, threads=threads)
                            for threads in (1, 2))
        assert len(serial.null_draws) >= 36
        assert serial == parallel

    def test_pvalue_bounds(self):
        panel = _perm_panel()
        res = permutation_pvalue(panel, self.SPEC, permutations=30, master_seed=5)
        assert 1 / 31 <= res.p_value <= 1.0

    def test_suite_matches_single_spec(self):
        panel = _perm_panel()
        suite = effect_suite(panel, ["health"], ["degree"], ["all"], ["total"],
                             permutations=25, master_seed=9)
        single = permutation_pvalue(panel, self.SPEC, permutations=25, master_seed=9)
        assert suite[0].p_value == single.p_value

    def test_all_draws_skipped_errors(self):
        # First-order spillover with an edgeless wave-1 network: the focal
        # group is empty under every draw.
        villages = {
            "c1": {"dosage": 0.0, "households": {"h1": ["a"], "h2": ["b"]}},
            "t1": {"dosage": 0.5,
                   "households": {"g1": ["p"], "g2": ["q"]}, "treated": ["g1"]},
        }
        edges = {("c1", 1, "health"): [("a", "b")], ("c1", 3, "health"): [("a", "b")]}
        panel = make_panel(villages, edges)
        spec = ContrastSpec(kind="spillover_first_order", dosage_scope="all",
                            layer="health", metric="degree")
        with pytest.raises((RandomizationError, Exception)):
            permutation_pvalue(panel, spec, permutations=20, master_seed=1)

    def test_partial_skips_reported(self):
        # 12 singleton households; exactly one node is isolated at wave 1, so
        # the first-order group is empty only when that household is drawn.
        n = 12
        chain = [(f"t{k}", f"t{k+1}") for k in range(n - 2)]  # t11 isolated
        villages = {
            "c1": {"dosage": 0.0,
                   "households": {f"ch{k}": [f"c{k}"] for k in range(n)}},
            "t1": {"dosage": 0.05,
                   "households": {f"th{k}": [f"t{k}"] for k in range(n)},
                   "treated": ["th0"]},
        }
        c_chain = [(f"c{k}", f"c{k+1}") for k in range(n - 1)]
        edges = {
            ("c1", 1, "health"): c_chain, ("c1", 3, "health"): c_chain[:-2],
            ("t1", 1, "health"): chain, ("t1", 3, "health"): chain[:-2],
        }
        panel = make_panel(villages, edges)
        spec = ContrastSpec(kind="spillover_first_order", dosage_scope="all",
                            layer="health", metric="degree")
        res = permutation_pvalue(panel, spec, permutations=300, master_seed=3)
        assert 0 < res.skipped <= 30
        assert len(res.null_draws) == 300 - res.skipped
        assert res.p_value >= 1 / (1 + 300)


RENAME_SCENARIO = {
    "seed": 13,
    "arms": [[0.0, 2], [0.2, 2], [0.75, 2]],
    "village_size": [12, 18],
    "household_size": [1, 4],
    "layers": ["health", "friendship", "financial"],
    "edge_density": {"health": 0.12, "friendship": 0.15, "financial": 0.10},
    "p_keep": {"UoUo": 0.6, "TU": 0.4},
    "p_form": {"UoUo": 0.03, "TT": 0.08},
}
# Any id characters but the "|" that joins a network key in the panel archive.
ID_TEXT = st.text(st.characters(exclude_characters="|", exclude_categories=("Cs",)),
                  min_size=1, max_size=5)


@cache
def _rename_base() -> StudyPanel:
    panel, _ = generate_panel(SyntheticScenario.from_dict(RENAME_SCENARIO))
    return panel


def _suite(panel: StudyPanel) -> list:
    # every kind but the higher-order spillover, whose focal group is empty in
    # this small panel's high-dosage villages
    kinds = [k for k in CONTRAST_KINDS if k != "spillover_higher_order"]
    return effect_suite(panel, ["health", "aggregated"], ["degree", "in_degree", "closeness"],
                        DOSAGE_SCOPES, kinds, permutations=20, master_seed=3)


@cache
def _base_suite() -> str:
    return repr(_suite(_rename_base()))


def _order_preserving(old_ids, draw) -> dict[str, str]:
    """Sorted old ids onto as many sorted, distinct new ids drawn by hypothesis."""
    old = sorted(set(old_ids))
    new = sorted(draw(st.lists(ID_TEXT, min_size=len(old), max_size=len(old), unique=True)))
    return dict(zip(old, new))


def _renamed(panel: StudyPanel, ind: dict, hh: dict, vil: dict) -> StudyPanel:
    individuals = {
        ind[i.id]: Individual(id=ind[i.id], household_id=hh[i.household_id],
                              village_id=vil[i.village_id], treated=i.treated,
                              covariates=i.covariates)
        for i in panel.individuals.values()
    }
    design = TreatmentDesign(
        {vil[v]: a for v, a in panel.design.village_dosages.items()},
        {vil[v]: {hh[h]: t for h, t in houses.items()}
         for v, houses in panel.design.assignments.items()})
    networks = {
        (vil[v], wave, layer): LayerNetwork(vil[v], wave, layer,
                                            tuple(ind[n] for n in net.nodes),
                                            [(ind[a], ind[b]) for a, b in net.edges],
                                            directed=net.directed)
        for (v, wave, layer), net in panel.networks.items()
    }
    return StudyPanel(individuals, design, networks)


class TestRenaming:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_order_preserving_renaming_keeps_estimates_and_pvalues(self, data, tmp_path_factory):
        """Renaming individuals, households and villages in sorted order changes nothing.

        The estimates and p-values depend on ids only through their sorted
        order: every index (individuals, villages, each village's households)
        is built over sorted ids, and each draw permutes the dosages over the
        sorted villages and chooses treated households among each village's
        sorted households, so a renaming that keeps every order gives the same
        draws, the same groups and the same sums in the same order. The
        renamed panel goes through the panel archive and back.
        """
        panel = _rename_base()
        people = panel.individuals.values()
        ind = _order_preserving([i.id for i in people], data.draw)
        hh = _order_preserving([i.household_id for i in people], data.draw)
        vil = _order_preserving(panel.villages, data.draw)
        path = tmp_path_factory.mktemp("renamed") / "panel.json"
        vio.write_panel(_renamed(panel, ind, hh, vil), path)
        assert repr(_suite(vio.read_panel(path))) == _base_suite()


class TestSharedDraws:
    """One run draws each null assignment once, and every (layer, variant) kernel reads it."""

    LAYERS = ("health", "aggregated")
    VARIANTS = ((), ("exclude_intra_household",))
    M = 12

    def _suite(self, panel, layers, variants, threads, blocks):
        return effect_suite(panel, layers, ["degree", "closeness"], ["all"],
                            ["overall", "total", "spillover", "direct"], variants,
                            permutations=self.M, master_seed=4, threads=threads, blocks=blocks)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("blocked", [False, True])
    def test_one_draw_loop_matches_per_kernel_runs(self, threads, blocked, monkeypatch):
        import concurrent.futures
        import multiprocessing

        from villagenet import randomization

        panel = _rename_base()
        blocks = ({v: "xy"[k % 2] for k, v in enumerate(panel.villages)} if blocked
                  else None)
        draws = multiprocessing.get_context("fork").Value("i", 0)  # shared with forked workers
        counts = Counter()
        real_draw, real_groups = randomization.permute_assignment, randomization.block_groups
        real_pool = concurrent.futures.ProcessPoolExecutor

        def permute_assignment(*args):
            with draws.get_lock():
                draws.value += 1
            return real_draw(*args)

        def block_groups(*args):
            counts["groups"] += 1
            return real_groups(*args)

        class Pool(real_pool):
            def __init__(self, *args, **kwargs):
                counts["pools"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(randomization, "permute_assignment", permute_assignment)
        monkeypatch.setattr(randomization, "block_groups", block_groups)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        shared = self._suite(panel, self.LAYERS, self.VARIANTS, threads, blocks)
        assert draws.value == self.M
        assert counts == Counter(groups=1, pools=int(threads > 1))
        assert len(shared) == 2 * 2 * 2 * 4

        separate = [est for layer in self.LAYERS for variant in self.VARIANTS
                    for est in self._suite(panel, [layer], [variant], threads, blocks)]
        assert repr(shared) == repr(separate)
