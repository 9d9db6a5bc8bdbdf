"""Ingestion, inclusion criteria, and layer construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from villagenet.core import (
    ALLOWED_DOSAGES,
    DEFAULT_LAYER_SPECS,
    IngestionError,
    Individual,
    aggregate_layers,
    apply_inclusion_criteria,
    build_panel,
    directed_union,
    dosage_group,
    infer_design,
    residual_network,
    treated_household_count,
)
from villagenet.networks import LayerNetwork, NetworkError

from conftest import make_panel
from ingest_oracle import (
    RosterRow,
    SurveyResponse,
    response_rows,
    response_table,
    roster_rows,
    roster_table,
)

HEALTH = DEFAULT_LAYER_SPECS[0]
FRIEND = DEFAULT_LAYER_SPECS[1]
MONEY = DEFAULT_LAYER_SPECS[2]


def row(iid, hid="h1", vid="v1", treated=False, w1=True, w3=True, **kw):
    return RosterRow(individual_id=iid, household_id=hid, village_id=vid,
                     treated=treated, wave1_present=w1, wave3_present=w3, **kw)


def resp(ego, alter, wave=1, village="v1", question="health_advice_get", line=None):
    return SurveyResponse(wave=wave, village_id=village, question_id=question,
                          ego=ego, alter=alter, line=line)


def inclusion(roster, responses):
    """apply_inclusion_criteria on rows: tables in, rows out."""
    kept, kept_responses, report = apply_inclusion_criteria(
        roster_table(roster), response_table(responses))
    return roster_rows(kept), response_rows(kept_responses), report


def build_layer(responses, layer_spec, village, wave, nodes):
    """The (village, wave, layer) network build_panel makes from these responses."""
    roster = [row(node, hid=f"h_{node}", vid=village) for node in nodes]
    panel = build_panel(roster_table(roster), response_table(responses))
    return panel.networks[(village, wave, layer_spec.layer)]


def panel_of(roster, responses):
    return build_panel(roster_table(roster), response_table(responses))


class TestInclusion:
    def test_kept_when_stable_both_waves(self):
        roster = [row("a"), row("b", hid="h2")]
        kept, _, report = inclusion(roster, [])
        assert [r.individual_id for r in kept] == ["a", "b"]
        assert report.individuals == {}

    def test_mover_dropped_with_reason(self):
        roster = [row("a"), row("b", hid="h2", wave3_household_id="h9")]
        kept, _, report = inclusion(roster, [])
        assert [r.individual_id for r in kept] == ["a"]
        assert report.individuals == {"moved": 1}

    def test_village_mover_dropped(self):
        roster = [row("a", wave3_village_id="v9")]
        kept, _, report = inclusion(roster, [])
        assert kept == [] and report.individuals == {"moved": 1}

    def test_absent_either_wave_dropped(self):
        roster = [row("a", w1=False), row("b", hid="h2", w3=False)]
        _, _, report = inclusion(roster, [])
        assert report.individuals == {"absent": 2}

    def test_incomplete_forms_dropped(self):
        roster = [row("a", forms_complete=False)]
        _, _, report = inclusion(roster, [])
        assert report.individuals == {"incomplete_forms": 1}

    def test_empty_roster_empty_output(self):
        kept, responses, report = inclusion([], [])
        assert kept == [] and responses == [] and report.individuals == {}

    def test_response_to_excluded_alter_drops_edge_only(self):
        roster = [row("a"), row("b", hid="h2", w3=False)]
        kept, responses, report = inclusion(roster, [resp("a", "b")])
        assert [r.individual_id for r in kept] == ["a"]
        assert responses == []
        assert report.responses == {"excluded_alter": 1}

    def test_unknown_individual_is_error(self):
        with pytest.raises(IngestionError, match="ghost"):
            inclusion([row("a")], [resp("a", "ghost")])

    def test_cross_village_nomination_dropped_and_counted(self):
        roster = [row("a"), row("b", hid="h2", vid="v2")]
        _, responses, report = inclusion(roster, [resp("a", "b")])
        assert responses == []
        assert report.responses == {"cross_village": 1}

    def test_duplicate_roster_id_is_error(self):
        with pytest.raises(IngestionError, match="duplicate"):
            inclusion([row("a"), row("a")], [])

    def test_order_independence(self):
        roster = [row("a"), row("b", hid="h2"), row("c", hid="h3", w3=False)]
        responses = [resp("a", "b"), resp("b", "a", question="health_advice_give")]
        kept1, resp1, _ = inclusion(roster, responses)
        kept2, resp2, _ = inclusion(roster[::-1], responses[::-1])
        assert kept1 == kept2
        assert sorted(map(repr, resp1)) == sorted(map(repr, resp2))


class TestBuildLayer:
    NODES = ("a", "b", "c")

    def test_straight_question_gives_ego_to_alter(self):
        net = build_layer([resp("a", "b")], HEALTH, "v1", 1, self.NODES)
        assert net.edges == frozenset({("a", "b")})

    def test_inverted_question_gives_alter_to_ego(self):
        net = build_layer([resp("a", "b", question="health_advice_give")],
                          HEALTH, "v1", 1, self.NODES)
        assert net.edges == frozenset({("b", "a")})

    def test_duplicate_nominations_collapse(self):
        responses = [resp("a", "b", question="friend_personal"),
                     resp("a", "b", question="friend_free_time")]
        net = build_layer(responses, FRIEND, "v1", 1, self.NODES)
        assert net.edges == frozenset({("a", "b")})

    def test_unknown_question_is_error(self):
        with pytest.raises(IngestionError, match="bogus_question"):
            build_layer([resp("a", "b", question="bogus_question")],
                        HEALTH, "v1", 1, self.NODES)

    def test_self_nomination_is_error(self):
        with pytest.raises(IngestionError, match="self-nomination"):
            build_layer([resp("a", "a", line=4)], HEALTH, "v1", 1, self.NODES)

    def test_nodes_cover_all_villagers_with_isolates(self):
        net = build_layer([resp("a", "b")], HEALTH, "v1", 1, self.NODES)
        assert net.nodes == ("a", "b", "c")

    def test_edge_count_bounded_by_response_count(self):
        responses = [resp("a", "b"), resp("a", "c"), resp("b", "c"),
                     resp("a", "b", question="health_advice_give")]
        net = build_layer(responses, HEALTH, "v1", 1, self.NODES)
        assert net.edge_count <= len(responses)


class TestDerivedNetworks:
    def _nets(self, health, friend, money):
        nodes = ("a", "b", "c")
        return (LayerNetwork("v1", 1, "health", nodes, frozenset(health)),
                LayerNetwork("v1", 1, "friendship", nodes, frozenset(friend)),
                LayerNetwork("v1", 1, "financial", nodes, frozenset(money)))

    def test_aggregate_any_direction_any_layer(self):
        h, f, m = self._nets([], [], [("b", "a")])
        agg = aggregate_layers(h, f, m)
        assert not agg.directed
        assert agg.edges == frozenset({("a", "b")})

    def test_aggregate_opposite_directions_single_edge(self):
        h, f, m = self._nets([("a", "b")], [("b", "a")], [])
        assert aggregate_layers(h, f, m).edges == frozenset({("a", "b")})

    def test_aggregate_empty(self):
        h, f, m = self._nets([], [], [])
        assert aggregate_layers(h, f, m).edges == frozenset()

    def test_aggregate_node_mismatch_is_error(self):
        h, f, m = self._nets([], [], [])
        other = LayerNetwork("v1", 1, "friendship", ("a", "b"), frozenset())
        with pytest.raises(NetworkError, match="node-set mismatch"):
            aggregate_layers(h, other, m)

    def test_directed_union_keeps_directions(self):
        h, f, m = self._nets([("a", "b")], [("b", "a")], [("a", "c")])
        assert directed_union(h, f, m).edges == frozenset(
            {("a", "b"), ("b", "a"), ("a", "c")})

    def test_residual_removes_same_direction_health_tie(self):
        h, f, _ = self._nets([("a", "b")], [("a", "b"), ("b", "c")], [])
        assert residual_network(f, h).edges == frozenset({("b", "c")})

    def test_residual_is_direction_sensitive(self):
        # friendship a->b survives when health only has b->a
        h, f, _ = self._nets([("b", "a")], [("a", "b")], [])
        assert residual_network(f, h).edges == frozenset({("a", "b")})

    def test_residual_with_empty_health_is_identity(self):
        h, f, _ = self._nets([], [("a", "b"), ("b", "c")], [])
        assert residual_network(f, h).edges == f.edges

    def test_residual_of_identical_sets_is_edgeless(self):
        h, f, _ = self._nets([("a", "b")], [("a", "b")], [])
        assert residual_network(f, h).edges == frozenset()

    def test_residual_rejects_health_target(self):
        h, _, _ = self._nets([("a", "b")], [], [])
        with pytest.raises(NetworkError):
            residual_network(h, h)


class TestExcludeIntraHousehold:
    """The variant reads each node's household from the panel's study index."""

    @staticmethod
    def _filtered(households, edges):
        panel = make_panel({"v1": {"dosage": 0.0, "households": households}},
                           {("v1", 1, "health"): edges})
        return (panel.networks[("v1", 1, "health")],
                panel.network("v1", 1, "health", ("exclude_intra_household",)))

    def test_spouse_edge_removed_cross_household_kept(self):
        net, filtered = self._filtered({"h1": ["a", "b"], "h2": ["c"]},
                                       [("a", "b"), ("a", "c")])
        assert filtered.edges == frozenset({("a", "c")})
        assert filtered.nodes == net.nodes

    def test_all_intra_household_leaves_isolates(self):
        net, filtered = self._filtered({"h1": ["a", "b"]}, [("a", "b"), ("b", "a")])
        assert filtered.edges == frozenset()
        assert filtered.nodes == ("a", "b")


class TestDesign:
    def test_dosage_groups(self):
        assert dosage_group(0.0) == "control"
        for a in (0.05, 0.10, 0.20, 0.30):
            assert dosage_group(a) == "low"
        for a in (0.50, 0.75, 1.0):
            assert dosage_group(a) == "high"

    def test_round_half_up_counts(self):
        assert treated_household_count(0.05, 10) == 1
        assert treated_household_count(0.5, 3) == 2
        assert treated_household_count(0.0, 7) == 0
        assert treated_household_count(1.0, 7) == 7

    def test_mixed_household_is_error(self):
        inds = [Individual("a", "h1", "v1", True), Individual("b", "h1", "v1", False)]
        with pytest.raises(IngestionError, match="mixes"):
            infer_design(inds)

    def test_declared_dosage_resolves_ambiguity(self):
        # 2 of 8 households treated matches both 0.2 and 0.3
        inds = []
        for k in range(8):
            inds.append(Individual(f"i{k}", f"h{k}", "v1", treated=k < 2))
        assert infer_design(inds).village_dosages["v1"] == 0.2
        assert infer_design(inds, {"v1": 0.3}).village_dosages["v1"] == 0.3
        with pytest.raises(IngestionError, match="inconsistent"):
            infer_design(inds, {"v1": 0.75})

    def test_household_in_two_villages_is_error(self):
        inds = [Individual("a", "h1", "v1", False), Individual("b", "h1", "v2", False)]
        with pytest.raises(IngestionError, match="household h1 spans two villages"):
            infer_design(inds)

    def test_every_village_declared_when_none_is_inferred(self):
        inds = [Individual("a", "h1", "v1", False), Individual("b", "h2", "v2", True)]
        assert infer_design(inds, {"v1": 0.0, "v2": 1.0},
                            infer_missing=False).village_dosages == {"v1": 0.0, "v2": 1.0}
        with pytest.raises(IngestionError, match="village v2: no declared dosage"):
            infer_design(inds, {"v1": 0.0}, infer_missing=False)
        with pytest.raises(IngestionError, match="village v3: declared dosage but no members"):
            infer_design(inds, {"v1": 0.0, "v2": 1.0, "v3": 0.5})

    def test_design_validates_treated_count(self):
        inds = [Individual("a", "h1", "v1", True), Individual("b", "h2", "v1", False),
                Individual("c", "h3", "v1", False)]
        with pytest.raises(IngestionError, match="inconsistent"):
            infer_design(inds, {"v1": 0.5})


@st.composite
def household_panels(draw):
    """1-4 villages of 1-5 households (ids not in sorted order) with 1-3 members each."""
    villages = {}
    for v in range(draw(st.integers(1, 4))):
        vid = f"v{v}"
        hids = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=5,
                             unique=True))
        households = {f"{vid}{h}": [f"{vid}{h}m{m}" for m in range(draw(st.integers(1, 3)))]
                      for h in hids}
        alpha = draw(st.sampled_from(ALLOWED_DOSAGES))
        order = draw(st.permutations(sorted(households)))
        villages[vid] = {"dosage": alpha, "households": households,
                         "treated": order[:treated_household_count(alpha, len(order))]}
    return make_panel(villages)


class TestStudyIndex:
    @settings(max_examples=60, deadline=None)
    @given(panel=household_panels())
    def test_household_codes_lie_in_their_village_slice(self, panel):
        index, assignments = panel.index, panel.design.assignments
        offsets = index.offsets
        assert offsets[0] == 0 and len(offsets) == len(index.villages) + 1
        assert offsets[-1] == sum(len(households) for households in assignments.values())
        for k, iid in enumerate(index.individuals):
            v = int(index.village[k])
            assert offsets[v] <= index.household[k] < offsets[v + 1]
            # within the slice, households follow their sorted ids
            person = panel.individuals[iid]
            rank = sorted(assignments[person.village_id]).index(person.household_id)
            assert index.household[k] == offsets[v] + rank


class TestBuildPanel:
    def test_panel_shape_and_determinism(self):
        roster = [row("a"), row("b", hid="h2"), row("c", hid="h3"),
                  row("x", hid="h4", vid="v2", treated=True),
                  row("y", hid="h5", vid="v2")]
        responses = [resp("a", "b"), resp("b", "c", wave=3),
                     resp("x", "y", village="v2", question="money_borrow")]
        panel1 = panel_of(roster, responses)
        panel2 = panel_of(roster[::-1], responses[::-1])
        assert panel1.villages == ("v1", "v2")
        assert panel1.network("v1", 1, "health").edges == frozenset({("a", "b")})
        assert panel1.network("v2", 1, "financial").edges == frozenset({("x", "y")})
        for key in panel1.networks:
            assert panel1.networks[key].edges == panel2.networks[key].edges
        # node sets identical across waves and layers
        for wave in (1, 3):
            for layer in ("health", "friendship", "financial"):
                assert panel1.network("v1", wave, layer).nodes == ("a", "b", "c")

    def test_variant_resolution(self):
        roster = [row("a"), row("b", hid="h1"), row("c", hid="h2")]
        responses = [resp("a", "b"), resp("a", "c"),
                     resp("a", "c", question="friend_personal")]
        panel = panel_of(roster, responses)
        res = panel.network("v1", 1, "friendship", ("residual",))
        assert res.edges == frozenset()  # a->c is also a health tie
        noint = panel.network("v1", 1, "health", ("exclude_intra_household",))
        assert noint.edges == frozenset({("a", "c")})
        with pytest.raises(ValueError, match="residual"):
            panel.network("v1", 1, "health", ("residual",))

    def test_wave_outside_panel_is_error(self):
        roster = [row("a"), row("b", hid="h2")]
        with pytest.raises(IngestionError, match="wave 2"):
            panel_of(roster, [resp("a", "b", wave=2)])
