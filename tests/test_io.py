"""File parsing, validation messages, and the panel archive round trip."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from villagenet import io as vio
from villagenet.core import (
    ALLOWED_DOSAGES,
    BASE_LAYERS,
    WAVES,
    IngestionError,
    Individual,
    StudyPanel,
    TreatmentDesign,
    apply_inclusion_criteria,
    build_panel,
    treated_household_count,
)
from villagenet.networks import LayerNetwork
from villagenet.synth import SyntheticScenario, generate_panel

import ingest_oracle
from ingest_oracle import response_rows, roster_rows


GOOD_LAYERS = ("question_id,layer,inverted\n"
               "health_advice_get,health,0\n"
               "health_advice_give,health,1\n"
               "friend_personal,friendship,0\n"
               "money_borrow,financial,0\n"
               "money_lend,financial,1\n")


class TestRoster:
    def test_minimal_roster(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("individual_id,household_id,village_id,treated,"
                     "wave1_present,wave3_present\n"
                     "a,h1,v1,1,1,1\n")
        rows = roster_rows(vio.read_roster(p))
        assert rows[0].individual_id == "a"
        assert rows[0].treated is True
        assert rows[0].line == 2

    def test_optional_and_covariate_columns(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("individual_id,household_id,village_id,treated,"
                     "wave1_present,wave3_present,forms_complete,village_dosage,age\n"
                     "a,h1,v1,0,1,1,1,0.2,41\n"
                     "b,h2,v1,0,1,1,0,0.2,\n")
        rows = roster_rows(vio.read_roster(p))
        assert rows[0].covariates == {"age": 41.0}
        assert rows[0].village_dosage == 0.2
        assert rows[1].forms_complete is False
        assert rows[1].covariates is None

    def test_bad_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("id,household_id\nx,h\n")
        with pytest.raises(IngestionError, match="header"):
            vio.read_roster(p)

    def test_bad_boolean_cites_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("individual_id,household_id,village_id,treated,"
                     "wave1_present,wave3_present\n"
                     "a,h1,v1,maybe,1,1\n")
        with pytest.raises(IngestionError, match="line 2"):
            vio.read_roster(p)

    @pytest.mark.parametrize("bom,newline", [(b"", b"\n"), (b"\xef\xbb\xbf", b"\r\n")])
    def test_non_utf8_byte_cites_file_and_line(self, tmp_path, bom, newline):
        # the bad byte lies far past the first chunk a text-mode read decodes
        lines = [b"individual_id,household_id,village_id,treated,wave1_present,wave3_present"]
        lines += [b"i%05d,h%05d,v1,0,1,1" % (k, k) for k in range(3000)]
        lines[2500] = b"i\xff,h\xff,v1,0,1,1"
        p = tmp_path / "r.csv"
        p.write_bytes(bom + newline.join(lines) + newline)
        with pytest.raises(IngestionError, match="r.csv: line 2501: byte 0xff is not valid UTF-8"):
            vio.read_roster(p)

    def test_field_count_mismatch_cites_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("individual_id,household_id,village_id,treated,"
                     "wave1_present,wave3_present\n"
                     "a,h1,v1,1,1\n")
        with pytest.raises(IngestionError, match="line 2"):
            vio.read_roster(p)


class TestEdgesAndLayers:
    def test_edges_parse(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("wave,village_id,question_id,ego_id,alter_id\n"
                     "1,v1,health_advice_get,a,b\n")
        rows = response_rows(vio.read_edges(p))
        assert rows[0].wave == 1 and rows[0].ego == "a"

    def test_non_integer_wave(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("wave,village_id,question_id,ego_id,alter_id\n"
                     "one,v1,q,a,b\n")
        with pytest.raises(IngestionError, match="line 2"):
            vio.read_edges(p)

    def test_layer_map_parses_defaults(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text(GOOD_LAYERS)
        specs = vio.read_layer_map(p)
        by_layer = {s.layer: s for s in specs}
        assert by_layer["health"].inverted["health_advice_give"] is True
        assert by_layer["friendship"].inverted["friend_personal"] is False

    def test_layer_map_rejects_duplicate_question(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text(GOOD_LAYERS + "health_advice_get,friendship,0\n")
        with pytest.raises(IngestionError, match="mapped twice"):
            vio.read_layer_map(p)

    def test_layer_map_requires_all_layers(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("question_id,layer,inverted\nq1,health,0\n")
        with pytest.raises(IngestionError, match="financial"):
            vio.read_layer_map(p)

    def test_layer_map_rejects_unknown_layer(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("question_id,layer,inverted\nq1,gossip,0\n")
        with pytest.raises(IngestionError, match="line 2"):
            vio.read_layer_map(p)

    def test_blocks(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("village_id,block\nv1,x\nv2,x\n")
        assert vio.read_blocks(p, ("v1", "v2")) == {"v1": "x", "v2": "x"}


ID_TEXT = st.text(alphabet=st.sampled_from('ab"\\/é村𝄞\u2028 '), max_size=3)
COVARIATES = st.dictionaries(
    st.sampled_from(("age", "größe", "z")),
    st.floats(allow_nan=True, allow_infinity=True) | st.integers(-5, 5), max_size=2)


@st.composite
def random_panels(draw):
    """Panels with non-ASCII and escaped ids, covariates, and empty networks."""
    individuals, dosages, assignments, networks = {}, {}, {}, {}
    for v in range(draw(st.integers(0, 3))):
        vid = f"v{v}{draw(ID_TEXT)}"
        n_households = draw(st.integers(1, 3))
        alpha = draw(st.sampled_from(ALLOWED_DOSAGES))
        treated = set(draw(st.permutations(range(n_households)))[
            :treated_household_count(alpha, n_households)])
        dosages[vid] = alpha
        assignments[vid] = {f"{vid}h{h}": h in treated for h in range(n_households)}
        members = []
        for h in range(n_households):
            for m in range(draw(st.integers(1, 3))):
                iid = f"{vid}i{h}{m}{draw(ID_TEXT)}"
                individuals[iid] = Individual(iid, f"{vid}h{h}", vid, h in treated,
                                              draw(COVARIATES) or None)
                members.append(iid)
        pairs = st.tuples(st.sampled_from(members), st.sampled_from(members)).filter(
            lambda e: e[0] != e[1])
        for wave in WAVES:
            for layer in BASE_LAYERS:
                edges = draw(st.sets(pairs, max_size=8)) if len(members) > 1 else set()
                networks[(vid, wave, layer)] = LayerNetwork(vid, wave, layer, members, edges)
    return StudyPanel(individuals, TreatmentDesign(dosages, assignments), networks)


class TestPanelArchive:
    def test_round_trip(self, tmp_path):
        scenario = SyntheticScenario(
            seed=3, arms=((0.0, 2), (0.5, 2)), village_size=(15, 20),
            layers=("health", "friendship"),
            edge_density={"health": 0.1, "friendship": 0.1},
            p_keep={"UoUo": 0.6}, p_form={"UoUo": 0.02},
        )
        panel, _ = generate_panel(scenario)
        path = tmp_path / "panel.json"
        vio.write_panel(panel, path)
        loaded = vio.read_panel(path)
        assert sorted(loaded.individuals) == sorted(panel.individuals)
        assert loaded.design.village_dosages == panel.design.village_dosages
        for key, net in panel.networks.items():
            assert loaded.networks[key].edges == net.edges
        # writing the loaded panel reproduces the file exactly
        path2 = tmp_path / "panel2.json"
        vio.write_panel(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(panel=random_panels())
    def test_writer_matches_json_dump_and_round_trips(self, panel):
        with tempfile.TemporaryDirectory() as tmp:
            written, reference, again = (Path(tmp) / name for name in ("a", "b", "c"))
            vio.write_panel(panel, written)
            ingest_oracle.write_panel(panel, reference)
            assert written.read_bytes() == reference.read_bytes()
            if not panel.individuals:   # an empty study is written, but not read back
                with pytest.raises(IngestionError, match=f"^{written}: no individuals$"):
                    vio.read_panel(written)
                return
            loaded = vio.read_panel(written)
            for key, net in panel.networks.items():
                assert loaded.networks[key].edges == net.edges
            vio.write_panel(loaded, again)
            assert again.read_bytes() == written.read_bytes()

    def test_rejects_non_panel_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "manifest"}))
        with pytest.raises(IngestionError, match="not a panel"):
            vio.read_panel(path)

    def test_record_without_id_named_by_position(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({
            "kind": "panel", "format_version": 1, "village_dosages": {"v": 0.0}, "networks": {},
            "individuals": [{"id": "a", "household_id": "h1", "village_id": "v", "treated": 0},
                            {"household_id": "h2", "village_id": "v", "treated": 0}]}))
        with pytest.raises(IngestionError, match=f"^{path}: individual record 2 has no id$"):
            vio.read_panel(path)


class TestExports:
    def test_write_table_formats_each_cell(self, tmp_path):
        path = tmp_path / "table.csv"
        vio.write_table(path, "demo", "# n=2 sided=two\nname,flag,value,count",
                        [("a", True, np.float64(0.1) + 0.2, 3),
                         ("b", False, None, -4),
                         ("c", False, float("nan"), 0)])
        assert path.read_bytes() == (b"# format: villagenet/demo v1\n"
                                     b"# n=2 sided=two\n"
                                     b"name,flag,value,count\n"
                                     b"a,1,0.3,3\n"
                                     b"b,0,NA,-4\n"
                                     b"c,0,NA,0\n")

    def test_fmt_value(self):
        assert vio.fmt_value(None) == "NA"
        assert vio.fmt_value(float("nan")) == "NA"
        assert vio.fmt_value(0.25) == "0.25"
        assert vio.fmt_value(3) == "3"

    def test_config_digest_stable(self):
        a = vio.config_digest({"b": 1, "a": [1, 2]})
        b = vio.config_digest({"a": [1, 2], "b": 1})
        assert a == b


class TestEndToEndFiles:
    def test_ingest_pipeline_from_files(self, tmp_path):
        roster = tmp_path / "roster.csv"
        roster.write_text(
            "individual_id,household_id,village_id,treated,wave1_present,"
            "wave3_present,village_dosage\n"
            "a,h1,v1,0,1,1,0\n"
            "b,h2,v1,0,1,1,0\n"
            "p,g1,v2,1,1,1,0.5\n"
            "q,g2,v2,0,1,1,0.5\n")
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "wave,village_id,question_id,ego_id,alter_id\n"
            "1,v1,health_advice_get,a,b\n"
            "1,v2,health_advice_give,p,q\n"
            "3,v2,money_borrow,q,p\n")
        layers = tmp_path / "layers.csv"
        layers.write_text(GOOD_LAYERS)
        rows = vio.read_roster(roster)
        responses = vio.read_edges(edges)
        specs = vio.read_layer_map(layers)
        kept_rows, kept_responses, _ = apply_inclusion_criteria(rows, responses)
        panel = build_panel(kept_rows, kept_responses, specs)
        assert panel.design.village_dosages == {"v1": 0.0, "v2": 0.5}
        # inverted health question: p named q, so the tie runs q -> p
        assert panel.network("v2", 1, "health").edges == frozenset({("q", "p")})
        assert panel.network("v2", 3, "financial").edges == frozenset({("q", "p")})
