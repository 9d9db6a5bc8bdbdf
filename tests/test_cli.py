"""End-to-end CLI behavior: exit codes, manifests, reproducibility."""

import contextlib
import hashlib
import io
import json
from collections import Counter
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import villagenet
from villagenet.cli import CHOICES, COMMAND_OPTIONS, main

from network_oracle import in_neighbors, out_neighbors

SCENARIO = {
    "seed": 77,
    "arms": [[0.0, 3], [0.2, 2], [0.75, 2]],
    "village_size": [16, 22],
    "layers": ["health", "friendship", "financial"],
    "edge_density": {"health": 0.07, "friendship": 0.10, "financial": 0.06},
    "p_keep": {"UoUo": 0.65, "TU": 0.45},
    "p_form": {"UoUo": 0.015, "TT": 0.04},
}


ROSTER_HEAD = "individual_id,household_id,village_id,treated,wave1_present,wave3_present"
EDGE_HEAD = "wave,village_id,question_id,ego_id,alter_id\n"


def digest_dir(path: Path) -> dict[str, str]:
    out = {}
    for f in sorted(path.rglob("*")):
        if f.is_file():
            out[str(f.relative_to(path))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    out = root / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    return {"root": root, "scenario": scenario, "sim": out}


class TestIngest:
    def test_valid_toy_dataset(self, sim, capsys):
        out = sim["root"] / "ing"
        code = main(["ingest", "--roster", str(sim["sim"] / "roster.csv"),
                     "--edges", str(sim["sim"] / "edges.csv"),
                     "--layer-map", str(sim["sim"] / "layer_map.csv"),
                     "--out", str(out)])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out
        assert (out / "panel.json").exists()
        assert (out / "exclusions.csv").exists()
        assert (out / "manifest.json").exists()

    def test_unknown_individual_exit_2_with_line(self, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        roster.write_text(
            "individual_id,household_id,village_id,treated,wave1_present,wave3_present\n"
            "a,h1,v1,0,1,1\nb,h2,v1,0,1,1\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("wave,village_id,question_id,ego_id,alter_id\n"
                         "1,v1,health_advice_get,a,ghost\n")
        layers = tmp_path / "layers.csv"
        layers.write_text("question_id,layer,inverted\n"
                          "health_advice_get,health,0\n"
                          "health_advice_give,health,1\n"
                          "friend_personal,friendship,0\n"
                          "money_borrow,financial,0\n")
        code = main(["ingest", "--roster", str(roster), "--edges", str(edges),
                     "--layer-map", str(layers), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ghost" in err and "line 2" in err

    def test_non_utf8_roster_exit_2_with_line(self, sim, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        roster.write_bytes((sim["sim"] / "roster.csv").read_bytes().replace(b"\n", b"\xff\n", 3))
        code = main(["ingest", "--roster", str(roster), "--edges", str(sim["sim"] / "edges.csv"),
                     "--layer-map", str(sim["sim"] / "layer_map.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "roster.csv: line 1: byte 0xff is not valid UTF-8" in capsys.readouterr().err

    def test_mover_in_exclusion_report(self, tmp_path):
        roster = tmp_path / "roster.csv"
        roster.write_text(
            "individual_id,household_id,village_id,treated,wave1_present,"
            "wave3_present,wave3_household_id\n"
            "a,h1,v1,0,1,1,h1\nb,h2,v1,0,1,1,h9\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("wave,village_id,question_id,ego_id,alter_id\n")
        layers = tmp_path / "layers.csv"
        layers.write_text("question_id,layer,inverted\n"
                          "health_advice_get,health,0\n"
                          "friend_personal,friendship,0\n"
                          "money_borrow,financial,0\n")
        out = tmp_path / "out"
        assert main(["ingest", "--roster", str(roster), "--edges", str(edges),
                     "--layer-map", str(layers), "--out", str(out)]) == 0
        report = (out / "exclusions.csv").read_text()
        assert "individual,moved,1" in report

    def test_household_in_two_villages_exit_2(self, tmp_path, capsys):
        roster = tmp_path / "roster.csv"
        roster.write_text(
            "individual_id,household_id,village_id,treated,wave1_present,wave3_present\n"
            "a,h1,v1,0,1,1\nb,h2,v1,0,1,1\nc,h1,v2,0,1,1\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("wave,village_id,question_id,ego_id,alter_id\n")
        layers = tmp_path / "layers.csv"
        layers.write_text("question_id,layer,inverted\n"
                          "health_advice_get,health,0\n"
                          "friend_personal,friendship,0\n"
                          "money_borrow,financial,0\n")
        code = main(["ingest", "--roster", str(roster), "--edges", str(edges),
                     "--layer-map", str(layers), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: household h1 spans two villages\n" in capsys.readouterr().err

    def _ingest_sim(self, sim, roster: Path, out: Path) -> int:
        return main(["ingest", "--roster", str(roster),
                     "--edges", str(sim["sim"] / "edges.csv"),
                     "--layer-map", str(sim["sim"] / "layer_map.csv"), "--out", str(out)])

    def test_ingest_rebuilds_simulated_panel(self, sim, tmp_path):
        out = tmp_path / "panel"
        assert self._ingest_sim(sim, sim["sim"] / "roster.csv", out) == 0
        assert (out / "panel.json").read_bytes() == (sim["sim"] / "panel.json").read_bytes()

    def test_byte_order_mark_accepted(self, sim, tmp_path):
        roster = tmp_path / "roster.csv"
        roster.write_bytes(b"\xef\xbb\xbf" + (sim["sim"] / "roster.csv").read_bytes())
        assert self._ingest_sim(sim, roster, tmp_path / "bom") == 0
        assert self._ingest_sim(sim, sim["sim"] / "roster.csv", tmp_path / "plain") == 0
        assert ((tmp_path / "bom" / "panel.json").read_bytes()
                == (tmp_path / "plain" / "panel.json").read_bytes())


class TestPanelStructure:
    def test_missing_cell_exit_2(self, sim, tmp_path, capsys):
        doc = json.loads((sim["sim"] / "panel.json").read_text())
        village = sorted(doc["village_dosages"])[0]
        del doc["networks"][f"{village}|1|financial"]
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(doc))
        code = main(["metrics", "--panel", str(panel), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"no financial network for village {village} wave 1" in capsys.readouterr().err


ANALYSES = ("metrics", "effects", "permtest", "dyadic", "wasserstein", "doseresponse")


class TestArchiveFaults:
    """A panel archive that breaks a panel rule exits 2 on every analysis command."""

    def _exits_2(self, doc, tmp_path, capsys, command, message):
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(doc))
        code = main([command, "--panel", str(panel), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {panel}: {message}\n" in err

    @staticmethod
    def _doc(sim):
        return json.loads((sim["sim"] / "panel.json").read_text())

    @pytest.mark.parametrize("command", ANALYSES)
    def test_mixed_household(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        sizes = Counter(r["household_id"] for r in doc["individuals"] if r["treated"])
        household = min(h for h, n in sizes.items() if n > 1)
        next(r for r in doc["individuals"] if r["household_id"] == household)["treated"] = False
        self._exits_2(doc, tmp_path, capsys, command,
                      f"household {household} mixes treated and untreated members")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_household_in_two_villages(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        first, second = sorted(doc["village_dosages"])[:2]
        home = {r["household_id"]: r for r in doc["individuals"] if r["village_id"] == first}
        moved = next(r for r in doc["individuals"] if r["village_id"] == second)
        shared = min(h for h, r in home.items() if r["treated"] == moved["treated"])
        for r in doc["individuals"]:
            if r["household_id"] == moved["household_id"]:
                r["household_id"] = shared
        self._exits_2(doc, tmp_path, capsys, command, f"household {shared} spans two villages")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_undeclared_village(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        village = sorted(doc["village_dosages"])[-1]
        del doc["village_dosages"][village]
        self._exits_2(doc, tmp_path, capsys, command, f"village {village}: no declared dosage")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_record_without_household(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        record = doc["individuals"][3]
        del record["household_id"]
        self._exits_2(doc, tmp_path, capsys, command,
                      f"individual {record['id']} has no household_id")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_duplicate_individual(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        record = dict(doc["individuals"][3])
        doc["individuals"].append(record)
        self._exits_2(doc, tmp_path, capsys, command, f"individual {record['id']} listed twice")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_record_not_an_object(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        doc["individuals"][3] = list(doc["individuals"][3].values())
        self._exits_2(doc, tmp_path, capsys, command, "individual record 4 is not an object")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_non_numeric_dosage(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        village = sorted(doc["village_dosages"])[1]
        doc["village_dosages"][village] = "x"
        self._exits_2(doc, tmp_path, capsys, command,
                      f"village {village}: dosage 'x' is not a number")

    @pytest.mark.parametrize("command", ANALYSES)
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_other_than_the_integer_1(self, sim, tmp_path, capsys, command,
                                                     version):
        doc = dict(self._doc(sim), format_version=version)
        self._exits_2(doc, tmp_path, capsys, command, f"format version {version} unsupported")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_no_individuals(self, sim, tmp_path, capsys, command):
        doc = dict(self._doc(sim), individuals=[], village_dosages={}, networks={})
        self._exits_2(doc, tmp_path, capsys, command, "no individuals")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_dosages_not_an_object(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        doc["village_dosages"] = list(doc["village_dosages"].values())
        self._exits_2(doc, tmp_path, capsys, command, "village_dosages is not an object")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_networks_not_an_object(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        doc["networks"] = list(doc["networks"].values())
        self._exits_2(doc, tmp_path, capsys, command, "networks is not an object")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_id_not_hashable(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        record = doc["individuals"][3]
        record["id"] = [record["id"]]
        self._exits_2(doc, tmp_path, capsys, command,
                      f"individual record 4: id {record['id']!r} is not a string")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_household_not_a_string(self, sim, tmp_path, capsys, command):
        # a control village's record: its count of treated households stays right
        doc = self._doc(sim)
        control = min(v for v, a in doc["village_dosages"].items() if a == 0.0)
        record = next(r for r in doc["individuals"] if r["village_id"] == control)
        record["household_id"] = 5
        self._exits_2(doc, tmp_path, capsys, command,
                      f"individual {record['id']}: household_id 5 is not a string")

    @staticmethod
    def _network_with_edges(doc) -> str:
        return min(key for key, edges in doc["networks"].items() if edges)

    @pytest.mark.parametrize("command", ANALYSES)
    def test_network_not_an_array(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        key = self._network_with_edges(doc)
        doc["networks"][key] = 7
        self._exits_2(doc, tmp_path, capsys, command, f"network {key} is not an array")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_edge_not_a_pair(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        key = self._network_with_edges(doc)
        doc["networks"][key][0] = True
        self._exits_2(doc, tmp_path, capsys, command,
                      f"network {key}: every edge must be a pair of ids")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_endpoint_not_an_id(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        key = self._network_with_edges(doc)
        doc["networks"][key][0][1] = []
        self._exits_2(doc, tmp_path, capsys, command,
                      f"network {key}: edge endpoint [] is not an id")

    @pytest.mark.parametrize("command", ANALYSES)
    def test_endpoint_not_a_member_names_the_file(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        key = self._network_with_edges(doc)
        doc["networks"][key][0][0] = 2.5
        village, _, layer = key.split("|")
        self._exits_2(doc, tmp_path, capsys, command,
                      f"edge endpoint 2.5 not a member of {village}/{layer}")

    @pytest.mark.parametrize("command", ANALYSES)
    @pytest.mark.parametrize("key,message", [
        ("v000|1", "network key 'v000|1' is not village|wave|layer"),
        ("v000|one|health", "network key 'v000|one|health' is not village|wave|layer"),
        ("v999|1|health", "network v999|1|health names unknown village v999"),
    ], ids=["two_parts", "wave_not_an_integer", "unknown_village"])
    def test_bad_network_key(self, sim, tmp_path, capsys, command, key, message):
        doc = self._doc(sim)
        doc["networks"][key] = []
        self._exits_2(doc, tmp_path, capsys, command, message)

    @pytest.mark.parametrize("command", ANALYSES)
    def test_self_loop_edge(self, sim, tmp_path, capsys, command):
        doc = self._doc(sim)
        key = self._network_with_edges(doc)
        node = doc["networks"][key][0][0]
        doc["networks"][key].append([node, node])
        village, _, layer = key.split("|")
        self._exits_2(doc, tmp_path, capsys, command,
                      f"self-loop at node {node} in {village}/{layer}")


def _archive_paths(node, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _archive_paths(child, path + (key,))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(ANALYSES),
       value=st.sampled_from([None, "x", -1, 2.5, [], {}, True, "delete"]))
def test_one_bad_archive_value_exits_0_or_2(sim, data, command, value):
    """One value replaced or key deleted anywhere in an archive: never a raw exit 1."""
    doc = json.loads((sim["sim"] / "panel.json").read_text())
    *parent, key = data.draw(st.sampled_from(list(_archive_paths(doc))))
    holder = doc
    for k in parent:
        holder = holder[k]
    if value == "delete":
        del holder[key]
    else:
        holder[key] = value
    out = Path(tempfile.mkdtemp(dir=sim["root"]))
    panel = out / "panel.json"
    panel.write_text(json.dumps(doc))
    options = ["--permutations", "19"] if command == "permtest" else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--panel", str(panel), *options, "--out", str(out / "out")])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(f"error: {panel}: "), err.getvalue()


class TestSubcommands:
    def test_metrics(self, sim):
        out = sim["root"] / "met"
        assert main(["metrics", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--out", str(out)]) == 0
        text = (out / "metrics.csv").read_text().splitlines()
        assert text[0].startswith("# format: villagenet/metrics")
        assert text[1] == "individual_id,village_id,wave,layer,metric,value"

    def test_effects_with_permutations(self, sim):
        out = sim["root"] / "eff"
        assert main(["effects", "--panel", str(sim["sim"] / "panel.json"),
                     "--layers", "health", "--metrics", "degree",
                     "--scopes", "all", "--permutations", "29",
                     "--seed", "5", "--out", str(out)]) == 0
        lines = (out / "effects.csv").read_text().splitlines()
        assert len(lines) == 2 + 4  # format, header, 4 kinds
        assert (out / "plotdata.csv").exists()

    def test_permtest_nulldraws(self, sim):
        out = sim["root"] / "pt"
        assert main(["permtest", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--metric", "degree", "--kind", "total",
                     "--permutations", "19", "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "nulldraws.txt").read_text().splitlines()
        assert len(lines) == 2 + 19

    def test_dyadic(self, sim):
        out = sim["root"] / "dy"
        assert main(["dyadic", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--out", str(out)]) == 0
        for name in ("dissolution_coarse.csv", "dissolution_fine.csv",
                     "formation_coarse.csv", "formation_fine.csv",
                     "correspondence.csv"):
            assert (out / name).exists(), name

    def test_wasserstein(self, sim):
        out = sim["root"] / "wa"
        assert main(["wasserstein", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--out", str(out)]) == 0
        lines = (out / "distances.csv").read_text().splitlines()
        assert len(lines) == 2 + 7  # one row per village

    def test_doseresponse(self, sim):
        out = sim["root"] / "dr"
        assert main(["doseresponse", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--metric", "degree",
                     "--span", "1.0", "--out", str(out)]) == 0
        lines = (out / "doseresponse.csv").read_text().splitlines()
        assert lines[1] == "dosage,fitted_change"
        assert len(lines) == 2 + 3  # one fitted value per distinct dosage
        assert (out / "points.csv").exists()

    def test_social_layer_is_the_directed_union_of_the_base_layers(self, sim, tmp_path):
        import villagenet.io as vio
        out = tmp_path / "social"
        assert main(["metrics", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "social", "--out", str(out)]) == 0
        degrees = {}
        for line in (out / "metrics.csv").read_text().splitlines()[2:]:
            iid, village, wave, layer, metric, value = line.split(",")
            if metric in ("in_degree", "out_degree"):
                assert layer == "social"
                degrees[(iid, int(wave), metric)] = float(value)
        panel = vio.read_panel(sim["sim"] / "panel.json")
        expected = {}
        for village in panel.villages:
            for wave in (1, 3):
                nets = [panel.networks[(village, wave, layer)]
                        for layer in ("health", "friendship", "financial")]
                for metric, neighbors in (("out_degree", out_neighbors),
                                          ("in_degree", in_neighbors)):
                    by_layer = [neighbors(net) for net in nets]
                    for iid in nets[0].nodes:
                        expected[(iid, wave, metric)] = float(
                            len(set().union(*(ns[iid] for ns in by_layer))))
        assert degrees == expected
        assert any(v > 0 for v in expected.values())

    @pytest.mark.parametrize("group", ["treated", "untreated"])
    def test_doseresponse_by_group(self, sim, tmp_path, group):
        panel = sim["sim"] / "panel.json"
        assert main(["metrics", "--panel", str(panel), "--layer", "health",
                     "--out", str(tmp_path / "metrics")]) == 0
        assert main(["doseresponse", "--panel", str(panel), "--layer", "health",
                     "--metric", "degree", "--group", group, "--span", "1.0",
                     "--out", str(tmp_path / "dr")]) == 0
        degree = {}
        for line in (tmp_path / "metrics" / "metrics.csv").read_text().splitlines()[2:]:
            iid, _, wave, _, metric, value = line.split(",")
            if metric == "degree":
                degree[(iid, int(wave))] = float(value)
        doc = json.loads(panel.read_text())
        changes: dict[str, list[float]] = {}
        for rec in doc["individuals"]:
            if rec["treated"] == (group == "treated"):
                changes.setdefault(rec["village_id"], []).append(
                    degree[(rec["id"], 3)] - degree[(rec["id"], 1)])
        expected = sorted((doc["village_dosages"][v], sum(c) / len(c))
                          for v, c in changes.items())
        lines = (tmp_path / "dr" / "points.csv").read_text().splitlines()[2:]
        points = [float(x) for line in lines for x in line.split(",")]
        assert points == pytest.approx([x for point in expected for x in point], rel=1e-9)
        # control villages have no treated member; every village has an untreated one
        assert len(expected) == (4 if group == "treated" else 7)

    def test_replicate(self, sim):
        out = sim["root"] / "rep"
        assert main(["replicate", "--scenario", str(sim["scenario"]),
                     "--replicates", "2", "--out", str(out)]) == 0
        assert (out / "calibration.csv").exists()
        assert (out / "summary.csv").exists()

    def test_replicate_names_specs_without_oracle(self, sim, tmp_path):
        run = subprocess.run(
            [sys.executable, "-m", "villagenet.cli", "replicate", "--scenario",
             str(sim["scenario"]), "--metrics", "degree,closeness", "--out", str(tmp_path)],
            env=_subprocess_env(), capture_output=True, text=True)
        assert run.returncode == 0
        assert "RuntimeWarning" not in run.stderr
        assert run.stderr == ("WARNING villagenet.synth: total/all/health/closeness/none: "
                              "no oracle value, so mean_oracle and bias are NA\n")

    @pytest.mark.parametrize("command", ["effects", "replicate"])
    def test_negative_permutations_exit_2(self, sim, command, capsys):
        source = (["--panel", str(sim["sim"] / "panel.json")] if command == "effects"
                  else ["--scenario", str(sim["scenario"])])
        code = main([command, *source, "--permutations", "-5",
                     "--out", str(sim["root"] / f"neg_{command}")])
        assert code == 2
        assert "--permutations must be >= 0" in capsys.readouterr().err

    def test_permtest_zero_permutations_exit_2(self, sim, capsys):
        code = main(["permtest", "--panel", str(sim["sim"] / "panel.json"),
                     "--permutations", "0", "--out", str(sim["root"] / "pt0")])
        assert code == 2
        assert "--permutations must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["effects", "permtest"])
    def test_zero_threads_exit_2(self, sim, command, capsys):
        code = main([command, "--panel", str(sim["sim"] / "panel.json"),
                     "--threads", "0", "--out", str(sim["root"] / f"t0_{command}")])
        assert code == 2
        assert "--threads must be >= 1" in capsys.readouterr().err

    def test_runtime_failure_exit_1(self, sim, tmp_path, capsys):
        # valid options on a panel the analysis cannot use: the effect
        # contrasts need control villages for their comparison group
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, "arms": [[0.5, 2]]}))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "sim")]) == 0
        code = main(["effects", "--panel", str(tmp_path / "sim" / "panel.json"),
                     "--layers", "health", "--out", str(tmp_path / "bad")])
        assert code == 1
        assert "no control villages available" in capsys.readouterr().err

    def test_undefined_contrast_names_its_label(self, sim, tmp_path, capsys):
        # one high-dosage higher-order spillover node, whose clustering is undefined
        assert main(["effects", "--layers", "health", "--panel", str(sim["sim"] / "panel.json"),
                     "--metrics", "clustering", "--kinds", "spillover_higher_order",
                     "--scopes", "high", "--variants", "exclude_intra_household",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: group of 1 has no defined clustering values for "
            "spillover_higher_order/high/health/clustering/exclude_intra_household\n")

    def test_failed_run_removes_the_out_it_made(self, sim, tmp_path, capsys):
        # exit 2: a panel archive is no scenario; the parents the run made go too
        assert main(["simulate", "--scenario", str(sim["sim"] / "panel.json"),
                     "--out", str(tmp_path / "made" / "bad_scenario")]) == 2
        assert not (tmp_path / "made").exists()
        # exit 1: the effect contrasts need control villages
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**SCENARIO, "arms": [[0.5, 2]]}))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "sim")]) == 0
        out = tmp_path / "bad_effects"
        assert main(["effects", "--panel", str(tmp_path / "sim" / "panel.json"),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "no control villages available" in capsys.readouterr().err

    def test_failed_run_keeps_an_out_made_beforehand(self, sim, tmp_path):
        out = tmp_path / "mine"
        out.mkdir()
        assert main(["simulate", "--scenario", str(sim["sim"] / "panel.json"),
                     "--out", str(out)]) == 2
        assert out.is_dir() and not any(out.iterdir())

    def test_dyadic_correspondence_without_a_defined_rate_writes_na(self, tmp_path, caplog):
        # no treated node of this panel has an untreated partner in its village,
        # so the UT and TU node contrasts have no defined rate
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "seed": 3, "arms": [[0.0, 2], [0.2, 1], [0.75, 1]], "village_size": [6, 8],
            "layers": ["health", "friendship", "financial"],
            "edge_density": {"health": 0.2, "friendship": 0.2, "financial": 0.2}}))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "sim")]) == 0
        out = tmp_path / "dyadic"
        assert main(["dyadic", "--panel", str(tmp_path / "sim" / "panel.json"),
                     "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        rows = {line.split(",")[0]: line.split(",")[2:]
                for line in (out / "correspondence.csv").read_text().splitlines()[2:]}
        assert rows["UT"] == rows["TU"] == ["NA", "0"]
        assert "NA" not in rows["UU"] + rows["TT"]
        for term in ("UT", "TU"):
            assert f"correspondence {term}: " in caplog.text
        assert "correspondence UU: " not in caplog.text

    @pytest.mark.parametrize("command,option", [
        ("metrics", "--layer"), ("permtest", "--layer"), ("dyadic", "--layer"),
        ("wasserstein", "--layer"), ("doseresponse", "--layer"), ("effects", "--layers"),
    ])
    def test_unknown_layer_exit_2(self, sim, command, option, capsys):
        code = main([command, "--panel", str(sim["sim"] / "panel.json"),
                     option, "health,gossip" if option == "--layers" else "gossip",
                     "--out", str(sim["root"] / f"badlayer_{command}")])
        assert code == 2
        assert f"{option}: unknown value 'gossip'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", sorted(CHOICES))
    def test_unknown_choice_exit_2(self, sim, option, capsys):
        command = next(c for c in ("effects", "permtest", "dyadic", "wasserstein",
                                   "doseresponse", "metrics") if option in COMMAND_OPTIONS[c])
        flag = "--" + option.replace("_", "-")
        code = main([command, "--panel", str(sim["sim"] / "panel.json"),
                     flag, "none;residual+nope" if option == "variants" else "nope",
                     "--out", str(sim["root"] / f"badchoice_{option}")])
        assert code == 2
        assert f"{flag}: unknown value 'nope'" in capsys.readouterr().err

    def test_unknown_scheme_exit_2(self, sim, capsys):
        code = main(["dyadic", "--panel", str(sim["sim"] / "panel.json"),
                     "--schemes", "coarse,bogus", "--out", str(sim["root"] / "badscheme")])
        assert code == 2
        assert "--schemes: unknown value 'bogus'" in capsys.readouterr().err

    def test_unknown_outcome_exit_2(self, sim, capsys):
        code = main(["dyadic", "--panel", str(sim["sim"] / "panel.json"),
                     "--outcomes", "bogus", "--out", str(sim["root"] / "badoutcome")])
        assert code == 2
        assert "--outcomes: unknown value 'bogus'" in capsys.readouterr().err


    @pytest.mark.parametrize("command,option,value", [
        ("permtest", "--metric", "in_degree"),
        ("doseresponse", "--metric", "out_degree"),
        ("wasserstein", "--degree-kind", "in_degree"),
    ])
    def test_directed_only_metric_on_undirected_layer_exit_2(self, sim, command, option,
                                                             value, capsys):
        code = main([command, "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "aggregated", option, value,
                     "--out", str(sim["root"] / f"undirected_{command}")])
        assert code == 2
        assert (f"{option}: {value} is undefined on undirected layer aggregated"
                in capsys.readouterr().err)


# Per command: each file it writes, its format kind (None for an input-format
# file, which has no format line) and the header lines under the format line;
# a compiled pattern stands for a header line that carries values.
EXPORT_HEADERS = {
    "ingest": {"exclusions.csv": ("exclusions", "record,reason,count")},
    "metrics": {"metrics.csv": ("metrics", "individual_id,village_id,wave,layer,metric,value")},
    "effects": {
        "effects.csv": ("effects", "kind,scope,layer,metric,variant,pct_effect,raw_did,"
                                   "p_value,n_focal,n_comparison,permutations"),
        "plotdata.csv": ("plotdata", "kind,scope,layer,metric,variant,series,wave,value"),
    },
    "permtest": {"nulldraws.txt": (
        "nulldraws", re.compile(r"# observed=\S+ p=\S+ sided=two skipped=\d+"))},
    "dyadic": {
        "dissolution_coarse.csv": (
            "regression", re.compile(r"# outcome=dissolution scheme=coarse reference=UoUo "
                                     r"converged=True n=\d+ loglik=\S+"),
            "term,estimate,std_error,z,p,odds_ratio,pct_change"),
        "correspondence.csv": ("correspondence",
                               "term,dyadic_estimate,node_contrast,signs_agree"),
        "dyads.csv": ("dyads", "village,ego,alter,coarse,fine,link_w1,link_w3"),
    },
    "wasserstein": {
        "distances.csv": ("wasserstein", "village_id,dosage_group,wasserstein"),
        "welch.csv": ("welch", "comparison,t,df,p,ci_lo,ci_hi"),
    },
    "doseresponse": {
        "doseresponse.csv": ("doseresponse", "dosage,fitted_change"),
        "points.csv": ("doseresponse-points", "dosage,change"),
    },
    "replicate": {
        "calibration.csv": ("calibration", "replicate,spec,estimate_pct,oracle_pct,p_value"),
        "summary.csv": ("calibration-summary", "spec,quantity,value"),
    },
    "simulate": {
        "roster.csv": (None, ROSTER_HEAD + ",village_dosage"),
        "edges.csv": (None, EDGE_HEAD.strip()),
        "layer_map.csv": (None, "question_id,layer,inverted"),
    },
}


@pytest.mark.parametrize("command", list(EXPORT_HEADERS))
def test_format_line_and_header_of_each_file(sim, tmp_path, command):
    source = {"ingest": ["--roster", str(sim["sim"] / "roster.csv"),
                         "--edges", str(sim["sim"] / "edges.csv"),
                         "--layer-map", str(sim["sim"] / "layer_map.csv")],
              "dyadic": ["--panel", str(sim["sim"] / "panel.json"), "--export-dyads", "1"],
              "replicate": ["--scenario", str(sim["scenario"])],
              "simulate": ["--scenario", str(sim["scenario"])]}
    assert main([command, *source.get(command, ["--panel", str(sim["sim"] / "panel.json")]),
                 "--out", str(tmp_path)]) == 0
    for name, (kind, *header) in EXPORT_HEADERS[command].items():
        lines = (tmp_path / name).read_text().splitlines()
        if kind is not None:
            assert lines.pop(0) == f"# format: villagenet/{kind} v1"
        assert len(lines) >= len(header), name
        for line, want in zip(lines, header):
            assert want.fullmatch(line) if isinstance(want, re.Pattern) else line == want, name


class TestInputFaults:
    """Bad scenarios, options and paths exit 2 with a message naming the key, option or path."""

    @pytest.mark.parametrize("command", ["simulate", "replicate"])
    @pytest.mark.parametrize("doc,named", [
        ({"village_sizes": [5, 6]}, "unknown scenario key 'village_sizes'"),
        ({"seed": "x"}, 'scenario key seed: expected a value like 0, got "x"'),
        ({"seed": True}, "scenario key seed: expected a value like 0, got true"),
        ({"seed": 7.0}, "scenario key seed: expected a value like 0, got 7.0"),
        ({"arms": 5}, "scenario key arms: "),
        ({"arms": [[0.3]]}, "scenario key arms: "),
        ({"arms": [[0.3, 2.5]]}, "scenario key arms: "),
        ({"village_size": [5]}, "scenario key village_size: "),
        ({"layers": "health"}, 'scenario key layers: expected a value like ["health"], '
                               'got "health"'),
        ({"edge_density": {"health": "high"}}, "scenario key edge_density: "),
        ({"name": 3}, "scenario key name: "),
        ([SCENARIO], "a scenario must be a JSON object"),
    ], ids=["unknown_key", "seed_string", "seed_bool", "seed_float", "arms_number",
            "arms_short_pair", "arms_float_count", "village_size_short", "layers_string",
            "density_string", "name_number", "top_level_array"])
    def test_bad_scenario(self, tmp_path, capsys, command, doc, named):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("files,named,message", [
        ({"roster": ROSTER_HEAD + ",village_dosage\na,h1,v1,1,1,1,0.5\nb,h2,v1,0,1,1,0.2\n",
          "edges": EDGE_HEAD}, None, "village v1: conflicting declared dosages 0.5 and 0.2"),
        ({"roster": ROSTER_HEAD + "\n" + "".join(f"i{k},h{k},v1,{int(k < 4)},1,1\n"
                                                 for k in range(10)),
          "edges": EDGE_HEAD}, None,
         "village v1: 4/10 treated households matches no allowed dosage arm"),
        ({"roster": ""}, "roster", "empty file"),
        ({"roster": ROSTER_HEAD + ",age,age\n"}, "roster", "line 1: duplicate column age"),
        ({"edges": "wave,village,question_id,ego_id,alter_id\n"}, "edges",
         "line 1: edge header must be wave,village_id,question_id,ego_id,alter_id"),
        ({"edges": EDGE_HEAD + "99999999999999999999,v000,health_advice_get,a,b\n"}, "edges",
         "line 2: wave 99999999999999999999 is out of range"),
        ({"layer_map": "question,layer,inverted\n"}, "layer_map",
         "line 1: layer map header must be question_id,layer,inverted"),
        ({"layer_map": "question_id,layer,inverted\nhealth_advice_get,health\n"}, "layer_map",
         "line 2: expected 3 fields, got 2"),
        ({"layer_map": "question_id,layer,inverted\nhealth_advice_get,health,maybe\n"},
         "layer_map", "line 2: column inverted: cannot parse boolean 'maybe'"),
        # field faults are found on every line before a question mapped twice
        ({"layer_map": "question_id,layer,inverted\nq1,health,0\nq1,health,0\n"
                       "q2,friendship, maybe \n"},
         "layer_map", "line 4: column inverted: cannot parse boolean 'maybe'"),
        ({"layer_map": "question_id,layer,inverted\nq1,gossip,0\nq2,health,maybe\n"},
         "layer_map", "line 2: layer must be one of ('health', 'friendship', 'financial'), "
                      "got 'gossip'"),
    ], ids=["two_declared_dosages", "treated_count_of_no_arm", "empty_roster",
            "repeated_roster_column", "edge_header", "wave_out_of_range", "layer_map_header",
            "layer_map_two_fields", "layer_map_inverted_maybe",
            "layer_map_field_fault_before_repeat", "layer_map_unknown_layer_first"])
    def test_bad_ingest_input(self, sim, tmp_path, capsys, files, named, message):
        paths = {}
        for name in ("roster", "edges", "layer_map"):
            paths[name] = sim["sim"] / f"{name}.csv"
            if name in files:
                paths[name] = tmp_path / f"{name}.csv"
                paths[name].write_text(files[name])
        assert main(["ingest", "--roster", str(paths["roster"]), "--edges", str(paths["edges"]),
                     "--layer-map", str(paths["layer_map"]), "--out", str(tmp_path / "o")]) == 2
        prefix = f"{paths[named]}: " if named else ""
        assert capsys.readouterr().err == f"error: {prefix}{message}\n"

    @pytest.mark.parametrize("text,message", [
        ("village,block\n", "line 1: block header must be village_id,block"),
        ("village_id,block\nv000,b,c\n", "line 2: expected 2 fields, got 3"),
        ("village_id,block\nv000,b\nv000,c\n", "line 3: village v000 listed twice"),
    ], ids=["header", "three_fields", "village_twice"])
    def test_bad_blocks_file(self, sim, tmp_path, capsys, text, message):
        blocks = tmp_path / "blocks.csv"
        blocks.write_text(text)
        assert main(["effects", "--panel", str(sim["sim"] / "panel.json"),
                     "--blocks", str(blocks), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {blocks}: {message}\n"

    def test_too_few_villages_for_loess_exit_2(self, tmp_path, capsys):
        # two villages with treated members: loess needs three points, whatever the span
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "seed": 3, "arms": [[0.0, 2], [0.2, 1], [0.75, 1]], "village_size": [6, 8],
            "layers": ["health", "friendship", "financial"]}))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        assert main(["doseresponse", "--panel", str(tmp_path / "sim" / "panel.json"),
                     "--group", "treated", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: loess needs at least 3 points\n"
        assert not (tmp_path / "o").exists()

    def test_zero_replicates_names_the_option(self, sim, tmp_path, capsys):
        assert main(["replicate", "--scenario", str(sim["scenario"]), "--replicates", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: --replicates must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["ingest", "metrics", "dyadic", "wasserstein",
                                         "doseresponse", "simulate", "replicate"])
    def test_seed_only_where_it_is_read(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--seed", "5", "--out", str(tmp_path / "o")])
        assert exited.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_panel_archive_as_scenario(self, sim, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(sim["sim"] / "panel.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown scenario key 'format_version'" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value,named", [
        ("--span", "0", "--span must be in (0, 1], got 0.0"),
        ("--span", "2", "--span must be in (0, 1], got 2.0"),
        ("--span", "nan", "--span must be in (0, 1], got nan"),
        ("--degree", "3", "--degree must be 1 or 2, got 3"),
        ("--degree", "0", "--degree must be 1 or 2, got 0"),
        ("--span", "0.01", "--span: span 0.01 yields 1 neighbors; need at least 2"),
    ], ids=["span_0", "span_2", "span_nan", "degree_3", "degree_0", "span_too_few_neighbors"])
    def test_bad_loess_option(self, sim, tmp_path, capsys, option, value, named):
        assert main(["doseresponse", "--panel", str(sim["sim"] / "panel.json"), option, value,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"error: {named}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("command,option", [
        ("metrics", "--panel"), ("effects", "--blocks"), ("simulate", "--scenario"),
        ("metrics", "--config"), ("ingest", "--roster"),
    ])
    def test_input_path_is_a_directory(self, sim, tmp_path, capsys, command, option):
        panel = ["--panel", str(sim["sim"] / "panel.json")]
        files = [a for name in ("roster", "edges", "layer_map")
                 for a in (f"--{name.replace('_', '-')}", str(sim["sim"] / f"{name}.csv"))]
        valid = {"metrics": panel, "effects": panel, "ingest": files,
                 "simulate": ["--scenario", str(sim["scenario"])]}
        # the last of a repeated option wins
        assert main([command, *valid[command], option, str(tmp_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_out_names_a_file(self, sim, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["metrics", "--panel", str(sim["sim"] / "panel.json"),
                     "--out", str(out)]) == 2
        assert f"File exists: '{out}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "permtest"])
    def test_more_than_one_variant_group(self, sim, tmp_path, capsys, command):
        assert main([command, "--panel", str(sim["sim"] / "panel.json"),
                     "--variants", "none;residual", "--out", str(tmp_path / "o")]) == 2
        assert (f"error: --variants: {command} takes one variant group\n"
                == capsys.readouterr().err)

    @pytest.mark.parametrize("command,option", [
        ("metrics", "--layer"), ("permtest", "--layer"), ("effects", "--layers"),
    ])
    @pytest.mark.parametrize("layer", ["health", "aggregated"])
    def test_residual_variant_off_its_layers(self, sim, tmp_path, capsys, command, option,
                                             layer):
        draws = [] if command == "metrics" else ["--permutations", "5"]
        assert main([command, "--panel", str(sim["sim"] / "panel.json"), option, layer,
                     "--variants", "residual", *draws, "--out", str(tmp_path / "o")]) == 2
        assert (f"residual networks are defined for ('friendship', 'financial'), not {layer}"
                in capsys.readouterr().err)


def _subprocess_env() -> dict[str, str]:
    """The environment with this checkout's villagenet first on the path."""
    src = str(Path(villagenet.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                         env=_subprocess_env(), capture_output=True, text=True,
                         check=True).stdout
    return set(out.split())


class TestImports:
    """Each command loads only the modules it runs, checked in a fresh interpreter."""

    def test_cli_import_loads_no_analysis_module(self):
        loaded = _fresh_modules("import villagenet.cli")
        assert {m for m in loaded if m.startswith("villagenet")} == {
            "villagenet", "villagenet.cli", "villagenet.core", "villagenet.io",
            "villagenet.networks"}
        unwanted = {"villagenet.dyadic", "villagenet.effects", "villagenet.randomization",
                    "villagenet.stats", "villagenet.synth",
                    "multiprocessing", "concurrent.futures", "fractions"}
        assert not loaded & unwanted

    def test_metrics_command_loads_metrics_not_effects(self, sim, tmp_path):
        argv = ["metrics", "--panel", str(sim["sim"] / "panel.json"),
                "--layer", "health", "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from villagenet import cli\nassert cli.main({argv!r}) == 0")
        assert "villagenet.metrics" in loaded
        assert "villagenet.effects" not in loaded

    def test_doseresponse_loads_neither_effects_nor_randomization(self, sim, tmp_path):
        argv = ["doseresponse", "--panel", str(sim["sim"] / "panel.json"),
                "--layer", "health", "--out", str(tmp_path / "out")]
        loaded = _fresh_modules(f"from villagenet import cli\nassert cli.main({argv!r}) == 0")
        assert "villagenet.metrics" in loaded
        assert not loaded & {"villagenet.effects", "villagenet.randomization"}


class TestReproducibility:
    def test_same_config_twice_byte_identical(self, sim):
        a, b = sim["root"] / "r1", sim["root"] / "r2"
        args = ["effects", "--panel", str(sim["sim"] / "panel.json"),
                "--layers", "health,aggregated", "--metrics", "degree,clustering",
                "--scopes", "all,low", "--permutations", "23", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert digest_dir(a) == digest_dir(b)

    def test_rerun_from_manifest(self, sim):
        a, b = sim["root"] / "m1", sim["root"] / "m2"
        assert main(["permtest", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--metric", "degree",
                     "--permutations", "31", "--seed", "4", "--out", str(a)]) == 0
        assert main(["permtest", "--config", str(a / "manifest.json"),
                     "--out", str(b)]) == 0
        assert digest_dir(a) == digest_dir(b)

    @pytest.mark.parametrize("command", ["effects", "permtest"])
    def test_manifest_with_higher_order_mode_replays(self, sim, command, tmp_path):
        # Manifests of earlier versions carry "higher_order_mode"; the option
        # had no effect on results, and replaying ignores the key.
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--panel", str(sim["sim"] / "panel.json"),
                     "--kinds" if command == "effects" else "--kind",
                     "spillover_higher_order", "--permutations", "19", "--seed", "3",
                     "--out", str(a)]) == 0
        manifest = json.loads((a / "manifest.json").read_text())
        manifest["config"]["higher_order_mode"] = "exclusive"
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert main([command, "--config", str(old), "--out", str(b)]) == 0
        assert "higher_order_mode" not in json.loads((b / "manifest.json").read_text())["config"]
        results = {name: digest for name, digest in digest_dir(a).items()
                   if name != "manifest.json"}
        assert results and results.items() <= digest_dir(b).items()

    def test_manifest_key_the_command_does_not_take_warns(self, sim, tmp_path, caplog):
        assert main(["metrics", "--panel", str(sim["sim"] / "panel.json"),
                     "--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest["config"]["layr"] = manifest["config"].pop("layer")
        mistyped = tmp_path / "mistyped_manifest.json"
        mistyped.write_text(json.dumps(manifest))
        caplog.clear()
        assert main(["metrics", "--config", str(mistyped), "--out", str(tmp_path / "b")]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{mistyped}: metrics takes no option 'layr'; ignoring it"]

    def test_manifest_with_seed_replays_where_no_seed_is_read(self, sim, tmp_path, caplog):
        # manifests of earlier versions carry "seed" on every command
        assert main(["metrics", "--panel", str(sim["sim"] / "panel.json"),
                     "--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert "seed" not in manifest["config"]
        manifest["config"]["seed"] = 0
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        caplog.clear()
        assert main(["metrics", "--config", str(old), "--out", str(tmp_path / "b")]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{old}: metrics takes no option 'seed'; ignoring it"]
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())

    @pytest.mark.parametrize("command,name,value,expected", [
        ("doseresponse", "span", "x", 'expected a number, got "x"'),
        ("doseresponse", "degree", "two", 'expected an integer, got "two"'),
        ("effects", "threads", "x", 'expected an integer, got "x"'),
        ("effects", "permutations", 2.5, "expected an integer, got 2.5"),
        ("effects", "seed", True, "expected an integer, got true"),
        ("metrics", "panel", 5, "expected a string, got 5"),
        ("permtest", "sided", ["two"], 'expected a string, got ["two"]'),
    ])
    def test_manifest_value_of_the_wrong_type_exit_2(self, sim, tmp_path, capsys, command,
                                                       name, value, expected):
        assert main([command, "--panel", str(sim["sim"] / "panel.json"),
                     "--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        manifest["config"][name] = value
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == f"error: --{name}: {expected}\n"

    @pytest.mark.parametrize("doc,message", [
        ([1], "not a manifest"),
        ({"kind": "manifest", "command": "metrics", "config": 5}, "config is not an object"),
    ])
    def test_manifest_not_an_object_exit_2(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(doc))
        assert main(["metrics", "--config", str(bad), "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_manifest_rejects_wrong_command(self, sim, capsys):
        a = sim["root"] / "m1"
        code = main(["effects", "--config", str(a / "manifest.json"),
                     "--out", str(sim["root"] / "m3")])
        assert code == 2

    def test_simulate_deterministic(self, sim):
        again = sim["root"] / "sim2"
        assert main(["simulate", "--scenario", str(sim["scenario"]),
                     "--out", str(again)]) == 0
        assert digest_dir(sim["sim"]) == digest_dir(again)


class TestPlantedRecoveryViaCli:
    def test_simulate_then_dyadic_recovers_coefficients(self, tmp_path):
        import math

        def sigmoid(x):
            return 1.0 / (1.0 + math.exp(-x))

        planted = {"(Intercept)": -0.594, "UU": 0.070, "TU": -0.301,
                   "UT": -0.487, "TT": 0.361}
        keep = {"UoUo": 1.0 - sigmoid(planted["(Intercept)"])}
        for cat in ("UU", "TU", "UT", "TT"):
            keep[cat] = 1.0 - sigmoid(planted["(Intercept)"] + planted[cat])
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "seed": 4242,
            "arms": [[0.0, 8], [0.5, 12]],
            "village_size": [75, 75],
            "layers": ["health"],
            "edge_density": {"health": 0.25},
            "p_keep": keep,
            "p_form": {"UoUo": 0.01},
        }))
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(sim)]) == 0
        dy = tmp_path / "dy"
        assert main(["dyadic", "--panel", str(sim / "panel.json"),
                     "--layer", "health", "--schemes", "coarse",
                     "--outcomes", "dissolution", "--correspondence", "0",
                     "--out", str(dy)]) == 0
        lines = (dy / "dissolution_coarse.csv").read_text().splitlines()
        estimates = {}
        for line in lines[3:]:
            fields = line.split(",")
            estimates[fields[0]] = float(fields[1])
        for term, want in planted.items():
            assert abs(estimates[term] - want) <= 0.10, (term, estimates[term])


class TestRemainingFlags:
    def test_export_dyads_flag(self, sim):
        out = sim["root"] / "dyexp"
        assert main(["dyadic", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--schemes", "coarse",
                     "--outcomes", "dissolution", "--export-dyads", "1",
                     "--correspondence", "0", "--out", str(out)]) == 0
        lines = (out / "dyads.csv").read_text().splitlines()
        assert lines[1] == "village,ego,alter,coarse,fine,link_w1,link_w3"
        assert len(lines) > 100

    def test_blocks_flag(self, sim, tmp_path):
        import villagenet.io as vio
        panel = vio.read_panel(sim["sim"] / "panel.json")
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("village_id,block\n" + "".join(
            f"{v},b{k % 2}\n" for k, v in enumerate(panel.villages)))
        out = tmp_path / "pt"
        assert main(["permtest", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--metric", "degree",
                     "--permutations", "19", "--seed", "1",
                     "--blocks", str(blocks), "--out", str(out)]) == 0
        assert (out / "nulldraws.txt").exists()

    @pytest.mark.parametrize("command,permutations", [
        ("effects", "0"), ("effects", "5"), ("permtest", "5")])
    def test_blocks_file_missing_a_village_exit_2(self, sim, tmp_path, command,
                                                  permutations, capsys):
        import villagenet.io as vio
        villages = vio.read_panel(sim["sim"] / "panel.json").villages
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("village_id,block\n" + "".join(f"{v},b\n" for v in villages[1:]))
        code = main([command, "--panel", str(sim["sim"] / "panel.json"),
                     "--permutations", permutations, "--blocks", str(blocks),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "blocks.csv" in err and f"without a block label: {villages[0]}" in err

    @pytest.mark.parametrize("command", ["effects", "permtest"])
    def test_blocks_file_naming_an_unknown_village_exit_2(self, sim, tmp_path, command,
                                                          capsys):
        import villagenet.io as vio
        villages = vio.read_panel(sim["sim"] / "panel.json").villages
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("village_id,block\n" + "".join(f"{v},b\n" for v in villages)
                          + "ghost,b\n")
        code = main([command, "--panel", str(sim["sim"] / "panel.json"),
                     "--permutations", "5", "--blocks", str(blocks),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        line = len(villages) + 2
        assert (f"blocks.csv: line {line}: village ghost is not in the panel"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["effects", "permtest"])
    def test_higher_order_mode_option_is_gone(self, sim, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--panel", str(sim["sim"] / "panel.json"),
                  "--higher-order-mode", "exclusive", "--out", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert "unrecognized arguments: --higher-order-mode" in capsys.readouterr().err

    def test_sided_flag(self, sim, tmp_path):
        out = tmp_path / "left"
        assert main(["permtest", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--metric", "degree",
                     "--permutations", "19", "--seed", "1",
                     "--sided", "left", "--out", str(out)]) == 0
        head = (out / "nulldraws.txt").read_text().splitlines()[1]
        assert "sided=left" in head


class TestWassersteinFlags:
    def test_normalize_flag_scales_distances(self, sim, tmp_path):
        raw_out = tmp_path / "raw"
        norm_out = tmp_path / "norm"
        base = ["wasserstein", "--panel", str(sim["sim"] / "panel.json"),
                "--layer", "health"]
        assert main(base + ["--out", str(raw_out)]) == 0
        assert main(base + ["--normalize", "1", "--out", str(norm_out)]) == 0

        def distances(path):
            rows = (path / "distances.csv").read_text().splitlines()[2:]
            return {r.split(",")[0]: float(r.split(",")[2]) for r in rows}

        raw = distances(raw_out)
        norm = distances(norm_out)
        assert set(raw) == set(norm)
        assert all(n <= r + 1e-12 for r, n in zip(raw.values(), norm.values()))
        assert any(n < r for r, n in zip(raw.values(), norm.values()) if r > 0)

    def test_degree_kind_flag(self, sim, tmp_path):
        out = tmp_path / "ink"
        assert main(["wasserstein", "--panel", str(sim["sim"] / "panel.json"),
                     "--layer", "health", "--degree-kind", "in_degree",
                     "--out", str(out)]) == 0
        assert (out / "distances.csv").exists()
