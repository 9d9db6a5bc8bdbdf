"""Column-wise ingest against the row-by-row oracle on random, flawed inputs.

Each example writes a roster and an edge file with planted problems
(incomplete forms, absentees, movers, cross-village, duplicate and inverted
nominations, nominations filed under another village, isolates, non-ASCII
ids, padded tokens, comment and blank lines, CRLF endings). `villagenet
ingest` must write the same ``panel.json`` and ``exclusions.csv`` bytes as
`ingest_oracle.ingest`; with bad lines added, it must raise the same message,
naming the same line.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from villagenet.cli import run_ingest
from villagenet.core import ALLOWED_DOSAGES, IngestionError, treated_household_count

import ingest_oracle

QUESTIONS = (("health_advice_get", "health", 0), ("health_advice_give", "health", 1),
             ("friend_personal", "friendship", 0), ("friend_free_time", "friendship", 0),
             ("money_borrow", "financial", 0), ("money_lend", "financial", 1))
LAYER_MAP = "question_id,layer,inverted\n" + "".join(f"{q},{l},{i}\n" for q, l, i in QUESTIONS)
ROSTER_HEADER = ("individual_id,household_id,village_id,treated,wave1_present,wave3_present,"
                 "forms_complete,wave3_household_id,wave3_village_id,village_dosage,age")
EDGE_HEADER = "wave,village_id,question_id,ego_id,alter_id"
STATUSES = ("kept", "kept", "kept", "incomplete", "absent_w1", "absent_w3",
            "moved_household", "moved_village")
TRUE_TOKENS = ("1", "true", "T", " yes")
FALSE_TOKENS = ("0", "false", "F", "no ")


@st.composite
def studies(draw):
    """Roster and edge lines, with each village's members and kept members."""
    suffix = draw(st.sampled_from(("", "é", "村", "ß")))
    roster: list[str] = []
    members: dict[str, list[str]] = {}
    kept: dict[str, list[str]] = {}

    def flag(value: bool) -> str:
        return draw(st.sampled_from(TRUE_TOKENS if value else FALSE_TOKENS))

    for v in range(draw(st.integers(1, 3))):
        vid = f"v{v}{suffix}"
        n_households = draw(st.integers(1, 4))
        alpha = draw(st.sampled_from(ALLOWED_DOSAGES))
        order = draw(st.permutations(range(n_households)))
        treated = set(order[:treated_household_count(alpha, n_households)])
        declared = str(alpha) if draw(st.booleans()) else ""
        members[vid], kept[vid] = [], []
        for h in range(n_households):
            hid = f"{vid}h{h}"
            for m in range(draw(st.integers(1, 3))):
                iid = f"{vid}{suffix}i{h}{m}"
                # the first member stays, so no household (and no treated count) vanishes
                status = "kept" if m == 0 else draw(st.sampled_from(STATUSES))
                w3_household = {"moved_household": f"{vid}h9", "kept": hid}.get(
                    status, draw(st.sampled_from(("", hid))))
                age = draw(st.sampled_from(("", "41", "3.5", "-0.0", "1e3")))
                pad = draw(st.sampled_from(("", " ")))
                roster.append(",".join([
                    pad + iid, hid, vid, flag(h in treated), flag(status != "absent_w1"),
                    flag(status != "absent_w3"), flag(status != "incomplete"), w3_household,
                    f"{vid}x" if status == "moved_village" else "", declared, age]))
                members[vid].append(iid)
                if status == "kept":
                    kept[vid].append(iid)

    everyone = [(v, i) for v, ids in members.items() for i in ids]
    edges: list[str] = []
    for _ in range(draw(st.integers(0, 30))):
        village, ego = draw(st.sampled_from(everyone))
        if draw(st.integers(0, 5)) == 0:   # possibly another village's member
            _, alter = draw(st.sampled_from(everyone))
        else:
            alter = draw(st.sampled_from(members[village]))
        if alter == ego:
            continue
        if draw(st.integers(0, 7)) == 0:   # filed under another village
            village = draw(st.sampled_from(sorted(members)))
        question = draw(st.sampled_from(QUESTIONS))[0]
        line = f"{draw(st.sampled_from((1, 3)))},{village},{question},{ego},{alter}"
        edges += [line] * draw(st.sampled_from((1, 1, 1, 2)))
    return roster, edges, members, kept


def _write(path: Path, header: str, lines: list[str], decorate: dict) -> None:
    body = [header] + lines
    if decorate["comment"] is not None:
        body.insert(min(decorate["comment"], len(body)), "# a comment")
    if decorate["blank"] is not None:
        body.insert(min(decorate["blank"], len(body)), "")
    text = decorate["newline"].join(body) + (decorate["newline"] if decorate["final"] else "")
    path.write_bytes(text.encode("utf-8"))


decorations = st.fixed_dictionaries({
    "comment": st.none() | st.integers(1, 40),
    "blank": st.none() | st.integers(1, 40),
    "newline": st.sampled_from(("\n", "\r\n")),
    "final": st.booleans(),
})


def _outcomes(roster: list[str], edges: list[str], decorate: dict) -> tuple:
    """(new, oracle): the files written, or the error message."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root / "roster.csv", ROSTER_HEADER, roster, decorate)
        _write(root / "edges.csv", EDGE_HEADER, edges, decorate)
        (root / "layer_map.csv").write_text(LAYER_MAP)
        paths = {name: root / f"{name}.csv" for name in ("roster", "edges", "layer_map")}
        results = []
        for name, run in (
            ("new", lambda out: run_ingest(paths, out)),
            ("oracle", lambda out: ingest_oracle.ingest(paths["roster"], paths["edges"],
                                                        paths["layer_map"], out)),
        ):
            out = root / name
            out.mkdir()
            try:
                run(out)
            except IngestionError as exc:
                results.append(("error", str(exc)))
            else:
                results.append(("ok", (out / "panel.json").read_bytes(),
                                (out / "exclusions.csv").read_bytes()))
        return tuple(results)


SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestAgainstOracle:
    @SETTINGS
    @given(study=studies(), decorate=decorations)
    def test_same_files(self, study, decorate):
        roster, edges, _, _ = study
        new, oracle = _outcomes(roster, edges, decorate)
        assert new[0] == "ok", new
        assert new == oracle


BAD_KINDS = ("wave_not_integer", "edge_field_count", "roster_field_count", "unknown_id",
             "self_nomination", "unknown_question", "wave_2", "bad_boolean",
             "duplicate_roster_id")


@st.composite
def flawed(draw, kind: str):
    """A study with a bad line of this kind and up to two more, each placed at random."""
    roster, edges, members, kept = draw(studies())
    kinds = [kind] * draw(st.integers(1, 3 if kind == "self_nomination" else 1))
    kinds += draw(st.lists(st.sampled_from(BAD_KINDS), max_size=2))
    for k, bad in enumerate(kinds):
        village = draw(st.sampled_from(sorted(kept)))
        a = draw(st.sampled_from(kept[village]))
        b = draw(st.sampled_from(kept[village]))
        q = draw(st.sampled_from(QUESTIONS))[0]
        if bad in ("bad_boolean", "duplicate_roster_id", "roster_field_count"):
            if bad == "duplicate_roster_id":
                line = draw(st.sampled_from(roster))
            else:
                fields = [f"new{k}", f"{village}h0", village, "1", "1", "1", "1", "", "", "", ""]
                if bad == "bad_boolean":
                    fields[draw(st.sampled_from((3, 4, 5, 6)))] = "maybe"
                else:
                    fields.pop()
                line = ",".join(fields)
            roster.insert(draw(st.integers(0, len(roster))), line)
            continue
        ego, alter = draw(st.sampled_from(((a, f"ghost{k}"), (f"ghost{k}", a),
                                           (f"ghost{k}e", f"ghost{k}a"))))
        wave = draw(st.sampled_from((1, 3)))
        line = {
            "wave_not_integer": f"one,{village},{q},{a},{b}",
            "edge_field_count": f"1,{village},{q},{a}",
            "unknown_id": f"1,{village},{q},{ego},{alter}",
            # several per example, so the one reported must be the first met
            # cell by cell (village, wave, layer), not the first in the file
            "self_nomination": f"{wave},{village},{q},{a},{a}",
            "unknown_question": f"1,{village},bogus_question,{a},{b}",
            "wave_2": f"2,{village},{q},{a},{b}",
        }[bad]
        edges.insert(draw(st.integers(0, len(edges))), line)
    return roster, edges, kinds


class TestBadInput:
    @pytest.mark.parametrize("kind", BAD_KINDS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), decorate=decorations)
    def test_same_message_and_line(self, kind, data, decorate):
        roster, edges, kinds = data.draw(flawed(kind))
        new, oracle = _outcomes(roster, edges, decorate)
        assert oracle[0] == "error", kinds
        assert new == oracle
