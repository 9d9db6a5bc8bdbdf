"""Delimited-file ingestion, the panel archive, and deterministic exports.

All inputs are UTF-8 comma-delimited with a header row (a byte-order mark is
allowed); each is read once and split into columns, and validation errors cite
1-based line numbers. Every export starts with a format-version line and is
written with sorted, fully deterministic content so byte-level comparison is a
meaningful reproducibility check; its rows come from the caller as values,
and `write_table` formats every cell one way (`fmt_value`). The archive reader
applies ingest's panel rules (`core.infer_design`, `core.StudyPanel`), with
errors naming the file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from collections import Counter
from contextlib import contextmanager
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    BASE_LAYERS,
    DEFAULT_LAYER_SPECS,
    CodedColumn,
    IngestionError,
    Individual,
    LayerSpec,
    ResponseTable,
    RosterTable,
    StudyPanel,
    infer_design,
)
from .networks import LayerNetwork, NetworkError

FORMAT_VERSION = 1

ROSTER_REQUIRED = ("individual_id", "household_id", "village_id", "treated",
                   "wave1_present", "wave3_present")
ROSTER_OPTIONAL = ("forms_complete", "wave3_household_id", "wave3_village_id",
                   "village_dosage")
EDGE_COLUMNS = ("wave", "village_id", "question_id", "ego_id", "alter_id")
LAYER_COLUMNS = ("question_id", "layer", "inverted")
BLOCK_COLUMNS = ("village_id", "block")

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}


def _parse_bool(token: str) -> bool:
    t = token.strip().lower()
    if t in _TRUE:
        return True
    if t in _FALSE:
        return False
    raise ValueError(token)


def _read_lines(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """The non-blank, non-comment lines and their 1-based line numbers.

    The file is read in one piece, with universal newlines; a UTF-8
    byte-order mark is dropped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # decode the file again whole: a text-mode read reports a position within one chunk
        data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = len((data[:exc.start] + b"x").splitlines())   # as universal newlines count
            raise IngestionError(f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} "
                                 f"is not valid UTF-8") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "" in lines or text.startswith("#") or "\n#" in text:
        numbered = [(k, line) for k, line in enumerate(lines, start=1)
                    if line and not line.startswith("#")]
        numbers = np.array([k for k, _ in numbered], dtype=np.int64)
        lines = [line for _, line in numbered]
    else:
        numbers = np.arange(1, len(lines) + 1)
    if not lines:
        raise IngestionError(f"{path}: empty file")
    return numbers, lines


# A validated column: its field position, its parser, and the fault message for a
# field (as read) that the parser rejects with the given exception.
_Rule = tuple[int, Callable[[str], object], Callable[[str, Exception], str]]


def _parse_rows(path: str | Path, numbers: np.ndarray, lines: list[str], width: int,
                rules: Sequence[_Rule]) -> tuple[list[list[str]], list[list]]:
    """The lines as ``width`` columns, and each rule's column parsed, in rule order.

    Columns are split and parsed whole. If a line has another field count or a
    parser rejects a field, the lines are scanned for the first bad one; within
    a line the field count is checked first, then the rules in order.
    """
    if list(map(str.count, lines, repeat(","))).count(width - 1) == len(lines):
        fields = ",".join(lines).split(",") if lines else []
        columns = [fields[k::width] for k in range(width)]
        del fields
        try:   # each distinct field of a column parsed once
            value = [{token: parse(token) for token in set(columns[k])} for k, parse, _ in rules]
        except (ValueError, OverflowError):
            pass
        else:
            return columns, [list(map(v.__getitem__, columns[k]))
                             for v, (k, _, _) in zip(value, rules)]
    for lineno, line in zip(numbers.tolist(), lines):
        fields = line.split(",")
        if len(fields) != width:
            raise IngestionError(
                f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
        for k, parse, fault in rules:
            try:
                parse(fields[k])
            except (ValueError, OverflowError) as exc:
                raise IngestionError(f"{path}: line {lineno}: {fault(fields[k], exc)}") from None
    raise AssertionError(f"{path}: a column-wise check failed on no line")


def _read_table(path: str | Path, what: str, header: Sequence[str],
                rules: Sequence[_Rule]) -> tuple[np.ndarray, list[list[str]], list[list]]:
    """The line numbers, columns and parsed columns of a file under exactly ``header``."""
    numbers, lines = _read_lines(path)
    if tuple(lines[0].split(",")) != tuple(header):
        raise IngestionError(
            f"{path}: line {numbers[0]}: {what} header must be {','.join(header)}")
    numbers, lines = numbers[1:], lines[1:]
    return numbers, *_parse_rows(path, numbers, lines, len(header), rules)


def _number_or_none(token: str) -> float | None:
    token = token.strip()
    return float(token) if token else None


def read_roster(path: str | Path) -> RosterTable:
    numbers, lines = _read_lines(path)
    lineno, header = int(numbers[0]), lines[0].split(",")
    if tuple(header[: len(ROSTER_REQUIRED)]) != ROSTER_REQUIRED:
        raise IngestionError(
            f"{path}: line {lineno}: roster header must start with "
            f"{','.join(ROSTER_REQUIRED)}"
        )
    extras = header[len(ROSTER_REQUIRED):]
    for name in extras:
        if extras.count(name) > 1:
            raise IngestionError(f"{path}: line {lineno}: duplicate column {name}")
    covariate_cols = [c for c in extras if c not in ROSTER_OPTIONAL]
    position = {name: k for k, name in enumerate(header)}   # the last of a repeated name
    # the validated columns by name, in the order a line's faults are reported
    rules = [(c, _number_or_none, lambda t, _, c=c: f"covariate {c} is not numeric: {t.strip()!r}")
             for c in covariate_cols]
    rules.append(("village_dosage", _number_or_none,
                  lambda t, _: f"village_dosage is not numeric: {t.strip()!r}"))
    rules += [(c, _parse_bool, lambda t, _, c=c: f"column {c}: cannot parse boolean {t!r}")
              for c in ("treated", "wave1_present", "wave3_present", "forms_complete")]
    rules = [rule for rule in rules if rule[0] in position]
    numbers, lines = numbers[1:], lines[1:]
    columns, values = _parse_rows(path, numbers, lines, len(header),
                                  [(position[c], parse, fault) for c, parse, fault in rules])
    covariates = dict(zip(covariate_cols, values))
    parsed = {c: v for (c, _, _), v in zip(rules[len(covariates):], values[len(covariates):])}
    n = len(lines)

    def flag(name: str) -> np.ndarray:
        return np.array(parsed[name] if name in parsed else [True] * n, dtype=bool)

    def stripped(name: str) -> list[str]:
        return list(map(str.strip, columns[position[name]]))

    def optional_id(name: str) -> list[str | None]:
        return [t or None for t in stripped(name)] if name in position else [None] * n

    return RosterTable(
        individual_id=stripped("individual_id"),
        household_id=stripped("household_id"),
        village_id=stripped("village_id"),
        treated=flag("treated"),
        wave1_present=flag("wave1_present"),
        wave3_present=flag("wave3_present"),
        forms_complete=flag("forms_complete"),
        wave3_household_id=optional_id("wave3_household_id"),
        wave3_village_id=optional_id("wave3_village_id"),
        village_dosage=parsed.get("village_dosage", [None] * n),
        covariates=covariates,
        line=numbers,
    )


def _parse_wave(token: str) -> int:
    wave = int(token.strip())
    if not -2**63 <= wave < 2**63:
        raise OverflowError(token.strip())
    return wave


def _wave_fault(token: str, exc: Exception) -> str:
    if isinstance(exc, OverflowError):
        return f"wave {token.strip()} is out of range"
    return f"wave is not an integer: {token.strip()!r}"


def read_edges(path: str | Path) -> ResponseTable:
    numbers, columns, (waves,) = _read_table(path, "edge", EDGE_COLUMNS,
                                             [(0, _parse_wave, _wave_fault)])
    n = len(waves)
    people = CodedColumn.of(columns[3] + columns[4]).relabel(str.strip)
    return ResponseTable(
        wave=np.array(waves, dtype=np.int64),
        village_id=CodedColumn.of(columns[1]).relabel(str.strip),
        question_id=CodedColumn.of(columns[2]).relabel(str.strip),
        ego=CodedColumn(people.labels, people.codes[:n]),
        alter=CodedColumn(people.labels, people.codes[n:]),
        line=numbers,
    )


def _base_layer(token: str) -> str:
    layer = token.strip()
    if layer not in BASE_LAYERS:
        raise ValueError(token)
    return layer


def read_layer_map(path: str | Path) -> list[LayerSpec]:
    numbers, columns, (layers, flags) = _read_table(path, "layer map", LAYER_COLUMNS, [
        (1, _base_layer,
         lambda t, _: f"layer must be one of {BASE_LAYERS}, got {t.strip()!r}"),
        (2, _parse_bool, lambda t, _: f"column inverted: cannot parse boolean {t.strip()!r}"),
    ])
    per_layer: dict[str, dict[str, bool]] = {}
    for lineno, question, layer, flag in zip(numbers.tolist(), map(str.strip, columns[0]),
                                             layers, flags):
        if any(question in mapped for mapped in per_layer.values()):
            raise IngestionError(f"{path}: line {lineno}: question {question} mapped twice")
        per_layer.setdefault(layer, {})[question] = flag
    missing = [l for l in BASE_LAYERS if l not in per_layer]
    if missing:
        raise IngestionError(f"{path}: no questions mapped for layers {missing}")
    return [LayerSpec(layer, tuple(sorted(per_layer[layer])), per_layer[layer])
            for layer in BASE_LAYERS]


def read_blocks(path: str | Path, villages: Sequence[str]) -> dict[str, str]:
    """Each village's block label; every one of ``villages``, and no other, needs one."""
    numbers, columns, _ = _read_table(path, "block", BLOCK_COLUMNS, ())
    known = set(villages)
    blocks: dict[str, str] = {}
    for lineno, village, block in zip(numbers.tolist(), map(str.strip, columns[0]),
                                      map(str.strip, columns[1])):
        if village in blocks:
            raise IngestionError(f"{path}: line {lineno}: village {village} listed twice")
        if village not in known:
            raise IngestionError(f"{path}: line {lineno}: village {village} is not in the panel")
        blocks[village] = block
    missing = [v for v in villages if v not in blocks]
    if missing:
        raise IngestionError(f"{path}: villages without a block label: {', '.join(missing)}")
    return blocks


# ---------------------------------------------------------------------------
# Panel archive.

def write_panel(panel: StudyPanel, path: str | Path) -> None:
    """The panel as ``json.dump(doc, indent=2, sort_keys=True)`` would write it.

    ``json`` encodes the small members and each covariate mapping; the
    individuals and networks arrays, nearly all of the file, are written
    straight from the panel, the networks from each network's index arrays.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "panel",
        "individuals": [],
        "village_dosages": {v: panel.design.village_dosages[v] for v in panel.villages},
        "networks": {},
    }
    head, rest = json.dumps(doc, indent=2, sort_keys=True).split(_INDIVIDUALS_SLOT)
    middle, tail = rest.split(_NETWORKS_SLOT)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for part in (head, _INDIVIDUALS_SLOT[:-2], _individuals_json(panel),
                     middle, _NETWORKS_SLOT[:-2], _networks_json(panel), tail, "\n"):
            fh.write(part)


# Members of a top-level panel object holding an empty array or object; json
# escapes newlines in strings, so each text is found once, at the top level.
_INDIVIDUALS_SLOT = '\n  "individuals": []'
_NETWORKS_SLOT = '\n  "networks": {}'


def _individuals_json(panel: StudyPanel) -> str:
    """The individuals array, indented as a member of the top-level panel object."""
    enc = encode_basestring_ascii
    records = []
    for iid in panel.index.individuals:
        ind = panel.individuals[iid]
        covariates = "{}"
        if ind.covariates:   # the object as json indents it, shifted to its depth
            covariates = json.dumps(dict(ind.covariates), indent=2,
                                    sort_keys=True).replace("\n", "\n      ")
        records.append(f"    {{\n      \"covariates\": {covariates},\n"
                       f"      \"household_id\": {enc(ind.household_id)},\n"
                       f"      \"id\": {enc(ind.id)},\n"
                       f"      \"treated\": {'true' if ind.treated else 'false'},\n"
                       f"      \"village_id\": {enc(ind.village_id)}\n    }}")
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def _networks_json(panel: StudyPanel) -> str:
    """The networks object, indented as a member of the top-level panel object."""
    if not panel.networks:
        return "{}"
    encoded: dict[str, list[str]] = {}   # village -> its members, JSON-encoded
    members = []
    for key, net in sorted(((f"{v}|{w}|{l}", net) for (v, w, l), net in panel.networks.items()),
                           key=lambda item: item[0]):
        if net.village_id not in encoded:
            encoded[net.village_id] = [encode_basestring_ascii(x) for x in net.nodes]
        names = encoded[net.village_id]
        if net.edge_count:
            pairs = ",\n".join([f"      [\n        {names[u]},\n        {names[v]}\n      ]"
                                for u, v in zip(net.src.tolist(), net.dst.tolist())])
            members.append(f"    {encode_basestring_ascii(key)}: [\n{pairs}\n    ]")
        else:
            members.append(f"    {encode_basestring_ascii(key)}: []")
    return "{\n" + ",\n".join(members) + "\n  }"


def read_panel(path: str | Path) -> StudyPanel:
    """Load a panel archive through ingest's panel rules; errors name the file.

    Ids are unique, and ``village_dosages`` declares exactly the villages with members.
    """
    with _gc_paused():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            return _panel_of(doc)
        except TypeError:   # a value of the wrong JSON type, met on the way
            fault = _type_fault(doc)
            if fault is None:
                raise
            raise IngestionError(f"{path}: {fault}") from None
        except (IngestionError, NetworkError) as exc:
            raise type(exc)(f"{path}: {exc}") from None


def _panel_of(doc) -> StudyPanel:
    if not isinstance(doc, dict) or doc.get("kind") != "panel":
        raise IngestionError("not a panel archive")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:   # true and 1.0 equal 1
        raise IngestionError(f"format version {version} unsupported")
    records = doc.get("individuals", ())
    if not records:
        raise IngestionError("no individuals")
    for name, kind in (("individuals", list), ("village_dosages", dict), ("networks", dict)):
        if not isinstance(doc.get(name, kind()), kind):
            raise IngestionError(f"{name} is not {'an array' if kind is list else 'an object'}")
    try:
        individuals = {
            rec["id"]: Individual(
                id=rec["id"],
                household_id=rec["household_id"],
                village_id=rec["village_id"],
                treated=bool(rec["treated"]),
                covariates=rec.get("covariates") or None,
            )
            for rec in records
        }
    except KeyError as exc:   # the first record without a key, the key it lacks first
        k, rec = next((k, r) for k, r in enumerate(records, start=1) if exc.args[0] not in r)
        name = f"individual {rec['id']}" if "id" in rec else f"individual record {k}"
        raise IngestionError(f"{name} has no {exc.args[0]}") from None
    if len(individuals) != len(records):
        repeated = [i for i, n in Counter(rec["id"] for rec in records).items() if n > 1]
        raise IngestionError(f"individual {repeated[0]} listed twice")
    declared = doc.get("village_dosages", {})
    dosages = {}
    for v, a in declared.items():
        try:
            dosages[v] = float(a)
        except (TypeError, ValueError):
            raise IngestionError(f"village {v}: dosage {a!r} is not a number") from None
    design = infer_design(individuals.values(), dosages, infer_missing=False)
    members: dict[str, list[str]] = {}
    for iid in sorted(individuals):
        members.setdefault(individuals[iid].village_id, []).append(iid)
    index = {v: {iid: k for k, iid in enumerate(ids)} for v, ids in members.items()}
    networks = {}
    for key, edges in doc.get("networks", {}).items():
        try:
            village, wave, layer = key.split("|")
            wave = int(wave)
        except ValueError:
            raise IngestionError(f"network key {key!r} is not village|wave|layer") from None
        if village not in index:
            raise IngestionError(f"network {key} names unknown village {village}")
        if not isinstance(edges, list):
            raise IngestionError(f"network {key} is not an array")
        if set(map(len, edges)) - {2}:
            raise IngestionError(f"network {key}: every edge must be a pair of ids")
        ends = list(chain.from_iterable(edges))
        try:
            flat = np.array(itemgetter(*ends)(index[village]) if ends else (), dtype=np.intp)
        except KeyError as exc:
            raise NetworkError(f"edge endpoint {exc.args[0]} not a member of "
                               f"{village}/{layer}") from None
        networks[(village, wave, layer)] = LayerNetwork(
            village, wave, layer, members[village], pairs=(flat[0::2], flat[1::2]))
    return StudyPanel(individuals, design, networks)


def _type_fault(doc: dict) -> str | None:
    """The first record or network value of the wrong JSON type, or None if there is none."""
    for k, rec in enumerate(doc["individuals"], start=1):
        if not isinstance(rec, dict):
            return f"individual record {k} is not an object"
        name = (f"individual {rec['id']}" if isinstance(rec.get("id"), str)
                else f"individual record {k}")
        for key in ("id", "household_id", "village_id"):
            if not isinstance(rec.get(key, ""), str):
                return f"{name}: {key} {rec[key]!r} is not a string"
    for key, edges in doc.get("networks", {}).items():
        for edge in edges:
            if not isinstance(edge, list) or len(edge) != 2:
                return f"network {key}: every edge must be a pair of ids"
            for end in edge:
                if not isinstance(end, str):
                    return f"network {key}: edge endpoint {end!r} is not an id"
    return None


@contextmanager
def _gc_paused():
    """Cyclic garbage collection off while a large acyclic document is built.

    Decoding a panel makes one list per edge; each collection pass on the way
    walks all of them, which costs more than the decoding itself.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Exports.

def fmt_value(x) -> str:
    """A table cell: a boolean as 0/1, None and NaN as NA, a float to 12 significant digits."""
    if x is None:
        return "NA"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        if math.isnan(x):
            return "NA"
        return format(x, ".12g")
    return str(x)


def write_lines(path: str | Path, kind: str | None, header: str,
                lines: Iterable[str]) -> None:
    """The header and lines, after a format line naming ``kind`` (none for an input file)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if kind:
            fh.write(f"# format: villagenet/{kind} v{FORMAT_VERSION}\n")
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_table(path: str | Path, kind: str | None, header: str,
                rows: Iterable[Sequence]) -> None:
    """One comma-joined line of `fmt_value` cells per row, under ``header`` (free text)."""
    write_lines(path, kind, header, (",".join(map(fmt_value, row)) for row in rows))


def write_metric_table(table, path: str | Path) -> None:
    heads = [f"{ind},{village}," for ind, village in zip(table.individuals, table.villages)]
    lines = []
    for wave in (1, 3):
        for metric in table.metrics:
            tail = f",{table.layer},{metric},"
            # the float column formatted as fmt_value does it: NaN is NA
            lines += [f"{head}{wave}{tail}{'NA' if v != v else format(v, '.12g')}"
                      for head, v in zip(heads, table.values[(wave, metric)].tolist())]
    write_lines(path, "metrics",
                "individual_id,village_id,wave,layer,metric,value", sorted(lines))


def write_roster_csv(panel: StudyPanel, path: str | Path) -> None:
    people = (panel.individuals[iid] for iid in panel.index.individuals)
    write_table(path, None, ",".join(ROSTER_REQUIRED) + ",village_dosage",
                ((ind.id, ind.household_id, ind.village_id, ind.treated, 1, 1,
                  panel.design.village_dosages[ind.village_id]) for ind in people))


def write_edges_csv(panel: StudyPanel, path: str | Path) -> None:
    """Base-layer edges as responses to each default layer's first straight question."""
    question_for = {spec.layer: next(q for q in spec.question_ids if not spec.inverted[q])
                    for spec in DEFAULT_LAYER_SPECS}
    lines = []
    for (village, wave, layer) in sorted(panel.networks):
        net = panel.networks[(village, wave, layer)]
        q = question_for[layer]
        lines += [f"{wave},{village},{q},{net.nodes[u]},{net.nodes[v]}"
                  for u, v in zip(net.src.tolist(), net.dst.tolist())]
    write_lines(path, None, ",".join(EDGE_COLUMNS), lines)


def write_layer_map_csv(path: str | Path) -> None:
    write_table(path, None, ",".join(LAYER_COLUMNS),
                ((q, spec.layer, spec.inverted[q])
                 for spec in DEFAULT_LAYER_SPECS for q in spec.question_ids))


# ---------------------------------------------------------------------------
# JSON documents.

def _write_json(doc, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def config_digest(config: Mapping) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(command: str, config: Mapping, path: str | Path,
                   tool_version: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "manifest",
        "tool_version": tool_version,
        "command": command,
        "config": dict(config),
        "config_sha256": config_digest(config),
    }
    _write_json(doc, path)


def write_oracle(oracle, path: str | Path) -> None:
    doc = {"format_version": FORMAT_VERSION, "kind": "oracle"}
    doc.update(oracle.to_dict())
    _write_json(doc, path)
