"""Seeded inputs for the benchmark workloads.

Two generators live here:

* ``ingest_inputs`` writes raw roster/edge/layer-map CSVs with planted data
  problems (inverted questions, duplicate nominations, cross-village
  nominations, absent/moved/incomplete individuals) and returns the truth the
  ingested panel must reproduce. It does not use villagenet at all.
* ``synth_panel`` builds a study with villagenet's own synthetic generator and
  writes it with villagenet's panel writer.

Village sizes are a fixed, evenly spaced set for every seed, so the amount of
work does not drift with the seed; the seed moves households, treatment,
edges and exclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ARMS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)
BASE_LAYERS = ("health", "friendship", "financial")
# villagenet.synth.DEFAULT_DENSITIES: expected share of ordered pairs tied.
DENSITY = {"health": 0.020, "friendship": 0.050, "financial": 0.018}
# question -> (layer, inverted); an inverted question names the tie's source
# as the alter, so the nomination (ego, alter) means the tie alter -> ego.
QUESTIONS = {
    "health_advice_get": ("health", False),
    "health_advice_give": ("health", True),
    "friend_personal": ("friendship", False),
    "friend_free_time": ("friendship", False),
    "friend_closest": ("friendship", False),
    "money_borrow": ("financial", False),
    "money_lend": ("financial", True),
}
P_KEEP, P_FORM = 0.6444, 0.0077
DUPLICATE_SHARE = 0.10      # ties nominated a second time
EXCLUDED_PER = 25           # one planted exclusion per this many members
CROSS_VILLAGE_PER = 20      # one cross-village nomination per this many members
EXCLUSION_REASONS = ("incomplete_forms", "absent", "moved")


def village_sizes(lo: int, hi: int, per_arm: int) -> list[int]:
    """Evenly spaced sizes from lo to hi; every arm gets the same set."""
    return [int(x) for x in np.linspace(lo, hi, per_arm).round()]


def _households(rng: np.random.Generator, n: int) -> list[int]:
    sizes, left = [], n
    while left > 0:
        s = min(int(rng.integers(1, 7)), left)
        sizes.append(s)
        left -= s
    return sizes


@dataclass
class IngestTruth:
    """What ``villagenet ingest`` must produce from the generated files."""

    kept: set[str] = field(default_factory=set)
    dosages: dict[str, float] = field(default_factory=dict)
    edges: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    individuals_excluded: dict[str, int] = field(default_factory=dict)
    responses_dropped: dict[str, int] = field(default_factory=dict)


def ingest_inputs(outdir: Path, seed: int, per_arm: int, size: tuple[int, int]) -> IngestTruth:
    """Write roster.csv, edges.csv and layer_map.csv; return the planted truth."""
    rng = np.random.default_rng([seed, 101])
    truth = IngestTruth(individuals_excluded={r: 0 for r in EXCLUSION_REASONS},
                        responses_dropped={"cross_village": 0, "excluded_ego": 0,
                                           "excluded_alter": 0})
    questions_of = {layer: [q for q, (l, _) in QUESTIONS.items() if l == layer]
                    for layer in BASE_LAYERS}
    roster_lines: list[str] = []
    rows: list[str] = []
    villages: list[tuple[str, list[str], np.ndarray]] = []  # id, members, kept mask

    v_index = 0
    for alpha in ARMS:
        for n in village_sizes(size[0], size[1], per_arm):
            vid = f"v{v_index:03d}"
            v_index += 1
            hh_sizes = _households(rng, n)
            n_treated = int(np.floor(alpha * len(hh_sizes) + 0.5))
            treated_hh = set(rng.choice(len(hh_sizes), size=n_treated, replace=False).tolist())
            members, household_of = [], []
            for h, s in enumerate(hh_sizes):
                for _ in range(s):
                    members.append(f"{vid}_i{len(members):04d}")
                    household_of.append(h)
            # Plant exclusions at most one per household of two or more, so
            # no household (and so no treated-household count) disappears.
            multi = [h for h, s in enumerate(hh_sizes) if s >= 2]
            n_excl = min(len(multi), max(1, n // EXCLUDED_PER))
            excl_hh = set(rng.choice(multi, size=n_excl, replace=False).tolist())
            kept = np.ones(n, dtype=bool)
            seen_hh: set[int] = set()
            for k in range(n):
                h = household_of[k]
                treated = int(h in treated_hh)
                fields = [members[k], f"{vid}_h{h:03d}", vid, str(treated), "1", "1", "1", "", ""]
                if h in excl_hh and h not in seen_hh:
                    seen_hh.add(h)
                    kept[k] = False
                    reason = EXCLUSION_REASONS[int(rng.integers(3))]
                    truth.individuals_excluded[reason] += 1
                    if reason == "incomplete_forms":
                        fields[6] = "0"
                    elif reason == "absent":
                        fields[4 + int(rng.integers(2))] = "0"
                    else:
                        other = (h + 1) % len(hh_sizes)
                        fields[7] = f"{vid}_h{other:03d}"
                roster_lines.append(",".join(fields) + f",{alpha}")
                if kept[k]:
                    truth.kept.add(members[k])
            truth.dosages[vid] = alpha
            villages.append((vid, members, kept))

            off = ~np.eye(n, dtype=bool)
            for layer in BASE_LAYERS:
                w1 = (rng.random((n, n)) < DENSITY[layer]) & off
                w3 = np.where(w1, rng.random((n, n)) < P_KEEP, rng.random((n, n)) < P_FORM) & off
                for wave, adj in ((1, w1), (3, w3)):
                    src, dst = np.nonzero(adj)
                    inside = kept[src] & kept[dst]
                    truth.edges[f"{vid}|{wave}|{layer}"] = {
                        (members[u], members[v]) for u, v in zip(src[inside].tolist(),
                                                                 dst[inside].tolist())}
                    dup = rng.random(src.size) < DUPLICATE_SHARE
                    tie_rows = np.concatenate([np.arange(src.size), np.nonzero(dup)[0]])
                    qs = questions_of[layer]
                    picks = rng.integers(len(qs), size=tie_rows.size)
                    for t, qk in zip(tie_rows.tolist(), picks.tolist()):
                        q = qs[qk]
                        u, v = int(src[t]), int(dst[t])
                        ego, alter = (v, u) if QUESTIONS[q][1] else (u, v)
                        if not kept[ego]:
                            truth.responses_dropped["excluded_ego"] += 1
                        elif not kept[alter]:
                            truth.responses_dropped["excluded_alter"] += 1
                        rows.append(f"{wave},{vid},{q},{members[ego]},{members[alter]}")

    # Cross-village nominations between kept members of neighbouring villages.
    for k, (vid, members, kept) in enumerate(villages):
        _, other_members, other_kept = villages[(k + 1) % len(villages)]
        egos = np.nonzero(kept)[0]
        alters = np.nonzero(other_kept)[0]
        for _ in range(max(1, len(members) // CROSS_VILLAGE_PER)):
            q = list(QUESTIONS)[int(rng.integers(len(QUESTIONS)))]
            ego = members[int(rng.choice(egos))]
            alter = other_members[int(rng.choice(alters))]
            rows.append(f"{1 + 2 * int(rng.integers(2))},{vid},{q},{ego},{alter}")
            truth.responses_dropped["cross_village"] += 1

    order = rng.permutation(len(rows))
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "roster.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("individual_id,household_id,village_id,treated,wave1_present,"
                 "wave3_present,forms_complete,wave3_household_id,wave3_village_id,"
                 "village_dosage\n")
        fh.write("\n".join(roster_lines) + "\n")
    with open(outdir / "edges.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("wave,village_id,question_id,ego_id,alter_id\n")
        fh.write("\n".join(rows[i] for i in order.tolist()) + "\n")
    with open(outdir / "layer_map.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("question_id,layer,inverted\n")
        for q, (layer, inverted) in QUESTIONS.items():
            fh.write(f"{q},{layer},{int(inverted)}\n")
    return truth


def synth_panel(path: Path, seed: int, per_arm: int, size: tuple[int, int]) -> None:
    """Write a panel from villagenet's synthetic generator.

    One ``generate_panel`` call per village size gives each arm one village of
    that size; the studies are merged under distinct village prefixes.
    """
    from villagenet import io as vio
    from villagenet.core import Individual, StudyPanel, TreatmentDesign
    from villagenet.networks import LayerNetwork
    from villagenet.synth import SyntheticScenario, generate_panel

    individuals: dict = {}
    dosages: dict = {}
    assignments: dict = {}
    networks: dict = {}
    for k, n in enumerate(village_sizes(size[0], size[1], per_arm)):
        scenario = SyntheticScenario(
            seed=int(np.random.SeedSequence([seed, k]).generate_state(1)[0]),
            arms=tuple((alpha, 1) for alpha in ARMS),
            village_size=(n, n),
            layers=BASE_LAYERS,
            edge_density=dict(DENSITY),
            p_keep={"UoUo": P_KEEP, "UT": 0.55, "TU": 0.55, "TT": 0.75},
            p_form={"UoUo": P_FORM, "TT": 0.012},
        )
        panel, _ = generate_panel(scenario)
        tag = f"s{k:02d}"
        for ind in panel.individuals.values():
            individuals[tag + ind.id] = Individual(tag + ind.id, tag + ind.household_id,
                                                   tag + ind.village_id, ind.treated)
        for v, alpha in panel.design.village_dosages.items():
            dosages[tag + v] = alpha
            assignments[tag + v] = {tag + h: t for h, t in panel.design.assignments[v].items()}
        for (v, wave, layer), net in panel.networks.items():
            networks[(tag + v, wave, layer)] = LayerNetwork(
                tag + v, wave, layer, tuple(tag + m for m in net.nodes),
                frozenset((tag + a, tag + b) for a, b in net.edges))
    path.parent.mkdir(parents=True, exist_ok=True)
    vio.write_panel(StudyPanel(individuals, TreatmentDesign(dosages, assignments), networks), path)
