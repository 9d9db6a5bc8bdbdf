"""The integer-mask contrast kernel against the per-draw string-id oracle.

Random small panels cover every contrast kind and dosage scope, blocked and
unblocked re-randomization, the exclude_intra_household variant and a metric
with undefined values (closeness of isolates). Degree-family statistics are
sums of integers, so kernel and oracle must agree bit for bit; float metrics
are summed in another order and must agree within 1e-9 (relative and
absolute), with the same NaN pattern.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from villagenet.core import treated_household_count
from villagenet.effects import (
    CONTRAST_KINDS,
    DOSAGE_SCOPES,
    ContrastKernel,
    ContrastSpec,
    EffectError,
    enumerate_specs,
)
from villagenet.metrics import metric_table
from villagenet.randomization import (
    RandomizationError,
    block_groups,
    derive_stream,
    null_statistics,
    permutation_pvalue,
    permute_assignment,
)

import draw_oracle
from conftest import make_panel

DEGREE_FAMILY = ("degree", "in_degree", "out_degree")
TREATED_DOSAGES = (0.05, 0.2, 0.3, 0.5, 0.75, 1.0)
FLOAT_TOLERANCE = 1e-9


def random_panel(seed: int):
    """2-5 villages (at least one control) of 2-5 households with 1-3 members."""
    rng = np.random.default_rng(seed)
    n_villages = int(rng.integers(2, 6))
    dosages = [0.0] + [float(rng.choice((0.0,) + TREATED_DOSAGES))
                       for _ in range(n_villages - 1)]
    villages, edges = {}, {}
    for v, alpha in enumerate(dosages):
        vid = f"v{v}"
        households = {f"{vid}h{h}": [f"{vid}h{h}m{m}" for m in range(int(rng.integers(1, 4)))]
                      for h in range(int(rng.integers(2, 6)))}
        hids = sorted(households)
        k = treated_household_count(alpha, len(hids))
        treated = [hids[i] for i in rng.permutation(len(hids))[:k]]
        villages[vid] = {"dosage": alpha, "households": households, "treated": treated}
        members = [m for ids in households.values() for m in ids]
        for wave in (1, 3):
            pairs = rng.integers(0, len(members), size=(int(rng.integers(0, 2 * len(members))), 2))
            edges[(vid, wave, "health")] = [(members[a], members[b]) for a, b in pairs if a != b]
    return make_panel(villages, edges)


def blocks_for(panel, seed: int):
    rng = np.random.default_rng(seed + 1)
    return {v: f"b{int(rng.integers(0, 2))}" for v in panel.villages}


def assert_same_statistics(got, want, metric):
    if metric in DEGREE_FAMILY:
        assert np.array_equal(got, want, equal_nan=True)
    else:
        np.testing.assert_allclose(got, want, rtol=FLOAT_TOLERANCE, atol=FLOAT_TOLERANCE)


def all_specs(metric, variant):
    return enumerate_specs(["health"], [metric], DOSAGE_SCOPES, CONTRAST_KINDS, [variant])


CASES = dict(
    seed=st.integers(0, 2**31 - 1),
    blocked=st.booleans(),
    variant=st.sampled_from([(), ("exclude_intra_household",)]),
    metric=st.sampled_from(["degree", "in_degree", "closeness"]),
)


@settings(max_examples=60, deadline=None)
@given(**CASES, scaling=st.sampled_from(["control_w1", "control_w3"]))
def test_null_statistics_match_oracle_draw_by_draw(seed, blocked, variant, metric, scaling):
    panel = random_panel(seed)
    blocks = blocks_for(panel, seed) if blocked else None
    specs = all_specs(metric, variant)
    table = metric_table(panel, "health", variant, (metric,))
    got = null_statistics(panel, [ContrastKernel(panel, specs, table)], 15, seed, scaling,
                          blocks=blocks)
    want = draw_oracle.null_statistics(panel, table, specs, 15, seed, scaling, blocks)
    assert_same_statistics(got, want, metric)


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_observed_estimates_and_groups_match_oracle(seed, blocked, variant, metric):
    panel = random_panel(seed)
    table = metric_table(panel, "health", variant, (metric,))
    dosages, treatments = draw_oracle.permute_assignment(
        panel.design, derive_stream(seed, 0), blocks_for(panel, seed) if blocked else None)
    drawn = draw_oracle.assignment_from_draw(panel, dosages, treatments)
    for asg in (None, drawn):
        for spec in all_specs(metric, variant):
            try:
                want = draw_oracle.evaluate(panel, table, spec, asg)
            except EffectError as exc:
                with pytest.raises(EffectError) as raised:
                    draw_oracle.kernel_evaluate(panel, table, spec, asg)
                assert str(raised.value) == str(exc)
                continue
            est = draw_oracle.kernel_evaluate(panel, table, spec, asg)
            got = (est.raw_did, est.pct_effect, est.n_focal, est.n_comparison)
            assert_same_statistics(np.array(got), np.array(want), metric)
            focal, comparison = draw_oracle.kernel_groups(panel, spec, asg)
            want_focal, want_comparison = draw_oracle.classify_groups(
                panel, spec, asg if asg is not None else draw_oracle.observed_assignment(panel))
            assert (set(focal), set(comparison)) == (set(want_focal), set(want_comparison))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), blocked=st.booleans())
def test_permute_assignment_keeps_the_rng_call_order(seed, blocked):
    panel = random_panel(seed)
    blocks = blocks_for(panel, seed) if blocked else None
    groups = block_groups(panel.index.villages, blocks)
    for j in range(5):
        draw = permute_assignment(panel.index, groups, derive_stream(seed, j))
        want = draw_oracle.permute_assignment(panel.design, derive_stream(seed, j), blocks)
        assert draw_oracle.draw_by_id(panel.design, draw) == want


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_pvalues_at_least_one_over_m_plus_one(seed, blocked, variant, metric):
    panel = random_panel(seed)
    m = 19
    for spec in all_specs(metric, variant):
        try:
            result = permutation_pvalue(panel, spec, m, seed,
                                        blocks=blocks_for(panel, seed) if blocked else None)
        except (EffectError, RandomizationError):
            continue
        assert 1 / (m + 1) <= result.p_value <= 1.0


@pytest.mark.parametrize("metric", ["degree", "closeness"])
def test_draw_equal_to_observed_ties_with_it(metric):
    # One village per block and dosages 0 / 1: every draw is the observed
    # assignment, so every null statistic must equal the observed one exactly.
    villages = {
        "c": {"dosage": 0.0, "households": {"ch0": ["c0", "c1"], "ch1": ["c2"]}},
        "t": {"dosage": 1.0, "households": {"th0": ["t0"], "th1": ["t1", "t2"]},
              "treated": ["th0", "th1"]},
    }
    edges = {("c", 1, "health"): [("c0", "c1"), ("c1", "c2")],
             ("c", 3, "health"): [("c0", "c2")],
             ("t", 1, "health"): [("t0", "t1")],
             ("t", 3, "health"): [("t0", "t1"), ("t1", "t2")]}
    panel = make_panel(villages, edges)
    spec = ContrastSpec(kind="total", dosage_scope="all", layer="health", metric=metric)
    result = permutation_pvalue(panel, spec, 25, master_seed=3, blocks={"c": "x", "t": "y"})
    assert set(result.null_draws) == {result.observed}
    assert result.p_value == 1.0

