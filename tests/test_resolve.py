import random
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlink.corpus import SyntheticSpec, generate_synthetic
from adlink.extract import extract_fields
from adlink.matchmodel import Dataset, train_forest
from adlink.pairfeat import FEATURE_NAMES, SCHEMA_VERSION, PairFeaturizer
from adlink.blocking import build_blocks, candidate_pairs
from adlink.resolve import (
    SweepResult,
    connected_components,
    score_candidates,
    select_threshold,
    sweep_curve,
    threshold_sweep,
)
from adlink.surrogate import build_strong_graph, sample_pairs
from adlink.unionfind import UnionFind


def bfs_partition(nodes, edges):
    adjacency = {n: set() for n in nodes}
    for i, j in edges:
        adjacency.setdefault(i, set()).add(j)
        adjacency.setdefault(j, set()).add(i)
    seen = set()
    parts = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        queue = deque([start])
        comp = set()
        while queue:
            node = queue.popleft()
            if node in comp:
                continue
            comp.add(node)
            queue.extend(adjacency[node] - comp)
        seen |= comp
        parts.append(frozenset(comp))
    return set(parts)


def test_component_example():
    comps = connected_components([("1", "2"), ("2", "3")], [], 0.5, nodes=["1", "2", "3", "4"])
    got = {frozenset(m) for m in comps.members.values()}
    assert got == {frozenset({"1", "2", "3"}), frozenset({"4"})}


def test_no_edges_all_singletons():
    comps = connected_components([], [], 0.5, nodes=["a", "b", "c"])
    assert len(comps) == 3
    assert comps.largest_size() == 1


def test_weak_edges_respect_threshold():
    weak = [("1", "2", 0.9), ("2", "3", 0.3)]
    comps = connected_components([], weak, 0.5, nodes=["1", "2", "3"])
    got = {frozenset(m) for m in comps.members.values()}
    assert got == {frozenset({"1", "2"}), frozenset({"3"})}
    # boundary: score exactly at threshold is admitted
    comps2 = connected_components([], [("1", "2", 0.5)], 0.5, nodes=["1", "2"])
    assert len(comps2) == 1


def test_edge_counts_per_component():
    comps = connected_components(
        [("1", "2"), ("1", "2"), ("2", "3")],  # duplicate strong edge collapses
        [("1", "3", 0.8), ("4", "5", 0.9)],
        0.5,
        nodes=["1", "2", "3", "4", "5"],
    )
    assert comps.edge_counts["1"] == (2, 1)
    assert comps.edge_counts["4"] == (0, 1)


def test_self_edges_ignored():
    comps = connected_components([("1", "1")], [("2", "2", 0.99)], 0.5, nodes=["1", "2"])
    assert len(comps) == 2


def test_union_find_matches_bfs_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 300)
        nodes = [f"n{i}" for i in range(n)]
        edges = [
            (rng.choice(nodes), rng.choice(nodes))
            for _ in range(rng.randint(0, 2 * n))
        ]
        comps = connected_components(edges, [], 0.0, nodes=nodes)
        got = {frozenset(m) for m in comps.members.values()}
        assert got == bfs_partition(nodes, edges)


def test_union_find_basics():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("c", "d")
    assert uf.connected("a", "b")
    assert not uf.connected("a", "c")
    uf.union("b", "c")
    assert uf.connected("a", "d")
    assert set(uf.groups()) == {"a"}
    assert uf.union("d", "a") is False
    assert len(uf) == 1 and uf.size("c") == 4


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))))
def test_union_find_sizes_match_groups(graph):
    n, edges = graph
    uf = UnionFind()
    for x in range(n):
        uf.add(x)
    merges = 0
    for x, y in edges:
        was_joined = uf.connected(x, y)
        merged = uf.union(x, y)
        assert merged is not was_joined
        merges += merged
    groups = uf.groups()
    assert len(uf) == len(groups) == n - merges
    assert sorted(uf.sizes.values()) == sorted(len(m) for m in groups.values())
    for members in groups.values():
        assert all(uf.size(x) == len(members) for x in members)


# --- scoring -----------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_setup():
    ads = generate_synthetic(SyntheticSpec(n_sources=12, ads_per_source=(10, 16), rng_seed=21))
    fieldsets = {a.id: extract_fields(a.text) for a in ads}
    graph, comps = build_strong_graph({a.id: fieldsets[a.id].phones for a in ads})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        samples = sample_pairs(comps, graph, n_pos=300, n_neg=300, rng_seed=1)
    ads_by_id = {a.id: a for a in ads}
    fz = PairFeaturizer(ads_by_id, fieldsets)
    X = fz.matrix([(s.ad_i, s.ad_j) for s in samples])
    y = np.array([1 if s.label == "positive" else 0 for s in samples])
    ds = Dataset(X=X, y=y, ids=[], feature_names=FEATURE_NAMES, schema_version=SCHEMA_VERSION)
    model = train_forest(ds, n_trees=20, max_depth=10, seed=3)
    return ads, ads_by_id, fieldsets, graph, model


def test_score_candidates_empty(trained_setup):
    _, ads_by_id, fieldsets, _, model = trained_setup
    assert score_candidates(model, [], ads_by_id, fieldsets) == []


def test_scores_in_unit_interval_and_rank_sane(trained_setup):
    ads, ads_by_id, fieldsets, _, model = trained_setup
    by_source = {}
    for ad in ads:
        by_source.setdefault(ad.source_id, []).append(ad)
    same = next(v[:2] for v in by_source.values() if len(v) >= 2)
    cross = None
    for v in by_source.values():
        if v[0].state != same[0].state:
            cross = (same[0], v[0])
            break
    pairs = [(same[0].id, same[1].id)]
    if cross:
        pairs.append((cross[0].id, cross[1].id))
    scored = score_candidates(model, pairs, ads_by_id, fieldsets)
    assert all(0.0 <= s <= 1.0 for _, _, s in scored)
    if cross:
        assert scored[0][2] >= scored[1][2]


def test_identical_ad_scores_high(trained_setup):
    ads, ads_by_id, fieldsets, _, model = trained_setup
    ad = ads[0]
    scored = score_candidates(model, [(ad.id, ad.id)], ads_by_id, fieldsets)
    assert scored[0][2] >= 0.5


# --- sweep -------------------------------------------------------------------

def test_threshold_sweep_monotone(trained_setup):
    ads, _, fieldsets, _, model = trained_setup
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = threshold_sweep(model, ads, fieldsets,
                                thresholds=[0.0, 0.2, 0.4, 0.6, 0.8, 0.95],
                                sample_size=len(ads), seed=0,
                                rarity_threshold=20)
    thresholds = [t for t, _, _ in sweep.rows]
    counts = [n for _, n, _ in sweep.rows]
    largests = [l for _, _, l in sweep.rows]
    assert thresholds == sorted(set(thresholds))
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert all(a >= b for a, b in zip(largests, largests[1:]))


def test_sweep_above_max_score_equals_strong_only(trained_setup):
    ads, _, fieldsets, graph, model = trained_setup
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = threshold_sweep(model, ads, fieldsets, thresholds=[0.5, 1.01],
                                sample_size=len(ads), seed=0, rarity_threshold=20)
    strong_only = connected_components(graph.strong_pairs(), [], 0.0,
                                       nodes=[a.id for a in ads])
    _, n, largest = sweep.rows[-1]
    assert n == len(strong_only)
    assert largest == strong_only.largest_size()


def test_sweep_partitions_refine_as_threshold_rises(trained_setup):
    ads, ads_by_id, fieldsets, graph, model = trained_setup
    index = build_blocks(ads, rarity_threshold=20)
    scored = score_candidates(model, candidate_pairs(index), ads_by_id, fieldsets)
    nodes = [a.id for a in ads]
    strong = graph.strong_pairs()
    prev = None
    for t in (0.2, 0.5, 0.8):
        comps = connected_components(strong, scored, t, nodes=nodes)
        comp_of = comps.component_of()
        if prev is not None:
            # refinement: same component at higher t implies same at lower t
            for i in nodes:
                for j in nodes[:20]:
                    if comp_of[i] == comp_of[j]:
                        assert prev[i] == prev[j]
        prev = comp_of


def test_strong_edges_survive_every_threshold(trained_setup):
    ads, _, fieldsets, graph, model = trained_setup
    strong = graph.strong_pairs()
    comps = connected_components(strong, [], 1.0, nodes=[a.id for a in ads])
    comp_of = comps.component_of()
    for i, j in strong:
        assert comp_of[i] == comp_of[j]


def test_sweep_sample_clamp_warns(trained_setup):
    ads, _, fieldsets, _, model = trained_setup
    with pytest.warns(UserWarning, match="clamping"):
        threshold_sweep(model, ads, fieldsets, thresholds=[0.4, 0.6],
                        sample_size=10 * len(ads), seed=0, rarity_threshold=20)


def test_sweep_needs_two_thresholds(trained_setup):
    ads, _, fieldsets, _, model = trained_setup
    with pytest.raises(ValueError):
        threshold_sweep(model, ads, fieldsets, thresholds=[0.5], sample_size=10)


def test_sweep_curve_matches_connected_components_on_random_graphs():
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98]
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 120)
        names = [f"n{i}" for i in range(n)]
        # some edge endpoints are left out of ``nodes``; self edges included
        nodes = rng.sample(names, rng.randint(0, n))
        strong = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, n // 4))]
        weak = []
        for _ in range(rng.randint(0, 3 * n)):
            # half the scores sit exactly on a grid value
            score = rng.choice(grid) if rng.random() < 0.5 else rng.random()
            weak.append((rng.choice(names), rng.choice(names), score))
        expected = []
        for t in grid:
            comps = connected_components(strong, weak, t, nodes=nodes)
            expected.append((t, len(comps), comps.largest_size()))
        assert sweep_curve(strong, weak, reversed(grid), nodes=nodes) == expected


def test_sweep_curve_empty_graph():
    assert sweep_curve([], [], [0.2, 0.5]) == [(0.2, 0, 0), (0.5, 0, 0)]
    assert sweep_curve([], [("a", "b", float("nan"))], [0.0, 0.5], nodes=["a", "b"]) == [
        (0.0, 2, 1), (0.5, 2, 1)]


# --- score once ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_model(small_corpus, small_fieldsets):
    graph, comps = build_strong_graph({a.id: small_fieldsets[a.id].phones for a in small_corpus})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        samples = sample_pairs(comps, graph, n_pos=300, n_neg=300, rng_seed=4)
    fz = PairFeaturizer({a.id: a for a in small_corpus}, small_fieldsets)
    X = fz.matrix([(s.ad_i, s.ad_j) for s in samples])
    y = np.array([1 if s.label == "positive" else 0 for s in samples])
    ds = Dataset(X=X, y=y, ids=[], feature_names=FEATURE_NAMES, schema_version=SCHEMA_VERSION)
    return train_forest(ds, n_trees=15, max_depth=8, seed=5)


@pytest.fixture(scope="module")
def corpus_scores(small_corpus, small_fieldsets, small_model):
    pairs = candidate_pairs(build_blocks(small_corpus, rarity_threshold=20))
    scored = score_candidates(small_model, pairs, {a.id: a for a in small_corpus},
                              small_fieldsets)
    return {(i, j): s for i, j, s in scored}


def test_score_depends_only_on_the_pair(small_corpus, small_fieldsets, small_model,
                                        corpus_scores):
    pairs = sorted(corpus_scores)[::7]
    needed = {ad_id for pair in pairs for ad_id in pair}
    subset = {a.id: a for a in small_corpus if a.id in needed}
    scored = score_candidates(small_model, pairs, subset, small_fieldsets, batch_size=13)
    assert [s for _, _, s in scored] == [corpus_scores[p] for p in pairs]


# --- threshold selection ----------------------------------------------------------

def test_select_smallest_qualifying():
    sweep = SweepResult(rows=[(0.3, 5, 40), (0.5, 8, 30), (0.7, 9, 20)], sample_size=1000)
    assert select_threshold(sweep, 0.05) == 0.3


def test_select_hand_example():
    sweep = SweepResult(
        rows=[(0.5, 100, 4000), (0.7, 300, 450), (0.9, 500, 200)],
        sample_size=10_000,
    )
    assert select_threshold(sweep, 0.05) == 0.7


def test_select_fallback_warns():
    sweep = SweepResult(rows=[(0.5, 2, 900), (0.9, 3, 800)], sample_size=1000)
    with pytest.warns(UserWarning, match="falling back"):
        assert select_threshold(sweep, 0.05) == 0.9


def test_select_empty_sweep_errors():
    with pytest.raises(ValueError):
        select_threshold(SweepResult(rows=[], sample_size=10), 0.05)
