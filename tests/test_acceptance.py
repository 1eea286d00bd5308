"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Several criteria share one full pipeline run on the benchmark
corpus (50 sources, ~2,000 ads, seed 7).
"""

import json
import random
import time
import warnings
from collections import deque

import numpy as np
import pytest

from adlink.cli import main as cli_main
from adlink.clusterfeat import Condition, Rule, rule_metrics
from adlink.corpus import SyntheticSpec, generate_synthetic, load_corpus
from adlink.extract import extract_fields
from adlink.matchmodel import auc_concordance, load_model, roc
from adlink.pairfeat import longest_common_substring
from adlink.resolve import connected_components, threshold_sweep
from adlink.surrogate import build_strong_graph, sample_pairs


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full default pipeline run; several criteria read its artifacts."""
    out = tmp_path_factory.mktemp("bench")
    t0 = time.perf_counter()
    rc = cli_main(["pipeline", "--out", str(out), "--seed", "7"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return out, elapsed


# --- criterion 1: oracle equivalences ------------------------------------------

def test_criterion_1_oracle_equivalences():
    t0 = time.perf_counter()

    # union-find partition vs BFS closure, 100 random graphs up to 1,000 nodes
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(2, 1000)
        nodes = [f"n{i}" for i in range(n)]
        edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, n))]
        comps = connected_components(edges, [], 0.0, nodes=nodes)
        got = {frozenset(m) for m in comps.members.values()}
        adjacency = {v: set() for v in nodes}
        for i, j in edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen, expected = set(), set()
        for start in nodes:
            if start in seen:
                continue
            queue, comp = deque([start]), set()
            while queue:
                v = queue.popleft()
                if v in comp:
                    continue
                comp.add(v)
                queue.extend(adjacency[v] - comp)
            seen |= comp
            expected.add(frozenset(comp))
        assert got == expected

    # sweep AUC vs pairwise concordance, 100 random score sets
    nrng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        n = int(nrng.integers(4, 300))
        scores = nrng.choice(np.linspace(0, 1, int(nrng.integers(2, 12))), size=n)
        labels = nrng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        assert abs(roc(scores, labels).auc - auc_concordance(scores, labels)) < 1e-9
        checked += 1

    # rule metrics vs brute-force counting
    names = ("fa", "fb")
    for seed in range(30):
        g = np.random.default_rng(seed)
        n = int(g.integers(3, 150))
        X = g.normal(size=(n, 2)).round(1)
        y = g.integers(0, 2, size=n)
        rule = Rule(conditions=(
            Condition(feature="fa", lower=float(g.normal())),
            Condition(feature="fb", upper=float(g.normal())),
        ))
        support, ratio, lift = rule_metrics(rule, X, y, names)
        matched = [
            int(yy) for row, yy in zip(X, y)
            if row[0] > rule.conditions[0].lower and row[1] <= rule.conditions[1].upper
        ]
        assert support == len(matched)
        if matched:
            assert abs(ratio - sum(matched) / len(matched)) < 1e-12
            if y.sum():
                assert abs(lift - (sum(matched) / len(matched)) / (y.sum() / n)) < 1e-12

    # LCS vs substring enumeration for strings <= 64 chars
    srng = random.Random(3)
    for _ in range(100):
        a = "".join(srng.choice("abcd ") for _ in range(srng.randint(0, 64)))
        b = "".join(srng.choice("abcd ") for _ in range(srng.randint(0, 64)))
        subs = {a[i:j] for i in range(len(a)) for j in range(i + 1, len(a) + 1)}
        expected = max((len(s) for s in subs if s in b), default=0)
        assert longest_common_substring(a, b) == expected

    elapsed = time.perf_counter() - t0
    report("1 (oracle equivalences)", elapsed < 60, f"all exact, {elapsed:.1f}s")


# --- criterion 2: surrogate bias ------------------------------------------------

def test_criterion_2_positive_pairs_never_share_a_phone():
    ads = generate_synthetic(SyntheticSpec())
    fieldsets = {a.id: extract_fields(a.text) for a in ads}
    graph, comps = build_strong_graph({a.id: fieldsets[a.id].phones for a in ads})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        samples = sample_pairs(comps, graph, n_pos=10_000, n_neg=0, rng_seed=7)
    positives = [s for s in samples if s.label == "positive"]
    sharing = sum(
        1 for s in positives
        if graph.ad_to_phones[s.ad_i] & graph.ad_to_phones[s.ad_j]
    )
    report(
        "2 (surrogate bias)",
        len(positives) >= 10_000 and sharing == 0,
        f"{len(positives)} positives, {sharing} share a phone",
    )


# --- criterion 3: match-function quality ----------------------------------------

def test_criterion_3_match_quality(pipeline_run):
    out, elapsed = pipeline_run
    metrics = json.loads((out / "metrics.json").read_text())
    train = metrics["stages"]["train"]["counts"]
    auc = train["test_auc"]
    tpr = train["tpr_at_fpr_1pct"]
    ok = auc >= 0.95 and tpr >= 0.5 and elapsed < 300
    report(
        "3 (match quality)",
        ok,
        f"held-out AUC={auc:.4f} TPR@FPR=1%={tpr:.3f} pipeline={elapsed:.0f}s",
    )


# --- criterion 4: breakdown sweep ------------------------------------------------

def test_criterion_4_breakdown_sweep(pipeline_run):
    out, _ = pipeline_run
    ads = load_corpus(out / "ads.jsonl").ads
    fieldsets = {}
    with open(out / "fields.jsonl") as fh:
        from adlink.extract import FieldSet
        for line in fh:
            obj = json.loads(line)
            fieldsets[obj["id"]] = FieldSet.from_dict(obj["fields"])
    model = load_model(out / "model.json")
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98]
    sweep = threshold_sweep(model, ads, fieldsets, thresholds=grid,
                            sample_size=1000, seed=7, rarity_threshold=60)
    counts = [n for _, n, _ in sweep.rows]
    largests = [l for _, _, l in sweep.rows]
    monotone = (
        all(a <= b for a, b in zip(counts, counts[1:]))
        and all(a >= b for a, b in zip(largests, largests[1:]))
    )
    giant = largests[0] > 0.5 * sweep.sample_size
    report(
        "4 (breakdown sweep)",
        len(sweep.rows) >= 8 and monotone and giant,
        f"{len(sweep.rows)} thresholds, giant@0={largests[0]}/{sweep.sample_size}",
    )


# --- criterion 5: end-to-end resolution -------------------------------------------

def test_criterion_5_end_to_end(pipeline_run):
    out, _ = pipeline_run
    rep = json.loads((out / "report.json").read_text())
    stats = json.loads((out / "blocking_stats.json").read_text())
    f1 = rep["pairwise"]["f1"]
    recall = rep["blocking_recall"]
    fraction = stats["reduction_ratio"]
    ok = f1 >= 0.90 and recall >= 0.95 and fraction <= 0.10
    report(
        "5 (end-to-end resolution)",
        ok,
        f"F1={f1:.4f} blocking recall={recall:.4f} candidates={100 * fraction:.1f}% of pairs",
    )


# --- criterion 6: rule learning ----------------------------------------------------

def test_criterion_6_rule_learning(pipeline_run):
    out, _ = pipeline_run
    rules_doc = json.loads((out / "rules.json").read_text())
    prior = rules_doc["prior"]
    rules = rules_doc["rules"]
    identity_ok = all(abs(r["lift"] * prior - r["ratio"]) < 1e-9 for r in rules)
    top = rules[0]
    top_ok = top["ratio"] >= 0.9 and top["lift"] >= 2.0
    cluster_eval = json.loads((out / "cluster_eval.json").read_text())
    baseline = cluster_eval["baseline_mean_auc"]
    baseline_ok = 0.45 <= baseline <= 0.55
    report(
        "6 (rule learning)",
        identity_ok and top_ok and baseline_ok,
        f"{len(rules)} rules, top ratio={top['ratio']:.3f} lift={top['lift']:.2f}, "
        f"baseline AUC={baseline:.3f}",
    )


# --- criterion 7: determinism --------------------------------------------------------

def test_criterion_7_pipeline_determinism(tmp_path):
    config = {
        "seed": 23,
        "synth": {"n_sources": 10, "ads_per_source": [8, 14]},
        "sampler": {"n_pos": 300, "n_neg": 300},
        "model": {"n_trees": 20, "max_depth": 8},
        "blocking": {"rarity_threshold": 14},
        "resolve": {"max_largest_fraction": 0.15},
        "cluster": {"min_size": 4, "min_support": 1, "n_random_baselines": 20,
                    "n_folds": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
        digests.append(json.loads((out / "digests.json").read_text()))
    identical = digests[0] == digests[1] and len(digests[0]) >= 20
    report(
        "7 (determinism)",
        identical,
        f"{len(digests[0])} artifacts, digests identical={digests[0] == digests[1]}",
    )
