import json
import random
from pathlib import Path

import pytest

from adlink import pairfeat
from adlink.cli import artifact_digests, main
from adlink.clusterfeat import CLUSTER_FEATURE_NAMES, CLUSTER_SCHEMA_VERSION
from adlink.config import load_config
from adlink.resolve import connected_components
from adlink.corpus import Ad, load_corpus, write_corpus

TINY_CONFIG = {
    "seed": 11,
    "synth": {"n_sources": 10, "ads_per_source": (8, 14), "ring_fraction": 0.3},
    "sampler": {"n_pos": 300, "n_neg": 300},
    "model": {"n_trees": 20, "max_depth": 8},
    "blocking": {"rarity_threshold": 14},
    "resolve": {"max_largest_fraction": 0.15},
    "cluster": {"min_size": 4, "min_support": 1, "n_random_baselines": 20,
                "n_folds": 2},
}


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main(args)


def test_stage_chain_digests_stable(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        for stage in ("synth", "extract", "sample"):
            assert run([stage, "--config", cfg, "--out", str(out)]) == 0
    da, db = artifact_digests(out_a), artifact_digests(out_b)
    assert da == db
    assert {"ads.jsonl", "fields.jsonl", "pairs.csv", "histogram.csv"} <= set(da)


def test_prerequisite_error_exit_code(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(["resolve", "--config", cfg, "--out", str(out)]) == 3
    assert run(["extract", "--config", cfg, "--out", str(out)]) == 3


def test_usage_errors_exit_one(tmp_path):
    assert run(["ingest", "--out", str(tmp_path / "x")]) == 1  # no input given
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"unknown_section": 1}))
    assert run(["synth", "--config", str(bad_cfg), "--out", str(tmp_path / "y")]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 1


def test_ingest_reports_rejects(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    good = {"id": "a1", "text": "hi", "posted_at": "2016-01-01T00:00:00Z",
            "city": "m", "state": "FL", "image_hashes": [], "source_id": None}
    src.write_text(json.dumps(good) + "\nnot json\n")
    out = tmp_path / "run"
    assert run(["ingest", str(src), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["stages"]["ingest"]["counts"] == {"ads": 1, "rejected": 1}


def test_ingest_missing_file_is_data_error(tmp_path):
    assert run(["ingest", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 2


def test_full_pipeline_tiny(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    expected = [
        "ads.jsonl", "fields.jsonl", "extraction_report.csv", "pairs.csv",
        "histogram.csv", "features.csv", "model.json", "roc.csv",
        "importances.csv", "candidates.csv", "blocking_stats.json",
        "sweep.csv", "threshold.json", "components.jsonl", "edges.csv",
        "cluster_features.csv", "labels.csv", "cluster_roc.csv",
        "cluster_eval.json", "rules.json", "pn.csv", "report.json",
        "metrics.json", "digests.json", "config.json",
    ]
    for name in expected:
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert "pairwise" in report
    assert report["pairwise"]["f1"] is not None


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["synth", "--config", cfg, "--out", str(out1), "--seed", "99"]) == 0
    assert run(["synth", "--config", cfg, "--out", str(out2), "--seed", "100"]) == 0
    assert artifact_digests(out1) != artifact_digests(out2)


def _write_eval_inputs(out: Path, ads, components):
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(ads, out / "ads.jsonl")
    with open(out / "components.jsonl", "w") as fh:
        for comp_id, members in components.items():
            fh.write(json.dumps({
                "component": comp_id, "members": sorted(members),
                "strong_edges": 0, "weak_edges": 0,
            }) + "\n")


def make_ad(ad_id, source):
    return Ad(id=ad_id, text="t", posted_at=1456833600, city="m", state="FL",
              image_hashes=frozenset(), source_id=source)


def test_eval_perfect_resolution_f1_one(tmp_path):
    ads = [make_ad(f"a{i}", f"s{i % 2}-solo") for i in range(6)]
    comps = {
        "a0": [a.id for a in ads if a.source_id == "s0-solo"],
        "a1": [a.id for a in ads if a.source_id == "s1-solo"],
    }
    out = tmp_path / "run"
    _write_eval_inputs(out, ads, comps)
    assert run(["eval", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pairwise"]["f1"] == 1.0


def test_eval_all_singletons_recall_zero_precision_absent(tmp_path):
    ads = [make_ad(f"a{i}", "s0-solo") for i in range(4)]
    comps = {a.id: [a.id] for a in ads}
    out = tmp_path / "run"
    _write_eval_inputs(out, ads, comps)
    assert run(["eval", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pairwise"]["recall"] == 0.0
    assert report["pairwise"]["precision"] is None
    assert report["pairwise"]["f1"] is None


def test_eval_without_ground_truth_warns(tmp_path):
    ads = [make_ad(f"a{i}", None) for i in range(4)]
    comps = {"a0": [a.id for a in ads]}
    out = tmp_path / "run"
    _write_eval_inputs(out, ads, comps)
    assert run(["eval", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "pairwise" not in report
    assert report["warnings"]


def test_config_defaults_load():
    cfg = load_config(None)
    cfg.validate()
    assert cfg.model.kind == "forest"
    assert len(cfg.resolve.thresholds) >= 8


# --- score once ------------------------------------------------------------------

def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _pipeline_counting_rows(tmp_path, monkeypatch):
    """Run the pipeline; return its directory and the pair rows featurized."""
    featurized = []
    matrix = pairfeat.PairFeaturizer.matrix

    def counting(self, pairs):
        rows = matrix(self, pairs)
        featurized.append(len(rows))
        return rows

    monkeypatch.setattr(pairfeat.PairFeaturizer, "matrix", counting)
    out = tmp_path / "run"
    assert run(["pipeline", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    return out, sum(featurized)


def test_every_candidate_scored_once(tmp_path, monkeypatch):
    out, featurized = _pipeline_counting_rows(tmp_path, monkeypatch)
    n_pairs = len(_csv_rows(out / "pairs.csv"))
    candidates = _csv_rows(out / "candidates.csv")
    assert featurized == n_pairs + len(candidates)
    weak = [r for r in _csv_rows(out / "edges.csv") if r[2] == "weak"]
    assert [r[:2] for r in weak] == candidates
    sweep = json.loads((out / "metrics.json").read_text())["stages"]["sweep"]
    assert not any("clamping" in w for w in sweep["warnings"])


def test_resolve_needs_edges_from_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in ("synth", "block"):
        assert run([stage, "--config", cfg, "--out", str(out)]) == 0
    (out / "threshold.json").write_text(json.dumps({"threshold": 0.5}))
    assert run(["resolve", "--config", cfg, "--out", str(out)]) == 3
    assert "missing edges.csv: run the sweep stage first" in capsys.readouterr().err


def test_threshold_fallback_recorded_in_metrics(tmp_path):
    # no component can be under a cap of 0.001 * ~105 ads
    cfg = write_config(tmp_path, {"resolve": {"max_largest_fraction": 0.001}})
    out = tmp_path / "run"
    for stage in ("synth", "extract", "sample", "features", "train", "block"):
        assert run([stage, "--config", cfg, "--out", str(out)]) == 0
    with pytest.warns(UserWarning, match="falling back"):
        assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    sweep = json.loads((out / "metrics.json").read_text())["stages"]["sweep"]
    assert sweep["counts"]["fallback"] is True
    assert any("falling back" in w for w in sweep["warnings"])
    threshold = json.loads((out / "threshold.json").read_text())
    assert "fallback" not in threshold


def test_rules_with_fewer_positives_than_folds(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    rng = random.Random(0)
    feature_rows, label_rows = [], []
    for k in range(12):
        label = 1 if k < 3 else 0
        feats = [rng.random() + 2.0 * label for _ in CLUSTER_FEATURE_NAMES]
        feature_rows.append(",".join([f"c{k:02d}", *map(repr, feats)]))
        label_rows.append(f"c{k:02d},{label}")
    (out / "cluster_features.csv").write_text(
        f"# schema={CLUSTER_SCHEMA_VERSION}\n"
        + ",".join(["component_id", *CLUSTER_FEATURE_NAMES]) + "\n"
        + "\n".join(feature_rows) + "\n")
    (out / "labels.csv").write_text("component_id,label\n" + "\n".join(label_rows) + "\n")
    assert load_config(None).cluster.n_folds == 4
    assert run(["rules", "--out", str(out)]) == 0
    counts = json.loads((out / "metrics.json").read_text())["stages"]["rules"]["counts"]
    assert counts["n_folds"] == 3
    assert json.loads((out / "cluster_eval.json").read_text())["n_positive"] == 3


# --- pinned results and layer timings ------------------------------------------------

# sha256 of the TINY_CONFIG pipeline's artifacts. A refactor must leave them
# as they are; a change that alters results on purpose updates these pins and
# says which artifacts changed and why.
PINNED_DIGESTS = {
    "model.json": "973c159b348a77c8f0f1b672f6f2d3cde8c1736f268aae6b0ca665449ce33824",
    "features.csv": "0af1e47c553a13494d00f776ce97662649c9ccaf1a3ef578e34a819cdf5a4939",
    "edges.csv": "8823c8dd22abf8e0346db2e481259788e5acd640c851e99970005b9f095b30b0",
    "components.jsonl": "08ee30cd70da16436316e97d4127055ba9365047ddf7c974cb3587e234272d29",
}


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    out = tmp / "run"
    assert run(["pipeline", "--config", write_config(tmp), "--out", str(out)]) == 0
    return out


def test_tiny_pipeline_digests_pinned(tiny_pipeline):
    digests = json.loads((tiny_pipeline / "digests.json").read_text())
    assert {name: digests[name] for name in PINNED_DIGESTS} == PINNED_DIGESTS
    assert digests == artifact_digests(tiny_pipeline)


def test_sweep_rows_match_components_of_the_edge_list(tiny_pipeline):
    edges = _csv_rows(tiny_pipeline / "edges.csv")
    strong = [(i, j) for i, j, kind, _ in edges if kind == "strong"]
    weak = [(i, j, float(score)) for i, j, kind, score in edges if kind == "weak"]
    ad_ids = [ad.id for ad in load_corpus(tiny_pipeline / "ads.jsonl").ads]
    rows = _csv_rows(tiny_pipeline / "sweep.csv")
    assert [float(r[0]) for r in rows] == sorted(load_config(None).resolve.thresholds)
    for t, n_components, largest in rows:
        comps = connected_components(strong, weak, float(t), nodes=ad_ids)
        assert (int(n_components), int(largest)) == (len(comps), comps.largest_size())

    threshold = json.loads((tiny_pipeline / "threshold.json").read_text())
    assert threshold["sample_size"] == len(ad_ids)
    chosen = {float(t): (int(n), int(lg)) for t, n, lg in rows}[threshold["threshold"]]
    lines = (tiny_pipeline / "components.jsonl").read_text().splitlines()
    sizes = [len(json.loads(line)["members"]) for line in lines]
    assert chosen == (len(sizes), max(sizes))


def test_metrics_record_layer_timings(tiny_pipeline):
    stages = json.loads((tiny_pipeline / "metrics.json").read_text())["stages"]
    assert set(stages["train"]["layers"]) == {"fit_heldout_s", "fit_full_s", "predict_s"}
    assert set(stages["sweep"]["layers"]) == {"score_s", "curve_s"}
    for stage in ("train", "sweep"):
        layers = stages[stage]["layers"]
        assert all(seconds >= 0.0 for seconds in layers.values())
        assert sum(layers.values()) <= stages[stage]["seconds"] + 0.01
    assert stages["resolve"]["layers"] == {}
    assert all(isinstance(s["seconds"], float) for s in stages.values())
