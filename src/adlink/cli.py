"""Pipeline CLI: one subcommand per stage plus ``pipeline`` to chain them.

    adlink synth --out runs/demo
    adlink pipeline --out runs/demo --seed 7

Every stage reads its inputs from the run directory and writes its outputs
atomically (temp file + rename), so a crashed stage never leaves a partial
artifact. ``metrics.json`` accumulates per-stage timings (with the hot
stages' inner layers under ``layers``; ``a.b`` is part ``b`` of layer ``a``),
counts and peak RSS (``peak_rss_mb``, the process's peak at the end of the
stage, so it never falls within one ``pipeline`` run); it is a log, not a data
artifact, and is excluded from ``digests.json``.

Exit codes: 0 ok, 1 usage, 2 data error, 3 missing prerequisite.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import csv
import hashlib
import itertools
import json
import os
import random
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import blocking as blocking_mod
from . import clusterfeat, extract, matchmodel, pairfeat, resolve as resolve_mod, surrogate
from .config import PipelineConfig, config_to_dict, load_config
from .corpus import Ad, SyntheticSpec, generate_synthetic, load_corpus, write_corpus

STAGE_ORDER = (
    "synth", "extract", "block", "sample", "features", "train",
    "sweep", "resolve", "clusters", "rules", "eval",
)

# artifact -> stage that produces it, for prerequisite error messages
_PRODUCED_BY = {
    "ads.jsonl": "synth (or ingest)",
    "fields.jsonl": "extract",
    "pairs.csv": "sample",
    "features.csv": "features",
    "model.json": "train",
    "candidates.csv": "block",
    "edges.csv": "sweep",
    "threshold.json": "sweep",
    "components.jsonl": "resolve",
    "cluster_features.csv": "clusters",
    "labels.csv": "clusters",
}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class PrerequisiteError(Exception):
    pass


# --- small IO helpers ---------------------------------------------------------

@contextlib.contextmanager
def _atomic(path: Path):
    """A text file handle whose contents replace ``path`` once the block ends."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh
    os.replace(tmp, path)


def _atomic_text(path: Path, text: str) -> None:
    with _atomic(path) as fh:
        fh.write(text)


def _write_csv(path: Path, header: list[str], rows, comment: str | None = None) -> None:
    """Cells are quoted where they hold a comma, a quote or a newline; floats
    are written with ``repr``."""
    with _atomic(path) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    _atomic_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]], str | None]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        comment = first[1:].strip() if first.startswith("#") else None
        if comment is None:
            fh.seek(0)
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path.name}: empty")
    return rows[0], rows[1:], comment


def _require(out: Path, *names: str) -> None:
    for name in names:
        if not (out / name).exists():
            stage = _PRODUCED_BY.get(name, "an earlier stage")
            raise PrerequisiteError(
                f"missing {name}: run the {stage} stage first"
            )


# layer -> seconds within the stage that run_stage is running
_stage_layers: contextvars.ContextVar[dict[str, float]] = contextvars.ContextVar("stage_layers")


def _add_layers(seconds: dict[str, float]) -> None:
    """Add to the running stage's ``layers``."""
    layers = _stage_layers.get(None)
    if layers is not None:
        for name, s in seconds.items():
            layers[name] = layers.get(name, 0.0) + s


@contextlib.contextmanager
def _layer(name: str):
    """Add the block's wall time to the running stage's ``layers`` in metrics.json."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        _add_layers({name: time.perf_counter() - t0})


def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far, in MiB; None where getrusage is missing."""
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = peak / 2**20 if sys.platform == "darwin" else peak / 1024  # bytes there, KiB here
    return round(peak, 1)


def _record_metrics(out: Path, stage: str, seconds: float, counts: dict,
                    layers: dict[str, float], stage_warnings: list[str]) -> None:
    path = out / "metrics.json"
    data = {"stages": {}}
    if path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("stages", {})[stage] = {
        "seconds": round(seconds, 3), "counts": counts,
        "layers": {name: round(s, 3) for name, s in layers.items()},
        "peak_rss_mb": _peak_rss_mb(),
        "warnings": stage_warnings,
    }
    _write_json(path, data)


def _load_ads(out: Path) -> list[Ad]:
    _require(out, "ads.jsonl")
    result = load_corpus(out / "ads.jsonl")
    if result.rejects:
        raise DataError(f"ads.jsonl contains {len(result.rejects)} invalid lines")
    return result.ads


def _load_fieldsets(out: Path) -> dict[str, extract.FieldSet]:
    _require(out, "fields.jsonl")
    fieldsets = {}
    with open(out / "fields.jsonl", "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            fieldsets[obj["id"]] = extract.FieldSet.from_dict(obj["fields"])
    return fieldsets


def _load_model(out: Path):
    _require(out, "model.json")
    return matchmodel.load_model(out / "model.json")


# --- stages ---------------------------------------------------------------------

def stage_synth(cfg: PipelineConfig, out: Path) -> dict:
    s = cfg.synth
    spec = SyntheticSpec(
        n_sources=s.n_sources,
        ads_per_source=tuple(s.ads_per_source),
        phones_per_source=tuple(s.phones_per_source),
        phone_visibility=s.phone_visibility,
        ring_fraction=s.ring_fraction,
        phone_collision_rate=s.phone_collision_rate,
        repost_rate=s.repost_rate,
        time_span_days=s.time_span_days,
        noise_vocab_size=s.noise_vocab_size,
        rng_seed=cfg.seed,
    )
    try:
        ads = generate_synthetic(spec)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    tmp = out / "ads.jsonl.tmp"
    write_corpus(ads, tmp)
    os.replace(tmp, out / "ads.jsonl")
    return {"ads": len(ads), "sources": s.n_sources}


def stage_ingest(cfg: PipelineConfig, out: Path) -> dict:
    if not cfg.input:
        raise UsageError("ingest needs an input path (positional argument or config `input`)")
    try:
        result = load_corpus(cfg.input)
    except OSError as exc:
        raise DataError(f"cannot read {cfg.input}: {exc}") from exc
    for lineno, reason in result.rejects[:20]:
        print(f"[reject] line {lineno}: {reason}", file=sys.stderr)
    tmp = out / "ads.jsonl.tmp"
    write_corpus(result.ads, tmp)
    os.replace(tmp, out / "ads.jsonl")
    return {"ads": len(result.ads), "rejected": result.n_rejected}


def stage_extract(cfg: PipelineConfig, out: Path) -> dict:
    ads = _load_ads(out)
    fieldsets = {ad.id: extract.extract_fields(ad.text) for ad in ads}
    lines = [
        json.dumps({"id": ad.id, "fields": fieldsets[ad.id].to_dict()}, ensure_ascii=False)
        for ad in ads
    ]
    _atomic_text(out / "fields.jsonl", "\n".join(lines) + "\n")
    report = extract.extraction_counts(fieldsets)
    _write_csv(out / "extraction_report.csv",
               ["field", "ads_with_match", "total_values"], report)
    with_phone = sum(1 for fs in fieldsets.values() if fs.phones)
    return {"ads": len(ads), "ads_with_phone": with_phone}


def stage_sample(cfg: PipelineConfig, out: Path) -> dict:
    negative_pool = None
    if cfg.sampler.negative_source == "candidates":
        _require(out, "candidates.csv")
        negative_pool = _read_csv(out / "candidates.csv")[1]
    ads = _load_ads(out)
    fieldsets = _load_fieldsets(out)
    graph, components = surrogate.build_strong_graph(
        {ad.id: fieldsets.get(ad.id, extract.FieldSet()).phones for ad in ads}
    )
    city_map = {ad.id: ad.city for ad in ads} if cfg.sampler.same_city_negatives else None
    try:
        samples = surrogate.sample_pairs(
            components, graph,
            n_pos=cfg.sampler.n_pos, n_neg=cfg.sampler.n_neg,
            rng_seed=cfg.seed, same_city_negatives=city_map,
            negative_pool=negative_pool,
        )
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    token_sets = {ad.id: set(extract.tokenize(ad.text)[0]) for ad in ads}
    rows = []
    positive_sims = []
    for s in samples:
        sim = surrogate.jaccard_unigram(token_sets[s.ad_i], token_sets[s.ad_j])
        rows.append((s.ad_i, s.ad_j, s.label, float(sim)))
        if s.label == "positive":
            positive_sims.append(sim)
    _write_csv(out / "pairs.csv", ["ad_i", "ad_j", "label", "jaccard"], rows)

    if positive_sims:
        hist = surrogate.similarity_histogram(positive_sims, cfg.sampler.histogram_bins)
        _write_csv(out / "histogram.csv", ["bin_lo", "bin_hi", "count"],
                   [(float(lo), float(hi), c) for lo, hi, c in hist])
    n_pos = sum(1 for s in samples if s.label == "positive")
    return {
        "pairs": len(samples), "positives": n_pos, "negatives": len(samples) - n_pos,
        "proxy_components": len(components), "ads_without_phone": components.n_excluded,
    }


def stage_features(cfg: PipelineConfig, out: Path) -> dict:
    _require(out, "pairs.csv")
    ads = {ad.id: ad for ad in _load_ads(out)}
    fieldsets = _load_fieldsets(out)
    _, rows, _ = _read_csv(out / "pairs.csv")
    featurizer = pairfeat.PairFeaturizer(ads, fieldsets)
    X = featurizer.matrix([(ad_i, ad_j) for ad_i, ad_j, _, _ in rows])
    _add_layers(featurizer.timings)
    out_rows = [
        (ad_i, ad_j, 1 if label == "positive" else 0, *map(float, vec))
        for (ad_i, ad_j, label, _), vec in zip(rows, X)
    ]
    _write_csv(out / "features.csv",
               ["ad_i", "ad_j", "label", *pairfeat.FEATURE_NAMES],
               out_rows, comment=f"schema={pairfeat.SCHEMA_VERSION}")
    return {"pairs": len(out_rows), "features": len(pairfeat.FEATURE_NAMES)}


def _read_features(out: Path) -> matchmodel.Dataset:
    _require(out, "features.csv")
    header, rows, comment = _read_csv(out / "features.csv")
    if comment != f"schema={pairfeat.SCHEMA_VERSION}":
        raise DataError(f"features.csv schema {comment!r} does not match {pairfeat.SCHEMA_VERSION}")
    names = tuple(header[3:])
    if names != pairfeat.FEATURE_NAMES:
        raise DataError("features.csv columns do not match the pair-feature schema")
    X = np.array([[float(v) for v in row[3:]] for row in rows])
    y = np.array([int(row[2]) for row in rows])
    ids = [(row[0], row[1]) for row in rows]
    return matchmodel.Dataset(X=X, y=y, ids=ids, feature_names=names,
                              schema_version=pairfeat.SCHEMA_VERSION)


def stage_train(cfg: PipelineConfig, out: Path) -> dict:
    ds = _read_features(out)
    try:
        ds.require_both_classes()
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    rng = random.Random(cfg.seed)
    pos_idx = [i for i, v in enumerate(ds.y) if v == 1]
    neg_idx = [i for i, v in enumerate(ds.y) if v == 0]
    rng.shuffle(pos_idx)
    rng.shuffle(neg_idx)
    test_idx = sorted(
        pos_idx[: max(1, int(len(pos_idx) * cfg.model.test_fraction))]
        + neg_idx[: max(1, int(len(neg_idx) * cfg.model.test_fraction))]
    )
    test_mask = np.zeros(len(ds.y), dtype=bool)
    test_mask[test_idx] = True

    train_ds = matchmodel.Dataset(
        X=ds.X[~test_mask], y=ds.y[~test_mask], ids=[],
        feature_names=ds.feature_names, schema_version=ds.schema_version,
    )
    m = cfg.model

    def fit(dataset):
        if m.kind == "logistic":
            return matchmodel.train_logistic(dataset, l2=m.l2, epochs=m.epochs,
                                             lr=m.lr, seed=cfg.seed)
        return matchmodel.train_forest(
            dataset, n_trees=m.n_trees, max_depth=m.max_depth, min_leaf=m.min_leaf,
            features_per_split=m.features_per_split or None, seed=cfg.seed,
            threads=cfg.threads,
        )

    with _layer("fit_heldout_s"):
        held_out_model = fit(train_ds)
    with _layer("predict_s"):
        test_scores = matchmodel.predict_proba(held_out_model, ds.X[test_mask])
    curve = matchmodel.roc(test_scores, ds.y[test_mask])

    # metrics come from the held-out split; the shipped model uses all rows
    full_ds = matchmodel.Dataset(X=ds.X, y=ds.y, ids=[],
                                 feature_names=ds.feature_names,
                                 schema_version=ds.schema_version)
    with _layer("fit_full_s"):
        model = fit(full_ds)
    matchmodel.save_model(model, out / "model.json.tmp")
    os.replace(out / "model.json.tmp", out / "model.json")
    _write_csv(out / "roc.csv", ["fpr", "tpr", "threshold"],
               [(float(f), float(t), float(th)) for f, t, th in
                zip(curve.fpr, curve.tpr, curve.thresholds)])
    if m.kind == "forest":
        ranked = matchmodel.feature_importance(model)
    else:
        ranked = matchmodel.feature_importance(model, from_weights=True)
    _write_csv(out / "importances.csv", ["feature", "importance"],
               [(name, float(v)) for name, v in ranked])
    return {
        "train_rows": int((~test_mask).sum()),
        "test_rows": int(test_mask.sum()),
        "test_auc": round(curve.auc, 6),
        "tpr_at_fpr_1pct": round(matchmodel.tpr_at_fpr(curve, 0.01), 6),
        "fpr_at_tpr_50pct": round(matchmodel.fpr_at_tpr(curve, 0.5), 6),
        "kind": m.kind,
    }


def stage_block(cfg: PipelineConfig, out: Path) -> dict:
    ads = _load_ads(out)
    with _layer("build_blocks_s"):
        index = blocking_mod.build_blocks(
            ads, rarity_threshold=cfg.blocking.rarity_threshold,
            max_block_size=cfg.blocking.max_block_size,
        )
    with _layer("pairs_s"):
        cands = blocking_mod.candidate_pairs(index)
    _write_csv(out / "candidates.csv", ["ad_i", "ad_j"], cands)
    stats = {
        "n_ads": index.n_ads,
        "n_blocks": index.block_counts(),
        "n_candidates": len(cands),
        "reduction_ratio": blocking_mod.reduction_ratio(index, len(cands)),
        "n_dropped_blocks": index.n_dropped,
        "rarity_threshold": index.rarity_threshold,
        "max_block_size": index.max_block_size,
    }
    _write_json(out / "blocking_stats.json", stats)
    return {"candidates": len(cands), "blocks": sum(index.block_counts().values()),
            "dropped_blocks": index.n_dropped}


def stage_sweep(cfg: PipelineConfig, out: Path) -> dict:
    _require(out, "candidates.csv")
    ads = _load_ads(out)
    fieldsets = _load_fieldsets(out)
    model = _load_model(out)

    # every candidate is scored here, once; resolve only applies the threshold
    ad_id = {ad.id: ad.id for ad in ads}  # one string object per id, as blocking makes
    pairs = [(ad_id[r[0]], ad_id[r[1]]) for r in _read_csv(out / "candidates.csv")[1]]
    ads_by_id = {ad.id: ad for ad in ads}
    with _layer("score_s"):
        featurizer = pairfeat.PairFeaturizer(ads_by_id, fieldsets)
        scored = resolve_mod.score_candidates(model, pairs, ads_by_id, fieldsets,
                                              featurizer=featurizer)
    _add_layers({f"score_s.{name}": s for name, s in featurizer.timings.items()})
    del pairs, featurizer
    graph, _ = surrogate.build_strong_graph(
        {ad.id: fieldsets.get(ad.id, extract.FieldSet()).phones for ad in ads}
    )
    strong = graph.strong_pairs()
    _write_csv(out / "edges.csv", ["ad_i", "ad_j", "kind", "score"], itertools.chain(
        ((i, j, "strong", 1.0) for i, j in strong),
        ((i, j, "weak", s) for i, j, s in scored),
    ))
    # the curve of the edges just written, over the whole corpus
    with _layer("curve_s"):
        rows = resolve_mod.sweep_curve(strong, scored, cfg.resolve.thresholds, nodes=list(ad_id))
    sweep = resolve_mod.SweepResult(rows=rows, sample_size=len(ad_id))
    _write_csv(out / "sweep.csv", ["threshold", "n_components", "largest_size"],
               [(float(t), n, lg) for t, n, lg in sweep.rows])
    chosen = resolve_mod.select_threshold(sweep, cfg.resolve.max_largest_fraction)
    _write_json(out / "threshold.json", {
        "threshold": chosen,
        "sample_size": sweep.sample_size,
        "max_largest_fraction": cfg.resolve.max_largest_fraction,
    })
    cap = cfg.resolve.max_largest_fraction * sweep.sample_size
    return {"thresholds": len(sweep.rows), "selected": chosen,
            "fallback": all(largest > cap for _, _, largest in sweep.rows)}


def stage_resolve(cfg: PipelineConfig, out: Path) -> dict:
    _require(out, "edges.csv", "threshold.json")
    ad_ids = [ad.id for ad in _load_ads(out)]
    with open(out / "threshold.json", "r", encoding="utf-8") as fh:
        threshold = float(json.load(fh)["threshold"])

    _, edge_rows, _ = _read_csv(out / "edges.csv")
    strong, weak = [], []
    for i, j, kind, score in edge_rows:
        if kind == "strong":
            strong.append((i, j))
        elif kind == "weak":
            weak.append((i, j, float(score)))
        else:
            raise DataError(f"edges.csv: unknown edge kind {kind!r}")
    comps = resolve_mod.connected_components(strong, weak, threshold, nodes=ad_ids)

    lines = []
    for comp_id in sorted(comps.members):
        s_edges, w_edges = comps.edge_counts[comp_id]
        lines.append(json.dumps({
            "component": comp_id,
            "members": comps.members[comp_id],
            "strong_edges": s_edges,
            "weak_edges": w_edges,
        }))
    _atomic_text(out / "components.jsonl", "\n".join(lines) + "\n")
    return {
        "components": len(comps), "largest": comps.largest_size(),
        "threshold": threshold, "weak_candidates": len(weak),
        "strong_edges": len(strong),
    }


def _read_components(out: Path) -> tuple[dict[str, list[str]], dict[str, tuple[int, int]]]:
    _require(out, "components.jsonl")
    members = {}
    edge_counts = {}
    with open(out / "components.jsonl", "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            members[obj["component"]] = list(obj["members"])
            edge_counts[obj["component"]] = (obj["strong_edges"], obj["weak_edges"])
    return members, edge_counts


def stage_clusters(cfg: PipelineConfig, out: Path) -> dict:
    members, edge_counts = _read_components(out)
    ads = _load_ads(out)
    fieldsets = _load_fieldsets(out)
    ads_by_id = {ad.id: ad for ad in ads}

    kept = clusterfeat.filter_components(members, cfg.cluster.min_size)
    image_df = clusterfeat.image_document_frequency(ads)

    rows = []
    for comp_id in sorted(kept):
        strong_e, weak_e = edge_counts[comp_id]
        feats = clusterfeat.featurize_component(
            kept[comp_id], ads_by_id, fieldsets, image_df,
            n_edges=strong_e + weak_e,
        )
        rows.append((comp_id, *map(float, feats.to_vector())))
    _write_csv(out / "cluster_features.csv",
               ["component_id", *clusterfeat.CLUSTER_FEATURE_NAMES],
               rows, comment=f"schema={clusterfeat.CLUSTER_SCHEMA_VERSION}")

    label_rows = []
    if cfg.cluster.labels_path:
        _, ext_rows, _ = _read_csv(Path(cfg.cluster.labels_path))
        ext = {r[0]: int(r[1]) for r in ext_rows}
        label_rows = [(cid, ext[cid]) for cid in sorted(kept) if cid in ext]
    else:
        # synthetic ground truth: a cluster is flagged when most of its ads
        # come from "ring" archetype sources
        have_truth = any(ad.source_id for ad in ads)
        if have_truth:
            for comp_id in sorted(kept):
                ring = sum(
                    1 for ad_id in kept[comp_id]
                    if (ads_by_id[ad_id].source_id or "").endswith("-ring")
                )
                label_rows.append((comp_id, 1 if ring * 2 > len(kept[comp_id]) else 0))
        else:
            warnings.warn("no ground truth and no labels_path: labels.csv not written")
    if label_rows:
        _write_csv(out / "labels.csv", ["component_id", "label"], label_rows)
    else:  # an earlier run's labels would not match these clusters
        (out / "labels.csv").unlink(missing_ok=True)
    n_pos = sum(lbl for _, lbl in label_rows)
    return {"clusters": len(kept), "labeled": len(label_rows), "positive": n_pos,
            "min_size": cfg.cluster.min_size}


def _read_cluster_features(out: Path):
    header, rows, comment = _read_csv(out / "cluster_features.csv")
    if comment != f"schema={clusterfeat.CLUSTER_SCHEMA_VERSION}":
        raise DataError("cluster_features.csv schema mismatch")
    ids = [r[0] for r in rows]
    X = np.array([[float(v) for v in r[1:]] for r in rows])
    _, label_rows, _ = _read_csv(out / "labels.csv")
    label_of = {r[0]: int(r[1]) for r in label_rows}
    keep = [i for i, cid in enumerate(ids) if cid in label_of]
    X = X[keep]
    y = np.array([label_of[ids[i]] for i in keep])
    kept_ids = [ids[i] for i in keep]
    return kept_ids, X, y


def stage_rules(cfg: PipelineConfig, out: Path) -> dict:
    _require(out, "cluster_features.csv")
    if not (out / "labels.csv").exists():  # clusters found no ground truth
        for name in ("cluster_roc.csv", "cluster_eval.json", "rules.json", "pn.csv"):
            (out / name).unlink(missing_ok=True)  # eval would report an earlier run's
        warnings.warn("no labels.csv: no cluster classifier trained, no rules learned")
        return {"rules": 0}
    ids, X, y = _read_cluster_features(out)
    c = cfg.cluster
    # stratified folds need a positive each; with fewer, use one fold per positive
    n_folds = min(c.n_folds, max(2, int(y.sum())))
    try:
        with _layer("classifier_s"):
            result = clusterfeat.train_cluster_classifier(
                X, y, n_folds=n_folds, n_random_baselines=c.n_random_baselines,
                seed=cfg.seed, n_trees=c.n_trees, max_depth=c.max_depth, min_leaf=c.min_leaf,
            )
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _write_csv(out / "cluster_roc.csv", ["fpr", "tpr", "threshold"],
               [(float(f), float(t), float(th)) for f, t, th in
                zip(result.curve.fpr, result.curve.tpr, result.curve.thresholds)])
    _write_json(out / "cluster_eval.json", {
        "auc": result.curve.auc,
        "tpr_at_fpr_1pct": matchmodel.tpr_at_fpr(result.curve, 0.01),
        "fpr_at_tpr_50pct": matchmodel.fpr_at_tpr(result.curve, 0.5),
        "baseline_mean_auc": result.baseline_mean_auc,
        "n_clusters": len(y),
        "n_positive": int(y.sum()),
    })

    with _layer("learn_rules_s"):
        rules = clusterfeat.learn_rules(
            X, y, clusterfeat.CLUSTER_FEATURE_NAMES,
            max_rules=c.max_rules, min_support=c.min_support,
            beam_width=c.beam_width, n_quantiles=c.n_quantiles,
        )
    _write_json(out / "rules.json", {
        "prior": float(y.mean()),
        "max_rules": c.max_rules,
        "min_support": c.min_support,
        "rules": [{"order": k, **r.to_dict()} for k, r in enumerate(rules)],
    })

    pn_rows = []
    for m in range(1, max(2, c.max_rules + 1)):
        points = clusterfeat.pn_curve(rules[:m], X, y)
        for step, (n_cov, p_cov) in enumerate(points):
            pn_rows.append((m, step, p_cov, n_cov))
    _write_csv(out / "pn.csv", ["max_rules", "step", "positives_covered", "negatives_covered"],
               pn_rows)
    return {"rules": len(rules), "cluster_auc": round(result.curve.auc, 6),
            "baseline_auc": round(result.baseline_mean_auc, 6), "n_folds": n_folds}


def _pairwise_metrics(members: dict[str, list[str]], ads_by_id: dict[str, Ad]) -> dict:
    """Precision/recall/F1 over co-source ad pairs, restricted to ads with
    ground truth. Pair counts use per-component source tallies, no pair
    enumeration."""
    labeled = {i for i, ad in ads_by_id.items() if ad.source_id}
    by_source: dict[str, int] = {}
    for i in labeled:
        src = ads_by_id[i].source_id
        by_source[src] = by_source.get(src, 0) + 1
    truth = sum(k * (k - 1) // 2 for k in by_source.values())

    predicted = 0
    matching = 0
    for ids in members.values():
        lab = [i for i in ids if i in labeled]
        predicted += len(lab) * (len(lab) - 1) // 2
        tally: dict[str, int] = {}
        for i in lab:
            src = ads_by_id[i].source_id
            tally[src] = tally.get(src, 0) + 1
        matching += sum(k * (k - 1) // 2 for k in tally.values())

    precision = matching / predicted if predicted else None
    recall = matching / truth if truth else None
    f1 = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return {
        "true_pairs": truth, "predicted_pairs": predicted, "matching_pairs": matching,
        "precision": precision, "recall": recall, "f1": f1,
    }


def stage_eval(cfg: PipelineConfig, out: Path) -> dict:
    members, _ = _read_components(out)
    ads = _load_ads(out)
    ads_by_id = {ad.id: ad for ad in ads}
    report: dict = {"warnings": []}

    have_truth = any(ad.source_id for ad in ads)
    if have_truth:
        pairwise = report["pairwise"] = _pairwise_metrics(members, ads_by_id)
        if pairwise["true_pairs"] and (out / "candidates.csv").exists():
            # candidates are distinct pairs, so the co-source ones are the truth pairs found
            _, cand_rows, _ = _read_csv(out / "candidates.csv")
            source = {ad.id: ad.source_id for ad in ads}
            found = sum(1 for i, j in cand_rows if source.get(i) and source.get(i) == source.get(j))
            report["blocking_recall"] = found / pairwise["true_pairs"]
    else:
        report["warnings"].append("no ground truth: pairwise metrics unavailable")

    report["n_components"] = len(members)
    report["largest_component"] = max((len(m) for m in members.values()), default=0)

    metrics_path = out / "metrics.json"
    if metrics_path.exists():
        with open(metrics_path, "r", encoding="utf-8") as fh:
            stage_metrics = json.load(fh).get("stages", {})
        if "train" in stage_metrics:
            report["match_auc"] = stage_metrics["train"]["counts"].get("test_auc")
    if (out / "cluster_eval.json").exists():
        with open(out / "cluster_eval.json", "r", encoding="utf-8") as fh:
            report["cluster"] = json.load(fh)
    if (out / "rules.json").exists():
        with open(out / "rules.json", "r", encoding="utf-8") as fh:
            report["rules"] = json.load(fh)["rules"]

    _write_json(out / "report.json", report)
    pw = report.get("pairwise") or {}
    return {"f1": pw.get("f1"), "blocking_recall": report.get("blocking_recall"),
            "components": len(members)}


_STAGE_FUNCS = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "extract": stage_extract,
    "sample": stage_sample,
    "features": stage_features,
    "train": stage_train,
    "block": stage_block,
    "sweep": stage_sweep,
    "resolve": stage_resolve,
    "clusters": stage_clusters,
    "rules": stage_rules,
    "eval": stage_eval,
}

# data artifacts; metrics.json and digests.json are logs about the run
_DIGEST_FILES = (
    "ads.jsonl", "fields.jsonl", "extraction_report.csv", "pairs.csv",
    "histogram.csv", "features.csv", "model.json", "roc.csv", "importances.csv",
    "candidates.csv", "blocking_stats.json", "sweep.csv", "threshold.json",
    "components.jsonl", "edges.csv", "cluster_features.csv", "labels.csv",
    "cluster_roc.csv", "cluster_eval.json", "rules.json", "pn.csv", "report.json",
)


def artifact_digests(out: Path) -> dict[str, str]:
    digests = {}
    for name in _DIGEST_FILES:
        path = out / name
        if path.exists():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_stage(stage: str, cfg: PipelineConfig, out: Path) -> dict:
    func = _STAGE_FUNCS.get(stage)
    if func is None:
        raise UsageError(f"unknown stage {stage!r}")
    out.mkdir(parents=True, exist_ok=True)
    layers: dict[str, float] = {}
    token = _stage_layers.set(layers)
    t0 = time.perf_counter()
    try:
        # the stage's warnings go to metrics.json as well as to stderr
        with warnings.catch_warnings(record=True) as caught:
            counts = func(cfg, out)
    finally:
        _stage_layers.reset(token)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    elapsed = time.perf_counter() - t0
    _record_metrics(out, stage, elapsed, counts, layers, [str(w.message) for w in caught])
    summary = ", ".join(f"{k}={v}" for k, v in counts.items())
    print(f"[{stage}] {elapsed:.2f}s {summary}")
    return counts


def run_pipeline(cfg: PipelineConfig, out: Path) -> None:
    first = "ingest" if cfg.input else "synth"
    for stage in (first,) + STAGE_ORDER[1:]:
        run_stage(stage, cfg, out)
    _write_json(out / "digests.json", artifact_digests(out))
    print(f"[pipeline] artifacts in {out}")


# --- argument parsing ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="adlink", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--threads", type=int, default=None, help="intra-stage parallelism")
    common.add_argument("--out", default=None, help="run directory (default from config)")

    for name in STAGE_ORDER + ("pipeline",):
        sub.add_parser(name, parents=[common])
    ing = sub.add_parser("ingest", parents=[common])
    ing.add_argument("input", nargs="?", default=None, help="ads JSONL to ingest")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"adlink: config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "input", None):
        cfg.input = args.input
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"adlink: config error: {exc}", file=sys.stderr)
        return 1

    out = Path(cfg.out_dir)
    try:
        if args.command == "pipeline":
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "config.json", config_to_dict(cfg))
            run_pipeline(cfg, out)
        else:
            run_stage(args.command, cfg, out)
    except UsageError as exc:
        print(f"adlink: {exc}", file=sys.stderr)
        return 1
    except PrerequisiteError as exc:
        print(f"adlink: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"adlink: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
