"""Component-level features, the cluster classifier, and rule induction.

Resolved components get a compact numeric profile (size, posting cadence,
image reuse, alias/state diversity, connectivity). A forest separates
flagged from unflagged clusters under k-fold cross-validation, with an
average over random score assignments as the statistical floor. The rule
learner then distills the same signal into ordered conjunctions of interval
conditions, each reported with support (matched clusters), ratio (precision
among matched) and lift (ratio over the positive prior).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .corpus import Ad
from .extract import FieldSet
from .matchmodel import Dataset, RocCurve, predict_proba, roc, train_forest

__all__ = [
    "CLUSTER_FEATURE_NAMES",
    "CLUSTER_SCHEMA_VERSION",
    "ClusterFeatures",
    "Condition",
    "Rule",
    "featurize_component",
    "filter_components",
    "train_cluster_classifier",
    "ClusterClassifierResult",
    "learn_rules",
    "rule_metrics",
    "pn_curve",
]

CLUSTER_SCHEMA_VERSION = "cluster/1"

CLUSTER_FEATURE_NAMES = (
    "n_ads",
    "posting_months",
    "posting_weeks",
    "mean_ads_per_month",
    "mean_ads_per_week",
    "std_ads_per_month",
    "std_ads_per_week",
    "min_chars",
    "max_image_freq",
    "std_image_freq",
    "names_norm",
    "unique_images_norm",
    "states_norm",
    "edge_density",
)


@dataclass(frozen=True)
class ClusterFeatures:
    n_ads: int
    posting_months: int
    posting_weeks: int
    mean_ads_per_month: float
    mean_ads_per_week: float
    std_ads_per_month: float
    std_ads_per_week: float
    min_chars: int
    max_image_freq: int
    std_image_freq: float
    names_norm: float
    unique_images_norm: float
    states_norm: float
    edge_density: float

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in CLUSTER_FEATURE_NAMES], dtype=np.float64)


def image_document_frequency(ads) -> dict[str, int]:
    """Corpus-wide count of ads carrying each image hash."""
    df: dict[str, int] = {}
    for ad in ads:
        for h in ad.image_hashes:
            df[h] = df.get(h, 0) + 1
    return df


def featurize_component(members, ads_by_id: dict[str, Ad],
                        fieldsets: dict[str, FieldSet],
                        image_df: dict[str, int],
                        n_edges: int = 0) -> ClusterFeatures:
    """Profile one component. Months are calendar months, weeks ISO weeks,
    both in UTC; iteration order of ``members`` does not matter."""
    ids = sorted(members)
    if not ids:
        raise ValueError("empty component")
    ads = [ads_by_id[i] for i in ids]
    n = len(ads)

    month_counts: dict[tuple[int, int], int] = {}
    week_counts: dict[tuple[int, int], int] = {}
    for ad in ads:
        dt = datetime.fromtimestamp(ad.posted_at, tz=timezone.utc)
        mk = (dt.year, dt.month)
        iso = dt.date().isocalendar()
        wk = (iso[0], iso[1])
        month_counts[mk] = month_counts.get(mk, 0) + 1
        week_counts[wk] = week_counts.get(wk, 0) + 1

    per_month = np.array(sorted(month_counts.values()), dtype=np.float64)
    per_week = np.array(sorted(week_counts.values()), dtype=np.float64)

    images = set()
    names = set()
    states = set()
    for ad in ads:
        images |= ad.image_hashes
        if ad.state:
            states.add(ad.state)
        fs = fieldsets.get(ad.id)
        if fs is not None:
            names |= fs.names

    freqs = np.array(sorted(image_df.get(h, 0) for h in images), dtype=np.float64)
    possible = n * (n - 1) / 2
    return ClusterFeatures(
        n_ads=n,
        posting_months=len(month_counts),
        posting_weeks=len(week_counts),
        mean_ads_per_month=float(per_month.mean()),
        mean_ads_per_week=float(per_week.mean()),
        std_ads_per_month=float(per_month.std()),
        std_ads_per_week=float(per_week.std()),
        min_chars=min(len(ad.text) for ad in ads),
        max_image_freq=int(freqs.max()) if len(freqs) else 0,
        std_image_freq=float(freqs.std()) if len(freqs) else 0.0,
        names_norm=len(names) / n,
        unique_images_norm=len(images) / n,
        states_norm=len(states) / n,
        edge_density=(n_edges / possible) if possible else 0.0,
    )


def filter_components(members_by_id: dict[str, list[str]], min_size: int) -> dict[str, list[str]]:
    """Keep components with strictly more than ``min_size`` ads."""
    return {cid: m for cid, m in members_by_id.items() if len(m) > min_size}


# --- cluster classifier -----------------------------------------------------

@dataclass
class ClusterClassifierResult:
    curve: RocCurve
    baseline_aucs: list[float]
    baseline_mean_auc: float


def train_cluster_classifier(X, y, n_folds: int = 4, n_random_baselines: int = 100,
                             seed: int = 0, n_trees: int = 30, max_depth: int = 6,
                             min_leaf: int = 2) -> ClusterClassifierResult:
    """Out-of-fold ROC for a forest on cluster features, plus a random floor.

    Folds are stratified; the pooled out-of-fold scores give the reported
    curve. The baseline is the AUC of uniformly random scores, averaged over
    ``n_random_baselines`` draws.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("cluster classifier needs both classes")
    if n_folds > n_pos:
        raise ValueError(f"n_folds={n_folds} exceeds positive count {n_pos}")
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")

    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % n_folds

    oof = np.empty(len(y), dtype=np.float64)
    for k in range(n_folds):
        train_mask = fold_of != k
        ds = Dataset(
            X=X[train_mask], y=y[train_mask], ids=[],
            feature_names=CLUSTER_FEATURE_NAMES,
            schema_version=CLUSTER_SCHEMA_VERSION,
        )
        fold_model = train_forest(ds, n_trees=n_trees, max_depth=max_depth,
                                  min_leaf=min_leaf, seed=seed * 1000 + k)
        oof[~train_mask] = predict_proba(fold_model, X[~train_mask])

    aucs = [roc(rng.random(len(y)), y).auc for _ in range(n_random_baselines)]
    return ClusterClassifierResult(
        curve=roc(oof, y),
        baseline_aucs=aucs,
        baseline_mean_auc=float(np.mean(aucs)),
    )


# --- rule induction ----------------------------------------------------------

@dataclass(frozen=True)
class Condition:
    """lower < feature <= upper; either bound may be open (None)."""

    feature: str
    lower: float | None = None  # exclusive
    upper: float | None = None  # inclusive

    def describe(self) -> str:
        if self.lower is not None and self.upper is not None:
            return f"{self.lower:g}<{self.feature}<={self.upper:g}"
        if self.lower is not None:
            return f"{self.feature}>{self.lower:g}"
        return f"{self.feature}<={self.upper:g}"


@dataclass
class Rule:
    conditions: tuple[Condition, ...]
    support: int = 0
    ratio: float | None = None
    lift: float | None = None

    def matches(self, X: np.ndarray, feature_names) -> np.ndarray:
        mask = np.ones(len(X), dtype=bool)
        index = {name: i for i, name in enumerate(feature_names)}
        for cond in self.conditions:
            col = X[:, index[cond.feature]]
            if cond.lower is not None:
                mask &= col > cond.lower
            if cond.upper is not None:
                mask &= col <= cond.upper
        return mask

    def describe(self) -> str:
        return ", ".join(c.describe() for c in self.conditions) if self.conditions else "<always>"

    def to_dict(self) -> dict:
        return {
            "conditions": [
                {"feature": c.feature, "lower": c.lower, "upper": c.upper}
                for c in self.conditions
            ],
            "support": self.support,
            "ratio": self.ratio,
            "lift": self.lift,
            "text": self.describe(),
        }


def rule_metrics(rule: Rule, X, y, feature_names) -> tuple[int, float | None, float | None]:
    """(support, ratio, lift) on the full dataset.

    Zero matches leave ratio/lift undefined (None).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    mask = rule.matches(X, feature_names)
    support = int(mask.sum())
    if support == 0:
        return 0, None, None
    ratio = float(y[mask].sum() / support)
    prior = float(y.mean())
    lift = ratio / prior if prior > 0 else None
    return support, ratio, lift


def _feature_thresholds(X: np.ndarray, n_quantiles: int) -> list[np.ndarray]:
    qs = np.linspace(0.0, 1.0, n_quantiles + 2)[1:-1]
    out = []
    for f in range(X.shape[1]):
        col = X[:, f]
        vals = np.unique(np.quantile(col, qs))
        # a threshold at the column max would make "feature > t" unmatchable
        # and "feature <= t" vacuous, so trim it
        vals = vals[vals < col.max()]
        out.append(vals)
    return out


def _refine(rule_conds: dict[int, list[float | None]], f: int, op: str, t: float):
    lo, hi = rule_conds.get(f, [None, None])
    if op == ">":
        lo = t if lo is None else max(lo, t)
    else:
        hi = t if hi is None else min(hi, t)
    if lo is not None and hi is not None and lo >= hi:
        return None
    new = dict(rule_conds)
    new[f] = [lo, hi]
    return new


def _conds_mask(conds: dict[int, list[float | None]], X: np.ndarray) -> np.ndarray:
    mask = np.ones(len(X), dtype=bool)
    for f, (lo, hi) in conds.items():
        col = X[:, f]
        if lo is not None:
            mask &= col > lo
        if hi is not None:
            mask &= col <= hi
    return mask


def _conds_key(conds: dict[int, list[float | None]]):
    return tuple(sorted((f, tuple(b)) for f, b in conds.items()))


def learn_rules(X, y, feature_names=CLUSTER_FEATURE_NAMES, max_rules: int = 4,
                min_support: int = 1, beam_width: int = 5,
                n_quantiles: int = 16) -> list[Rule]:
    """Sequential covering with beam search over interval conditions.

    Each round grows one conjunction that maximizes precision over the
    still-uncovered positives (ties: higher support, then fewer conditions),
    then removes the positives it covers. Emitted rules carry support,
    ratio, and lift measured on the full dataset. Thresholds come from
    per-feature quantiles.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    if max_rules < 1:
        raise ValueError("max_rules must be >= 1")
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")

    thresholds = _feature_thresholds(X, n_quantiles)
    uncovered = y == 1
    rules: list[Rule] = []

    while len(rules) < max_rules and uncovered.any():
        conds = _grow_one(X, y, uncovered, thresholds, beam_width, min_support)
        if conds is None:
            break
        rule = Rule(conditions=tuple(
            Condition(feature=feature_names[f], lower=lo, upper=hi)
            for f, (lo, hi) in sorted(conds.items())
        ))
        support, ratio, lift = rule_metrics(rule, X, y, feature_names)
        rule.support, rule.ratio, rule.lift = support, ratio, lift
        mask = _conds_mask(conds, X)
        uncovered &= ~mask
        rules.append(rule)

    if not rules:
        warnings.warn("no rule reaches min_support; returning an empty rule set", stacklevel=2)
    return rules


def _grow_one(X, y, uncovered, thresholds, beam_width, min_support):
    """Best single conjunction for the current working set, or None.

    Candidates are scored by (precision over uncovered positives, uncovered
    positives matched, fewer conditions); a candidate only qualifies when it
    covers at least one uncovered positive and its full-dataset support
    meets min_support. Growth stops when a round fails to improve.
    """
    active = uncovered | (y == 0)  # covered positives drop out of the search

    def evaluate(conds):
        mask = _conds_mask(conds, X)
        new_pos = int((mask & uncovered).sum())
        matched_active = int((mask & active).sum())
        precision = new_pos / matched_active if matched_active else 0.0
        return (precision, new_pos, -len(conds)), new_pos, int(mask.sum())

    beam: list[dict] = [{}]
    best_eval = None
    best_conds = None

    for _ in range(8):  # condition budget per rule
        candidates: dict = {}
        for conds in beam:
            for f in range(X.shape[1]):
                for t in thresholds[f]:
                    for op in (">", "<="):
                        refined = _refine(conds, f, op, float(t))
                        if refined is not None:
                            candidates.setdefault(_conds_key(refined), refined)
        scored = []
        for key in sorted(candidates, key=str):
            conds = candidates[key]
            ev, new_pos, support_full = evaluate(conds)
            if new_pos == 0:
                continue
            scored.append((ev, str(key), conds, support_full))
        if not scored:
            break
        scored.sort(key=lambda item: (item[0], item[1]), reverse=True)
        improved = False
        for ev, _, conds, support_full in scored:
            if support_full >= min_support:
                if best_eval is None or ev > best_eval:
                    best_eval, best_conds, improved = ev, conds, True
                break  # sorted desc, so the first qualifying row is the round's best
        beam = [conds for _, _, conds, _ in scored[:beam_width]]
        if not improved and best_eval is not None:
            break

    return best_conds


def pn_curve(rules: list[Rule], X, y, feature_names=CLUSTER_FEATURE_NAMES) -> list[tuple[int, int]]:
    """Cumulative (negatives covered, positives covered) after each rule."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    covered = np.zeros(len(y), dtype=bool)
    points = [(0, 0)]
    for rule in rules:
        covered |= rule.matches(X, feature_names)
        n = int((covered & (y == 0)).sum())
        p = int((covered & (y == 1)).sum())
        points.append((n, p))
    return points
