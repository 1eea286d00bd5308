"""Pairwise match classifiers: logistic regression and a random forest.

Both are implemented here, against the versioned pair-feature schema, so a
trained model is a plain JSON document and predictions are bit-reproducible
across processes. Forest randomness flows from one master seed through a
splitmix64 sequence into per-tree seeds fixed before any parallel dispatch,
so results do not depend on thread count.

Forest training maps every feature column to dense rank codes once per
``train_forest`` call and searches all features drawn at a node together,
with one stable sort of the codes per feature; prediction walks batches of
rows through node arrays flattened from the trees, built once per model and
cached on it (never serialized). Trees, importances and scores are
byte-identical to a per-feature, per-node recursive reference, which
``tests/test_matchmodel.py`` keeps as the oracle.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "LogisticModel",
    "ForestModel",
    "RocCurve",
    "train_logistic",
    "train_forest",
    "predict_proba",
    "logistic_loss_and_grad",
    "roc",
    "auc_concordance",
    "tpr_at_fpr",
    "fpr_at_tpr",
    "feature_importance",
    "save_model",
    "load_model",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def tree_seeds(master_seed: int, n: int) -> list[int]:
    """Per-tree seed sequence derived from one master seed."""
    state = master_seed & _MASK64
    out = []
    for _ in range(n):
        state, value = _splitmix64(state)
        out.append(value)
    return out


@dataclass
class Dataset:
    """Feature matrix + binary labels + per-row identifiers."""

    X: np.ndarray
    y: np.ndarray
    ids: list
    feature_names: tuple[str, ...]
    schema_version: str

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(self.X) != len(self.y):
            raise ValueError("row/label count mismatch")
        if self.ids and len(self.ids) != len(self.y):
            raise ValueError("ids length mismatch")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length mismatch")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X contains non-finite values")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("labels must be 0/1")

    def require_both_classes(self):
        if self.y.sum() == 0 or self.y.sum() == len(self.y):
            raise ValueError("dataset must contain both classes")


@dataclass
class LogisticModel:
    kind: str
    feature_names: tuple[str, ...]
    schema_version: str
    weights: np.ndarray
    bias: float
    means: np.ndarray
    scales: np.ndarray
    loss_history: list[float] = field(default_factory=list)


@dataclass
class ForestModel:
    kind: str
    feature_names: tuple[str, ...]
    schema_version: str
    trees: list[dict]
    seeds: list[int]
    importances_raw: np.ndarray  # summed impurity decrease per feature
    params: dict = field(default_factory=dict)
    # node arrays for predict_proba, built on first use; never serialized
    _flat: _FlatForest | None = field(default=None, init=False, repr=False, compare=False)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_loss_and_grad(weights, bias, X, y, l2: float):
    """Mean log-loss with L2 on the weights, and its gradient.

    Exposed so the analytic gradient can be cross-checked against finite
    differences.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    n = len(y)
    z = X @ w + bias
    sign = 1.0 - 2.0 * y  # -1 for positives, +1 for negatives
    loss = float(np.mean(np.logaddexp(0.0, sign * z)) + 0.5 * l2 * (w @ w) / n)
    p = _sigmoid(z)
    grad_w = X.T @ (p - y) / n + l2 * w / n
    grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


def train_logistic(dataset: Dataset, l2: float = 1e-3, epochs: int = 300,
                   lr: float = 0.5, seed: int = 0) -> LogisticModel:
    """Full-batch gradient descent from a zero start.

    The step size backtracks whenever a step would raise the loss, so the
    recorded loss history is non-increasing. Training is deterministic;
    ``seed`` is accepted for interface symmetry with the forest trainer and
    reserved for stochastic variants.
    """
    del seed
    dataset.require_both_classes()
    means = dataset.X.mean(axis=0)
    scales = dataset.X.std(axis=0)
    scales[scales == 0.0] = 1.0
    Xs = (dataset.X - means) / scales
    y = dataset.y.astype(np.float64)

    w = np.zeros(Xs.shape[1])
    b = 0.0
    step = lr
    loss, grad_w, grad_b = logistic_loss_and_grad(w, b, Xs, y, l2)
    history = [loss]
    for _ in range(epochs):
        for _ in range(60):
            w_try = w - step * grad_w
            b_try = b - step * grad_b
            new_loss, new_gw, new_gb = logistic_loss_and_grad(w_try, b_try, Xs, y, l2)
            if new_loss <= loss + 1e-12:
                break
            step *= 0.5
        else:
            history.append(loss)
            continue
        w, b, loss, grad_w, grad_b = w_try, b_try, new_loss, new_gw, new_gb
        history.append(loss)
    return LogisticModel(
        kind="logistic",
        feature_names=dataset.feature_names,
        schema_version=dataset.schema_version,
        weights=w,
        bias=b,
        means=means,
        scales=scales,
        loss_history=history,
    )


# --- forest ------------------------------------------------------------------

def _gini(pos: float, n: float) -> float:
    if n == 0:
        return 0.0
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _rank_codes(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column, feature-major ``(d, n)``.

    Equal floats (``-0.0`` and ``0.0`` included) share a code and codes keep
    the order of the floats, so a stable sort of a column's codes is the same
    permutation as a stable sort of its floats. ``uint16`` codes, used when
    every column has at most 65,536 distinct values, sort by radix.
    """
    columns = [np.unique(X[:, f], return_inverse=True) for f in range(X.shape[1])]
    narrow = all(len(values) <= 1 << 16 for values, _ in columns)
    codes = np.empty((X.shape[1], X.shape[0]), dtype=np.uint16 if narrow else np.uint32)
    for f, (_, inverse) in enumerate(columns):
        codes[f] = inverse
    return codes


def _best_split(X, codes, y, rows, pos, feats, min_leaf):
    """Lowest-impurity split of ``rows`` over the features ``feats`` (ascending).

    Returns ``(impurity, feature, threshold, left_rows, right_rows, left_pos)``
    or None when no feature can be cut between two different values with
    ``min_leaf`` rows on each side. All features are searched at once: row
    ``j`` of ``order`` sorts the node's rows by feature ``feats[j]``, and a
    cut at ``k`` sends the first ``k`` of them left. Impurity is computed
    only at cuts between different values; the first minimum of each feature
    competes, and a feature replaces the best so far only when it is lower by
    more than 1e-15.
    """
    n = len(rows)
    lo = max(min_leaf, 1)  # allowed left sizes: lo .. n - lo
    c = codes[feats].take(rows, axis=1)
    order = np.argsort(c, axis=1, kind="stable")
    flat_order = order + np.arange(0, c.size, n)[:, None]
    c = c.take(flat_order)  # sorted codes
    cum_pos = np.cumsum(y[rows].take(order), axis=1).ravel()
    cuts = np.flatnonzero(c[:, lo:n - lo + 1] != c[:, lo - 1:n - lo])
    if not len(cuts):
        return None
    j, k = np.divmod(cuts, n - 2 * lo + 1)  # feature row, left size - lo
    k += lo
    left_n = k.astype(np.float64)
    right_n = n - left_n
    left_pos = cum_pos.take(j * n + k - 1).astype(np.float64)
    right_pos = pos - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    impurity = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
    # cuts come grouped by feature: one segment of `impurity` per feature with a cut
    bounds = np.searchsorted(j, np.arange(len(feats) + 1)).tolist()
    segments = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    best = None  # (impurity, segment)
    mins = np.minimum.reduceat(impurity, [a for a, _ in segments]).tolist()
    for seg, value in zip(segments, mins):
        if best is None or value < best[0] - 1e-15:
            best = (value, seg)
    value, (a, b) = best
    i = a + int(np.argmin(impurity[a:b]))
    row, size = int(j[i]), int(k[i])
    f = int(feats[row])
    left, right = rows[order[row, :size]], rows[order[row, size:]]
    thr = (X[left[-1], f] + X[right[0], f]) / 2.0
    return value, f, float(thr), left, right, int(cum_pos[row * n + size - 1])


def _train_one_tree(X, codes, y, seed, max_depth, min_leaf, m_features):
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    importances = np.zeros(d)

    def grow(rows, pos, depth):
        n = len(rows)
        if depth >= max_depth or n < 2 * min_leaf or pos == 0 or pos == n:
            return {"p": pos / n, "n": n}
        feats = np.sort(rng.choice(d, size=min(m_features, d), replace=False))
        node_gini = _gini(pos, n)
        split = _best_split(X, codes, y, rows, pos, feats, min_leaf)
        if split is None or split[0] >= node_gini - 1e-15:
            return {"p": pos / n, "n": n}
        impurity, f, thr, left, right, left_pos = split
        importances[f] += (n * (node_gini - impurity))
        return {
            "f": f,
            "t": thr,
            "l": grow(left, left_pos, depth + 1),
            "r": grow(right, pos - left_pos, depth + 1),
        }

    rows = rng.integers(0, len(y), size=len(y))  # bootstrap
    tree = grow(rows, int(y[rows].sum()), 0)
    return tree, importances


def train_forest(dataset: Dataset, n_trees: int = 50, max_depth: int = 12,
                 min_leaf: int = 5, features_per_split: int | None = None,
                 seed: int = 0, threads: int = 1) -> ForestModel:
    """Bagged Gini trees with per-node feature subsampling.

    ``features_per_split`` defaults to ceil(sqrt(d)). Tree seeds come from
    the splitmix64 sequence, so any ``threads`` value gives the same model.
    """
    dataset.require_both_classes()
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    d = dataset.X.shape[1]
    m = features_per_split or int(np.ceil(np.sqrt(d)))
    seeds = tree_seeds(seed, n_trees)
    codes = _rank_codes(dataset.X)

    def job(s):
        return _train_one_tree(dataset.X, codes, dataset.y, s, max_depth, min_leaf, m)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, seeds))
    else:
        results = [job(s) for s in seeds]

    trees = [t for t, _ in results]
    importances = np.sum([imp for _, imp in results], axis=0)
    return ForestModel(
        kind="forest",
        feature_names=dataset.feature_names,
        schema_version=dataset.schema_version,
        trees=trees,
        seeds=seeds,
        importances_raw=importances,
        params={
            "n_trees": n_trees,
            "max_depth": max_depth,
            "min_leaf": min_leaf,
            "features_per_split": m,
            "seed": seed,
        },
    )


@dataclass
class _FlatForest:
    """A forest's trees as node arrays, built once per model for prediction.

    Node ``k`` tests ``x[feature[k]] <= threshold[k]`` and moves to
    ``child[2k + 1]`` when that holds, else (``x`` above or NaN) to
    ``child[2k]``. Leaves point to themselves, so a row that has reached its
    leaf stays there, and ``value[k]`` is the leaf's probability.
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depths: np.ndarray


def _flatten(trees: list) -> _FlatForest:
    """Node arrays, allocated once the node count is known; siblings are adjacent."""
    n_nodes = 0
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            n_nodes += 1
            if "p" not in node:
                stack += (node["l"], node["r"])
    feature = np.zeros(n_nodes, dtype=np.intp)
    threshold = np.zeros(n_nodes)
    child = np.empty(2 * n_nodes, dtype=np.intp)
    value = np.zeros(n_nodes)
    roots = np.empty(len(trees), dtype=np.intp)
    depths = np.zeros(len(trees), dtype=np.intp)
    # item assignment through a memoryview is faster than through the ndarray
    feature_mv, threshold_mv, child_mv, value_mv = map(memoryview, (feature, threshold, child, value))
    k = 0
    for t, tree in enumerate(trees):
        roots[t] = k
        stack = [(tree, k, 0)]
        k += 1
        deepest = 0
        while stack:
            node, at, depth = stack.pop()
            if "p" in node:
                child_mv[2 * at] = child_mv[2 * at + 1] = at
                value_mv[at] = node["p"]
                deepest = max(deepest, depth)
                continue
            feature_mv[at] = node["f"]
            threshold_mv[at] = node["t"]
            child_mv[2 * at] = k  # right
            child_mv[2 * at + 1] = k + 1  # left
            stack += ((node["r"], k, depth + 1), (node["l"], k + 1, depth + 1))
            k += 2
        depths[t] = deepest
    return _FlatForest(feature, threshold, child, value, roots, depths)


# (tree, row) cells walked together: 16k cells keep the walk's int64 and
# float64 temporaries within about 1 MB
_WALK_CELLS = 1 << 14


def _forest_predict(flat: _FlatForest, X: np.ndarray) -> np.ndarray:
    """Mean leaf probability per row; each tree's leaves are added in tree order."""
    n, d = X.shape
    acc = np.zeros(n)
    x_flat = np.ascontiguousarray(X).ravel()
    row_base = np.arange(0, n * d, d)
    per_chunk = max(1, _WALK_CELLS // max(n, 1))
    for start in range(0, len(flat.roots), per_chunk):
        roots = flat.roots[start:start + per_chunk]
        node = np.repeat(roots[:, None], n, axis=1)
        for _ in range(int(flat.depths[start:start + per_chunk].max())):
            x = x_flat.take(row_base + flat.feature.take(node))
            node = flat.child.take(2 * node + (x <= flat.threshold.take(node)))
        for leaves in flat.value.take(node):
            acc += leaves
    return acc / len(flat.roots)


def _check_schema(model, X: np.ndarray):
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if X.shape[1] != len(model.feature_names):
        raise ValueError(
            f"feature count {X.shape[1]} does not match model schema "
            f"{model.schema_version} ({len(model.feature_names)} features)"
        )


def predict_proba(model, X) -> np.ndarray:
    """Match probability per row, in [0, 1]."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_schema(model, X)
    if isinstance(model, LogisticModel):
        Xs = (X - model.means) / model.scales
        return _sigmoid(Xs @ model.weights + model.bias)
    if isinstance(model, ForestModel):
        if model._flat is None:
            model._flat = _flatten(model.trees)
        return _forest_predict(model._flat, X)
    raise TypeError(f"unknown model type {type(model)!r}")


# --- evaluation ---------------------------------------------------------------

@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc(scores, labels) -> RocCurve:
    """ROC curve by threshold sweep; ties share one curve point.

    The trapezoidal AUC of this curve equals the pairwise concordance
    probability P(score_pos > score_neg) + 0.5 P(equal).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc needs both classes")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    l = labels[order]
    cum_tp = np.cumsum(l)
    cum_fp = np.cumsum(1 - l)
    # last index of each tie group
    boundary = np.nonzero(np.diff(s))[0]
    take = np.concatenate([boundary, [len(s) - 1]])
    tpr = np.concatenate([[0.0], cum_tp[take] / n_pos])
    fpr = np.concatenate([[0.0], cum_fp[take] / n_neg])
    thresholds = np.concatenate([[np.inf], s[take]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc)


def auc_concordance(scores, labels) -> float:
    """Brute-force pairwise concordance AUC; the oracle for roc().auc."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("needs both classes")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def _validate_rate(value: float):
    if not 0.0 <= value <= 1.0:
        raise ValueError("rate target must be within [0, 1]")


def tpr_at_fpr(curve: RocCurve, fpr_target: float) -> float:
    """Linear interpolation of TPR at the given FPR."""
    _validate_rate(fpr_target)
    # collapse vertical segments: keep the best tpr per fpr value
    fpr_unique, inverse = np.unique(curve.fpr, return_inverse=True)
    tpr_best = np.zeros(len(fpr_unique))
    np.maximum.at(tpr_best, inverse, curve.tpr)
    return float(np.interp(fpr_target, fpr_unique, tpr_best))


def fpr_at_tpr(curve: RocCurve, tpr_target: float) -> float:
    """Linear interpolation of FPR at the given TPR."""
    _validate_rate(tpr_target)
    # collapse horizontal segments: keep the smallest fpr per tpr value
    tpr_unique, first = np.unique(curve.tpr, return_index=True)
    fpr_min = np.minimum.reduceat(curve.fpr, first) if len(first) else curve.fpr
    # np.unique sorts ascending and curve.tpr is monotone, so first indices
    # mark segment starts; reduceat takes the min within each segment.
    return float(np.interp(tpr_target, tpr_unique, fpr_min))


def feature_importance(model, from_weights: bool = False) -> list[tuple[str, float]]:
    """Ranked (feature, importance) pairs, importances summing to 1.

    Forest models report mean impurity decrease. Logistic models have no
    impurity notion; pass ``from_weights=True`` to rank by |weight| instead.
    """
    if isinstance(model, ForestModel):
        raw = model.importances_raw.astype(np.float64)
    elif isinstance(model, LogisticModel):
        if not from_weights:
            raise ValueError("logistic model: use from_weights=True for |weight| ranking")
        raw = np.abs(model.weights)
    else:
        raise TypeError(f"unknown model type {type(model)!r}")
    total = raw.sum()
    norm = raw / total if total > 0 else np.full(len(raw), 1.0 / len(raw))
    ranked = sorted(
        ((name, float(norm[i])) for i, name in enumerate(model.feature_names)),
        key=lambda item: (-item[1], model.feature_names.index(item[0])),
    )
    return ranked


# --- serialization -------------------------------------------------------------

def model_to_dict(model) -> dict:
    if isinstance(model, LogisticModel):
        return {
            "kind": "logistic",
            "schema_version": model.schema_version,
            "feature_names": list(model.feature_names),
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "means": model.means.tolist(),
            "scales": model.scales.tolist(),
            "loss_history": model.loss_history,
        }
    if isinstance(model, ForestModel):
        return {
            "kind": "forest",
            "schema_version": model.schema_version,
            "feature_names": list(model.feature_names),
            "trees": model.trees,
            "seeds": model.seeds,
            "importances_raw": model.importances_raw.tolist(),
            "params": model.params,
        }
    raise TypeError(f"unknown model type {type(model)!r}")


def model_from_dict(obj: dict):
    kind = obj.get("kind")
    if kind == "logistic":
        return LogisticModel(
            kind="logistic",
            feature_names=tuple(obj["feature_names"]),
            schema_version=obj["schema_version"],
            weights=np.asarray(obj["weights"], dtype=np.float64),
            bias=float(obj["bias"]),
            means=np.asarray(obj["means"], dtype=np.float64),
            scales=np.asarray(obj["scales"], dtype=np.float64),
            loss_history=list(obj.get("loss_history", [])),
        )
    if kind == "forest":
        return ForestModel(
            kind="forest",
            feature_names=tuple(obj["feature_names"]),
            schema_version=obj["schema_version"],
            trees=obj["trees"],
            seeds=list(obj["seeds"]),
            importances_raw=np.asarray(obj["importances_raw"], dtype=np.float64),
            params=dict(obj.get("params", {})),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model, path: str | Path) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n", encoding="utf-8")


def load_model(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
