import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlink.matchmodel import (
    Dataset,
    ForestModel,
    LogisticModel,
    _best_split,
    _gini,
    _rank_codes,
    auc_concordance,
    feature_importance,
    fpr_at_tpr,
    load_model,
    logistic_loss_and_grad,
    model_from_dict,
    model_to_dict,
    predict_proba,
    roc,
    save_model,
    tpr_at_fpr,
    train_forest,
    train_logistic,
    tree_seeds,
)

NAMES2 = ("f0", "f1")


def make_dataset(X, y, names=None):
    X = np.asarray(X, dtype=float)
    names = names or tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(X=X, y=np.asarray(y), ids=[], feature_names=names,
                   schema_version="test/1")


def separable_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-2.0, size=(n // 2, 2))
    X1 = rng.normal(loc=+2.0, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return make_dataset(X, y, NAMES2)


def xor_dataset(n=400, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return make_dataset(X, y, NAMES2)


# --- dataset validation --------------------------------------------------------

def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        make_dataset([[1.0, np.nan]], [1])


def test_dataset_rejects_mismatch():
    with pytest.raises(ValueError):
        make_dataset([[1.0, 2.0]], [1, 0])


# --- logistic -------------------------------------------------------------------

def test_logistic_separable_training_auc_one():
    ds = separable_dataset()
    model = train_logistic(ds, epochs=200)
    curve = roc(predict_proba(model, ds.X), ds.y)
    assert curve.auc == 1.0


def test_logistic_single_class_errors():
    ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [1, 1], NAMES2)
    with pytest.raises(ValueError, match="both classes"):
        train_logistic(ds)


def test_logistic_loss_history_non_increasing():
    ds = separable_dataset(seed=3)
    model = train_logistic(ds, epochs=100, lr=2.0)
    h = model.loss_history
    assert all(h[i + 1] <= h[i] + 1e-6 for i in range(len(h) - 1))


def test_untrained_zero_weights_score_half():
    model = LogisticModel(
        kind="logistic", feature_names=NAMES2, schema_version="test/1",
        weights=np.zeros(2), bias=0.0, means=np.zeros(2), scales=np.ones(2),
    )
    scores = predict_proba(model, np.array([[5.0, -3.0], [0.0, 0.0]]))
    assert np.allclose(scores, 0.5)


def test_shuffled_labels_heldout_auc_near_half():
    """Monte Carlo over 20 seeds: held-out AUC on random labels ~ 0.5."""
    aucs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 2))
        y = rng.integers(0, 2, size=300)
        if y[:200].sum() in (0, 200) or y[200:].sum() in (0, 100):
            continue
        ds = make_dataset(X[:200], y[:200], NAMES2)
        model = train_logistic(ds, epochs=80)
        aucs.append(roc(predict_proba(model, X[200:]), y[200:]).auc)
    assert 0.4 <= float(np.mean(aucs)) <= 0.6


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, d = 40, 3
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = 0.1
        _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, l2)
        h = 1e-5
        for k in range(d):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            lp, _, _ = logistic_loss_and_grad(wp, b, X, y, l2)
            lm, _, _ = logistic_loss_and_grad(wm, b, X, y, l2)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad_w[k]) <= 1e-4 * max(1.0, abs(fd))
        lp, _, _ = logistic_loss_and_grad(w, b + h, X, y, l2)
        lm, _, _ = logistic_loss_and_grad(w, b - h, X, y, l2)
        fd_b = (lp - lm) / (2 * h)
        assert abs(fd_b - grad_b) <= 1e-4 * max(1.0, abs(fd_b))


# --- forest ----------------------------------------------------------------------

def test_forest_learns_xor():
    ds = xor_dataset()
    model = train_forest(ds, n_trees=50, max_depth=8, min_leaf=2, seed=0)
    preds = predict_proba(model, ds.X) >= 0.5
    accuracy = float(np.mean(preds == ds.y))
    assert accuracy >= 0.95


def test_forest_depth_zero_is_constant():
    ds = separable_dataset(seed=5)
    model = train_forest(ds, n_trees=1, max_depth=0, seed=2)
    scores = predict_proba(model, ds.X)
    assert len(np.unique(scores)) == 1
    # the constant is the bootstrap sample's positive fraction
    assert model.trees[0].keys() == {"p", "n"}
    assert scores[0] == model.trees[0]["p"]


def test_forest_duplicated_rows_probability_range():
    ds = separable_dataset(seed=6)
    X2 = np.vstack([ds.X, ds.X])
    y2 = np.concatenate([ds.y, ds.y])
    model = train_forest(make_dataset(X2, y2, NAMES2), n_trees=10, seed=1)
    scores = predict_proba(model, X2)
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


def test_forest_single_class_errors():
    ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [0, 0], NAMES2)
    with pytest.raises(ValueError, match="both classes"):
        train_forest(ds)


def test_forest_deterministic_per_seed_and_thread_count():
    ds = xor_dataset(n=200, seed=2)
    m1 = train_forest(ds, n_trees=12, seed=9, threads=1)
    m2 = train_forest(ds, n_trees=12, seed=9, threads=4)
    m3 = train_forest(ds, n_trees=12, seed=10, threads=1)
    X = ds.X[:50]
    assert np.array_equal(predict_proba(m1, X), predict_proba(m2, X))
    assert not np.array_equal(predict_proba(m1, X), predict_proba(m3, X))


# --- forest kernels against the recursive reference ---------------------------
#
# _build_tree, _train_one_tree and _tree_apply below are the plain recursive
# forest: one stable sort of the floats per feature at every node, and one
# call per node to predict. They are the oracle for train_forest's rank-coded
# split search and predict_proba's array walk, which must reproduce their
# trees, importances and scores bit for bit.

def _build_tree(X, y, rows, rng, max_depth, min_leaf, m_features, depth, importances):
    n = len(rows)
    pos = int(y[rows].sum())
    if depth >= max_depth or n < 2 * min_leaf or pos == 0 or pos == n:
        return {"p": pos / n, "n": n}

    d = X.shape[1]
    feats = np.sort(rng.choice(d, size=min(m_features, d), replace=False))
    node_gini = _gini(pos, n)

    best = None  # (impurity, feature, threshold, order, split_idx)
    for f in feats:
        x = X[rows, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[rows][order]
        cum_pos = np.cumsum(ys)
        idx = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (idx >= min_leaf) & (n - idx >= min_leaf)
        if not valid.any():
            continue
        left_n = idx[valid].astype(np.float64)
        right_n = n - left_n
        left_pos = cum_pos[:-1][valid].astype(np.float64)
        right_pos = pos - left_pos
        pl = left_pos / left_n
        pr = right_pos / right_n
        impurity = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
        k = int(np.argmin(impurity))
        if best is None or impurity[k] < best[0] - 1e-15:
            pos_k = idx[valid][k]
            thr = (xs[pos_k - 1] + xs[pos_k]) / 2.0
            best = (float(impurity[k]), int(f), thr, order, int(pos_k))

    if best is None or best[0] >= node_gini - 1e-15:
        return {"p": pos / n, "n": n}

    impurity, f, thr, order, k = best
    importances[f] += (n * (node_gini - impurity))
    left_rows = rows[order[:k]]
    right_rows = rows[order[k:]]
    return {
        "f": f,
        "t": float(thr),
        "l": _build_tree(X, y, left_rows, rng, max_depth, min_leaf, m_features, depth + 1, importances),
        "r": _build_tree(X, y, right_rows, rng, max_depth, min_leaf, m_features, depth + 1, importances),
    }


def _train_one_tree(X, y, seed, max_depth, min_leaf, m_features):
    rng = np.random.default_rng(seed)
    n = len(y)
    rows = rng.integers(0, n, size=n)  # bootstrap
    importances = np.zeros(X.shape[1])
    tree = _build_tree(X, y, rows, rng, max_depth, min_leaf, m_features, 0, importances)
    return tree, importances


def _tree_apply(tree: dict, X: np.ndarray, rows: np.ndarray, out: np.ndarray):
    if "p" in tree:
        out[rows] = tree["p"]
        return
    mask = X[rows, tree["f"]] <= tree["t"]
    _tree_apply(tree["l"], X, rows[mask], out)
    _tree_apply(tree["r"], X, rows[~mask], out)


def reference_forest(ds, n_trees, max_depth, min_leaf, features_per_split, seed):
    d = ds.X.shape[1]
    m = features_per_split or int(np.ceil(np.sqrt(d)))
    results = [_train_one_tree(ds.X, ds.y, s, max_depth, min_leaf, m)
               for s in tree_seeds(seed, n_trees)]
    return [t for t, _ in results], np.sum([imp for _, imp in results], axis=0)


def reference_predict(trees, X):
    acc = np.zeros(len(X))
    rows = np.arange(len(X))
    scratch = np.empty(len(X))
    for tree in trees:
        _tree_apply(tree, X, rows, scratch)
        acc += scratch
    return acc / len(trees)


def assert_forest_matches_reference(ds, queries, n_trees, max_depth, min_leaf,
                                    features_per_split, seed):
    model = train_forest(ds, n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                         features_per_split=features_per_split, seed=seed)
    trees, importances = reference_forest(ds, n_trees, max_depth, min_leaf,
                                          features_per_split, seed)
    assert json.dumps(model.trees) == json.dumps(trees)
    assert model.importances_raw.tobytes() == importances.tobytes()
    for X in queries:
        assert predict_proba(model, X).tobytes() == reference_predict(trees, X).tobytes()


SMALL_VALUES = (-2.0, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0)


@st.composite
def forest_cases(draw):
    n = draw(st.integers(2, 50))
    d = draw(st.integers(1, 5))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["small", "float", "constant"]))
        if kind == "small":
            values = st.sampled_from(SMALL_VALUES)
        elif kind == "float":
            values = st.floats(-1e6, 1e6, allow_nan=False)
        else:
            values = st.just(draw(st.sampled_from(SMALL_VALUES)))
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    X = np.array(columns, dtype=np.float64).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0], y[-1] = 0, 1
    duplicate = draw(st.integers(0, n))  # repeat the first rows
    X = np.vstack([X, X[:duplicate]])
    y = np.concatenate([y, y[:duplicate]])
    params = {
        "n_trees": draw(st.integers(1, 4)),
        "max_depth": draw(st.sampled_from([0, 1, 3, 12])),
        "min_leaf": draw(st.sampled_from([1, 2, 5])),
        "features_per_split": draw(st.sampled_from([1, None, d])),
        "seed": draw(st.integers(0, 2**32)),
    }
    return make_dataset(X, y), params


@settings(max_examples=200, deadline=None)
@given(forest_cases())
def test_forest_matches_recursive_reference(case):
    ds, params = case
    d = ds.X.shape[1]
    odd = ds.X[: min(len(ds.X), 6)].copy()
    odd[0::3, 0] = np.nan
    odd[1::3, -1] = np.inf
    odd[2::3, 0] = -np.inf
    queries = [ds.X, odd, ds.X[:1], np.zeros((0, d)), np.full((2, d), np.nan)]
    assert_forest_matches_reference(ds, queries, **params)


def test_near_tie_keeps_the_earlier_feature():
    # feature 0 cuts 1|5 rows (impurity 0.4000000000000001), feature 1 cuts
    # 5|1 rows (0.39999999999999997): lower, but by less than 1e-15
    X = np.array([[0, 0], [1, 0], [1, 0], [1, 0], [1, 0], [1, 1]], dtype=np.float64)
    y = np.array([0, 1, 1, 0, 0, 1])
    rows = np.arange(6)
    split = _best_split(X, _rank_codes(X), y, rows, 3, np.array([0, 1]), 1)
    assert split[:3] == (0.4000000000000001, 0, 0.5)
    reference = _build_tree(X, y, rows, np.random.default_rng(0), 1, 1, 2, 0, np.zeros(2))
    assert (reference["f"], reference["t"]) == (0, 0.5)


def test_rank_codes_widen_past_65536_values():
    rng = np.random.default_rng(3)
    X = rng.permutation(65_537).astype(np.float64).reshape(-1, 1)
    assert _rank_codes(X[:-1]).dtype == np.uint16
    assert _rank_codes(X).dtype == np.uint32
    assert np.array_equal(_rank_codes(X)[0], X[:, 0].astype(np.int64))


def test_forest_matches_reference_with_wide_codes():
    rng = np.random.default_rng(5)
    n = 70_000
    X = np.column_stack([rng.normal(size=n), rng.integers(0, 4, n).astype(float)])
    y = ((X[:, 0] + rng.normal(scale=0.5, size=n)) > 0).astype(int)
    ds = make_dataset(X, y)
    assert _rank_codes(ds.X).dtype == np.uint32
    queries = [X[:5000], np.array([[np.nan, 1.0], [np.inf, -np.inf]])]
    assert_forest_matches_reference(ds, queries, n_trees=1, max_depth=3, min_leaf=5,
                                    features_per_split=2, seed=1)


def test_forest_threads_give_the_same_model():
    ds = xor_dataset(n=300, seed=4)
    m1 = train_forest(ds, n_trees=8, seed=21, threads=1)
    m2 = train_forest(ds, n_trees=8, seed=21, threads=2)
    assert json.dumps(model_to_dict(m1)) == json.dumps(model_to_dict(m2))
    assert m1.importances_raw.tobytes() == m2.importances_raw.tobytes()


def test_tree_seed_sequence_stable():
    assert tree_seeds(7, 3) == tree_seeds(7, 5)[:3]
    assert tree_seeds(7, 3) != tree_seeds(8, 3)


def test_predict_schema_mismatch():
    ds = separable_dataset()
    model = train_forest(ds, n_trees=3, seed=0)
    with pytest.raises(ValueError, match="feature count"):
        predict_proba(model, np.zeros((2, 5)))


# --- roc / rates -------------------------------------------------------------------

def test_roc_perfect():
    curve = roc([0.9, 0.1], [1, 0])
    assert curve.auc == 1.0
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


def test_roc_all_ties_is_half():
    curve = roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert curve.auc == 0.5


def test_roc_single_class_errors():
    with pytest.raises(ValueError):
        roc([0.5, 0.6], [1, 1])


def test_roc_monotone_endpoints_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(5, 60)
        scores = rng.choice([0.1, 0.3, 0.5, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        c = roc(scores, labels)
        assert np.all(np.diff(c.fpr) >= 0) and np.all(np.diff(c.tpr) >= 0)
        assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
        assert (c.fpr[-1], c.tpr[-1]) == (1.0, 1.0)


def test_auc_equals_concordance_oracle():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        # coarse scores force plenty of ties
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        assert abs(roc(scores, labels).auc - auc_concordance(scores, labels)) < 1e-9


def test_tpr_at_fpr_perfect_and_diagonal():
    perfect = roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert tpr_at_fpr(perfect, 0.01) == 1.0
    diagonal = roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    for x in (0.0, 0.25, 0.5, 1.0):
        assert abs(tpr_at_fpr(diagonal, x) - x) < 1e-12


def test_tpr_at_fpr_hand_interpolation():
    from adlink.matchmodel import RocCurve
    curve = RocCurve(
        fpr=np.array([0.0, 0.1, 1.0]),
        tpr=np.array([0.0, 0.8, 1.0]),
        thresholds=np.array([np.inf, 0.5, 0.0]),
        auc=0.0,
    )
    assert abs(tpr_at_fpr(curve, 0.05) - 0.4) < 1e-12
    assert abs(fpr_at_tpr(curve, 0.4) - 0.05) < 1e-12


def test_rate_targets_validated():
    curve = roc([0.9, 0.1], [1, 0])
    with pytest.raises(ValueError):
        tpr_at_fpr(curve, 1.5)
    with pytest.raises(ValueError):
        fpr_at_tpr(curve, -0.1)


# --- importances ---------------------------------------------------------------------

def test_single_informative_feature_dominates():
    rng = np.random.default_rng(4)
    n = 400
    informative = rng.normal(size=n)
    X = np.column_stack([informative, rng.normal(size=n), rng.normal(size=n)])
    y = (informative > 0).astype(int)
    model = train_forest(make_dataset(X, y), n_trees=30, max_depth=6, seed=0)
    ranked = feature_importance(model)
    assert ranked[0][0] == "f0"
    assert ranked[0][1] > 0.9


def test_uninformative_features_near_uniform():
    rng = np.random.default_rng(11)
    importances = np.zeros(3)
    for seed in range(10):
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200)
        if y.sum() in (0, 200):
            continue
        model = train_forest(make_dataset(X, y), n_trees=20, max_depth=4, seed=seed)
        importances += np.array([v for _, v in sorted(feature_importance(model))])
    importances /= 10
    assert np.all(np.abs(importances - 1 / 3) <= 0.1)


def test_importances_sum_to_one():
    ds = xor_dataset(n=200, seed=8)
    model = train_forest(ds, n_trees=10, seed=3)
    total = sum(v for _, v in feature_importance(model))
    assert abs(total - 1.0) <= 1e-9


def test_logistic_importance_requires_flag():
    ds = separable_dataset()
    model = train_logistic(ds, epochs=50)
    with pytest.raises(ValueError, match="from_weights"):
        feature_importance(model)
    ranked = feature_importance(model, from_weights=True)
    assert abs(sum(v for _, v in ranked) - 1.0) <= 1e-9


# --- serialization ---------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["logistic", "forest"])
def test_serialization_roundtrip_bit_identical(tmp_path, kind):
    ds = separable_dataset(seed=12)
    if kind == "logistic":
        model = train_logistic(ds, epochs=60)
    else:
        model = train_forest(ds, n_trees=8, seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    X = np.vstack([ds.X, ds.X * 0.37])
    assert np.array_equal(predict_proba(model, X), predict_proba(loaded, X))
    assert model_to_dict(loaded) == model_to_dict(model)


def test_prediction_arrays_never_reach_json(tmp_path):
    ds = xor_dataset(n=200, seed=13)
    model = train_forest(ds, n_trees=6, seed=2)
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    save_model(model, before)
    scores = predict_proba(model, ds.X)
    save_model(model, after)
    assert before.read_bytes() == after.read_bytes()
    assert set(model_to_dict(model)) == set(json.loads(after.read_text()))
    loaded = load_model(after)
    assert isinstance(loaded, ForestModel)
    X = np.vstack([ds.X, [[np.nan, 0.0], [np.inf, -np.inf]]])
    assert predict_proba(loaded, X).tobytes() == predict_proba(model, X).tobytes()
    assert predict_proba(loaded, ds.X).tobytes() == scores.tobytes()


def test_model_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        model_from_dict({"kind": "boosted"})
