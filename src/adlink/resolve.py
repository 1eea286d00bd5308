"""Link-graph fusion and component extraction.

Strong edges (shared phones) always hold; weak edges are classifier scores
admitted above a match threshold. The threshold itself is picked from the
merge curve of the scored edges, capping the largest component, which is
the defence against the runaway-merge failure mode of over-permissive
cutoffs.

Every candidate pair is scored once, by the ``sweep`` stage: it writes the
scored edges to ``edges.csv`` and builds the curve from that same edge list
with :func:`sweep_curve`. ``resolve`` then reads ``edges.csv`` and applies
the chosen threshold with one :func:`connected_components` pass.
:func:`threshold_sweep` is the library form that blocks, scores and sweeps
a corpus sample on its own.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass

from .corpus import Ad
from .extract import FieldSet
from .pairfeat import PairFeaturizer
from .matchmodel import predict_proba
from .unionfind import UnionFind, labels
from . import blocking as _blocking
from . import surrogate as _surrogate

__all__ = [
    "ComponentSet",
    "SweepResult",
    "score_candidates",
    "connected_components",
    "sweep_curve",
    "threshold_sweep",
    "select_threshold",
]


@dataclass
class ComponentSet:
    """Partition of the node set; ids are each component's smallest member."""

    members: dict[str, list[str]]
    edge_counts: dict[str, tuple[int, int]]  # component id -> (strong, weak)

    def __len__(self) -> int:
        return len(self.members)

    def largest_size(self) -> int:
        return max((len(m) for m in self.members.values()), default=0)

    def component_of(self) -> dict[str, str]:
        return labels(self.members)


@dataclass
class SweepResult:
    rows: list[tuple[float, int, int]]  # (threshold, n_components, largest size)
    sample_size: int


def score_candidates(model, pairs, ads_by_id: dict[str, Ad],
                     fieldsets: dict[str, FieldSet],
                     featurizer: PairFeaturizer | None = None,
                     batch_size: int = 4096) -> list[tuple[str, str, float]]:
    """One match score per candidate pair, in input order.

    The seconds spent in ``predict_proba`` accumulate in the featurizer's
    ``timings`` as ``predict_s``, beside its own ``lcs_s`` and ``columns_s``.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    fz = featurizer or PairFeaturizer(ads_by_id, fieldsets)
    out: list[tuple[str, str, float]] = []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        X = fz.matrix(chunk)
        t0 = time.perf_counter()
        scores = predict_proba(model, X)
        fz.timings["predict_s"] = fz.timings.get("predict_s", 0.0) + time.perf_counter() - t0
        out.extend((i, j, float(s)) for (i, j), s in zip(chunk, scores))
    return out


def connected_components(strong_edges, weak_edges, threshold: float,
                         nodes=None) -> ComponentSet:
    """Union-find over strong edges plus weak edges scoring >= threshold."""
    uf = UnionFind()
    strong = []
    for i, j in strong_edges:
        if i == j:
            continue
        strong.append((i, j))
        uf.union(i, j)
    admitted = []
    for i, j, score in weak_edges:
        if i == j:
            continue
        if score >= threshold:
            admitted.append((i, j))
            uf.union(i, j)
    if nodes is not None:
        for node in nodes:
            uf.add(node)

    members = uf.groups()
    comp_of = labels(members)
    counts: dict[str, list[int]] = {comp_id: [0, 0] for comp_id in members}
    for kind, edges in enumerate((strong, admitted)):  # each distinct edge once
        for i, _ in {(i, j) if i < j else (j, i) for i, j in edges}:
            counts[comp_of[i]][kind] += 1

    return ComponentSet(
        members=members,
        edge_counts={c: (s, w) for c, (s, w) in counts.items()},
    )


def sweep_curve(strong_edges, weak_edges, thresholds,
                nodes=None) -> list[tuple[float, int, int]]:
    """``(threshold, n_components, largest size)`` per distinct threshold, ascending.

    One union-find pass stands in for a :func:`connected_components` call per
    threshold: strong edges join first, then weak edges in descending score
    order, and the row for ``t`` is read once every weak edge scoring
    ``>= t`` is in.
    """
    thresholds = sorted(set(float(t) for t in thresholds))
    if not thresholds:
        return []
    uf = UnionFind()
    for node in nodes or ():
        uf.add(node)
    largest = 1 if len(uf) else 0

    def join(i, j) -> None:
        nonlocal largest
        if i != j and uf.union(i, j):
            largest = max(largest, uf.size(i))

    for i, j in strong_edges:
        join(i, j)
    # edges below the lowest threshold (or NaN) are never admitted
    weak = sorted((e for e in weak_edges if e[2] >= thresholds[0]),
                  key=lambda e: e[2], reverse=True)
    rows = []
    k = 0
    for t in reversed(thresholds):
        while k < len(weak) and weak[k][2] >= t:
            join(weak[k][0], weak[k][1])
            k += 1
        rows.append((t, len(uf), largest))
    rows.reverse()
    return rows


def threshold_sweep(model, ads: list[Ad], fieldsets: dict[str, FieldSet],
                    thresholds, sample_size: int = 10_000, seed: int = 0,
                    rarity_threshold: int = 10, max_block_size: int = 200) -> SweepResult:
    """Run block -> score -> resolve on a corpus sample at each threshold."""
    thresholds = sorted(set(float(t) for t in thresholds))
    if len(thresholds) < 2:
        raise ValueError("threshold_sweep needs at least two distinct thresholds")

    ordered = sorted(ads, key=lambda a: a.id)
    if sample_size > len(ordered):
        warnings.warn(
            f"sweep sample {sample_size} exceeds corpus size {len(ordered)}; clamping",
            stacklevel=2,
        )
        sample = ordered
    elif sample_size < len(ordered):
        sample = random.Random(seed).sample(ordered, sample_size)
        sample.sort(key=lambda a: a.id)
    else:
        sample = ordered

    sample_ids = [a.id for a in sample]
    ads_by_id = {a.id: a for a in sample}
    sample_fields = {i: fieldsets.get(i, FieldSet()) for i in sample_ids}

    graph, _ = _surrogate.build_strong_graph({i: sample_fields[i].phones for i in sample_ids})
    strong = graph.strong_pairs()

    index = _blocking.build_blocks(sample, rarity_threshold, max_block_size)
    scored = score_candidates(model, _blocking.candidate_pairs(index), ads_by_id, sample_fields)

    rows = sweep_curve(strong, scored, thresholds, nodes=sample_ids)
    return SweepResult(rows=rows, sample_size=len(sample))


def select_threshold(sweep: SweepResult, max_largest_fraction: float = 0.05) -> float:
    """Smallest threshold keeping the largest component under the cap.

    Falls back to the highest threshold (with a warning) when even that one
    exceeds the cap.
    """
    if not sweep.rows:
        raise ValueError("empty sweep")
    cap = max_largest_fraction * sweep.sample_size
    for threshold, _, largest in sweep.rows:
        if largest <= cap:
            return threshold
    top = sweep.rows[-1][0]
    warnings.warn(
        f"no threshold keeps the largest component under {cap:.0f} ads; "
        f"falling back to {top}",
        stacklevel=2,
    )
    return top
