"""Proxy-label machinery: the shared-phone graph and biased pair sampling.

Two ads that share any phone number are near-certain to have one source, so
the connected components of the shared-phone relation act as free ground
truth. Positive training pairs are drawn within a component but restricted
to pairs with disjoint phone sets, which suppresses trivially near-duplicate
pairs; negatives are drawn across components.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass

from .unionfind import UnionFind, labels, pairs_within

__all__ = [
    "StrongGraph",
    "ProxyComponents",
    "PairSample",
    "build_strong_graph",
    "sample_pairs",
    "jaccard_unigram",
    "similarity_histogram",
]


@dataclass
class StrongGraph:
    """Bipartite phone<->ad relation, stored in both directions."""

    phone_to_ads: dict[str, frozenset[str]]
    ad_to_phones: dict[str, frozenset[str]]

    def strong_pairs(self) -> list[tuple[str, str]]:
        """All ad pairs sharing at least one phone, as ``(smaller, larger)``, sorted."""
        return pairs_within(self.phone_to_ads.values())


@dataclass
class ProxyComponents:
    """Partition of the phone-bearing ads under the shared-phone relation."""

    component_of: dict[str, str]  # ad id -> component id (smallest member id)
    members: dict[str, list[str]]  # component id -> sorted member ids
    n_excluded: int  # ads with no phone

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PairSample:
    ad_i: str
    ad_j: str
    label: str  # "positive" | "negative"
    provenance: tuple[str, ...]  # component id(s) the pair was drawn from


def build_strong_graph(phones_by_ad: dict[str, set[str] | frozenset[str]]) -> tuple[StrongGraph, ProxyComponents]:
    """Build the phone graph and its connected components.

    ``phones_by_ad`` maps ad id -> extracted phone set (may be empty). Ads
    without phones are excluded from the components and counted.
    """
    phone_to_ads: dict[str, set[str]] = {}
    ad_to_phones: dict[str, frozenset[str]] = {}
    n_excluded = 0
    for ad_id, phones in phones_by_ad.items():
        if not phones:
            n_excluded += 1
            continue
        ad_to_phones[ad_id] = frozenset(phones)
        for p in phones:
            phone_to_ads.setdefault(p, set()).add(ad_id)

    uf = UnionFind()
    for ad_id in ad_to_phones:
        uf.add(ad_id)
    for ads in phone_to_ads.values():
        ordered = sorted(ads)
        for other in ordered[1:]:
            uf.union(ordered[0], other)

    members = uf.groups()
    graph = StrongGraph(
        phone_to_ads={p: frozenset(a) for p, a in phone_to_ads.items()},
        ad_to_phones=ad_to_phones,
    )
    return graph, ProxyComponents(component_of=labels(members), members=members, n_excluded=n_excluded)


def _eligible_positive(graph: StrongGraph, i: str, j: str) -> bool:
    return not (graph.ad_to_phones[i] & graph.ad_to_phones[j])


def sample_pairs(
    components: ProxyComponents,
    graph: StrongGraph,
    n_pos: int,
    n_neg: int,
    rng_seed: int = 0,
    same_city_negatives: dict[str, str] | None = None,
    negative_pool=None,
) -> list[PairSample]:
    """Draw labeled training pairs, deterministically per seed.

    Positives: same component, disjoint phone sets (the sampling bias).
    Negatives: uniform over cross-component ad pairs. ``negative_pool``
    optionally narrows the negative universe to the given pairs (e.g. the
    blocking candidates, so training negatives match the population the
    classifier will actually score); ``same_city_negatives`` (ad id ->
    city) restricts negatives to pairs posted in the same city.

    Returns up to n_pos + n_neg samples; short counts warn. Raises when the
    corpus has no eligible positive pair at all.
    """
    if n_pos < 0 or n_neg < 0:
        raise ValueError("n_pos/n_neg must be non-negative")
    rng = random.Random(rng_seed)

    eligible_pos: list[tuple[str, str, str]] = []
    for comp_id, ids in sorted(components.members.items()):
        for i, j in itertools.combinations(ids, 2):
            if _eligible_positive(graph, i, j):
                eligible_pos.append((i, j, comp_id))
    if not eligible_pos and n_pos > 0:
        raise ValueError(
            "no eligible positive pairs: every within-component pair shares a "
            "phone, so the disjoint-phone sampling bias leaves nothing to draw"
        )

    samples: list[PairSample] = []
    if n_pos > 0:
        if n_pos < len(eligible_pos):
            chosen = rng.sample(eligible_pos, n_pos)
        else:
            chosen = list(eligible_pos)
            if n_pos > len(eligible_pos):
                warnings.warn(
                    f"requested {n_pos} positives, only {len(eligible_pos)} eligible",
                    stacklevel=2,
                )
        for i, j, comp in chosen:
            samples.append(PairSample(i, j, "positive", (comp,)))

    if n_neg > 0:
        comp_ids = sorted(components.members)
        if len(comp_ids) < 2:
            warnings.warn("fewer than two components: no negatives available", stacklevel=2)
            return samples
        all_ads = sorted(components.component_of)

        def neg_ok(i: str, j: str) -> bool:
            if components.component_of[i] == components.component_of[j]:
                return False
            if same_city_negatives is not None:
                return same_city_negatives.get(i) == same_city_negatives.get(j)
            return True

        total_pairs = len(all_ads) * (len(all_ads) - 1) // 2
        picked: set[tuple[str, str]] = set()
        if negative_pool is not None:
            pool = sorted({
                (i, j) if i < j else (j, i)
                for i, j in negative_pool
                if i in components.component_of and j in components.component_of
                and neg_ok(*((i, j) if i < j else (j, i)))
            })
            take = min(n_neg, len(pool))
            if take < n_neg:
                warnings.warn(f"requested {n_neg} negatives, only {len(pool)} eligible in pool", stacklevel=2)
            for i, j in (rng.sample(pool, take) if take < len(pool) else pool):
                picked.add((i, j))
        elif total_pairs <= 200_000:
            pool = [
                (i, j)
                for i, j in itertools.combinations(all_ads, 2)
                if neg_ok(i, j)
            ]
            take = min(n_neg, len(pool))
            if take < n_neg:
                warnings.warn(f"requested {n_neg} negatives, only {len(pool)} available", stacklevel=2)
            for i, j in (rng.sample(pool, take) if take < len(pool) else pool):
                picked.add((i, j))
        else:
            attempts = 0
            limit = 50 * n_neg + 1000
            while len(picked) < n_neg and attempts < limit:
                attempts += 1
                i, j = rng.sample(all_ads, 2)
                if i > j:
                    i, j = j, i
                if (i, j) not in picked and neg_ok(i, j):
                    picked.add((i, j))
            if len(picked) < n_neg:
                warnings.warn(
                    f"negative sampling exhausted after {attempts} attempts; "
                    f"got {len(picked)} of {n_neg}",
                    stacklevel=2,
                )
        for i, j in sorted(picked):
            samples.append(PairSample(
                i, j, "negative",
                (components.component_of[i], components.component_of[j]),
            ))
    return samples


def jaccard_unigram(unigrams_i, unigrams_j) -> float:
    """Jaccard similarity of two unigram collections (multiplicity ignored).

    Both empty counts as identical: 1.0.
    """
    set_i, set_j = set(unigrams_i), set(unigrams_j)
    if not set_i and not set_j:
        return 1.0
    return len(set_i & set_j) / len(set_i | set_j)


def similarity_histogram(similarities, n_bins: int = 20) -> list[tuple[float, float, int]]:
    """Fixed-width histogram over [0, 1]; rows are (bin_lo, bin_hi, count).

    A similarity of exactly 1.0 lands in the last bin. Counts sum to the
    input length.
    """
    sims = list(similarities)
    if not sims:
        raise ValueError("similarity_histogram needs at least one value")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    counts = [0] * n_bins
    for s in sims:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"similarity {s} outside [0, 1]")
        idx = min(int(s * n_bins), n_bins - 1)
        counts[idx] += 1
    return [(b / n_bins, (b + 1) / n_bins, counts[b]) for b in range(n_bins)]
