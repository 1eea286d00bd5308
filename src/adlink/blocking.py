"""Candidate-pair generation by rare-key blocking.

Keys are unigrams, bigrams, and image hashes whose document frequency sits
in [2, rarity_threshold]. Everything more common is too weak to suggest a
link; singletons pair nothing. Phones are deliberately not block keys:
shared-phone links are added unconditionally at resolution time, so
blocking only has to surface weak-link candidates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .corpus import Ad
from .extract import tokenize

__all__ = ["BlockIndex", "build_blocks", "candidate_pairs", "blocking_recall"]

KINDS = ("unigram", "bigram", "image")


@dataclass
class BlockIndex:
    blocks: dict[tuple[str, str], frozenset[str]]
    df: dict[str, Counter]  # kind -> value -> document frequency
    n_ads: int
    rarity_threshold: int
    max_block_size: int
    n_dropped: int = 0

    def block_counts(self) -> dict[str, int]:
        counts = {kind: 0 for kind in KINDS}
        for kind, _ in self.blocks:
            counts[kind] += 1
        return counts


def _bigram_key(pair: tuple[str, str]) -> str:
    return f"{pair[0]} {pair[1]}"


def build_blocks(ads: list[Ad], rarity_threshold: int = 10,
                 max_block_size: int = 200) -> BlockIndex:
    """Index ads by rare keys."""
    if rarity_threshold < 2:
        raise ValueError("rarity_threshold must be >= 2")
    if max_block_size < 2:
        raise ValueError("max_block_size must be >= 2")

    keys_by_ad: dict[str, list[tuple[str, str]]] = {}
    df: dict[str, Counter] = {kind: Counter() for kind in KINDS}
    for ad in ads:
        uni_counter, bi_counter = tokenize(ad.text)
        unigrams, bigrams = set(uni_counter), set(bi_counter)
        keys = [("unigram", u) for u in unigrams]
        keys += [("bigram", _bigram_key(b)) for b in bigrams]
        keys += [("image", h) for h in ad.image_hashes]
        keys_by_ad[ad.id] = keys
        for kind, value in keys:
            df[kind][value] += 1

    blocks: dict[tuple[str, str], set[str]] = {}
    for ad in ads:
        for kind, value in keys_by_ad[ad.id]:
            if 2 <= df[kind][value] <= rarity_threshold:
                blocks.setdefault((kind, value), set()).add(ad.id)

    index = BlockIndex(
        blocks={},
        df=df,
        n_ads=len(ads),
        rarity_threshold=rarity_threshold,
        max_block_size=max_block_size,
    )
    for key, members in blocks.items():
        if len(members) > max_block_size:
            index.n_dropped += 1
            continue
        index.blocks[key] = frozenset(members)
    return index


def candidate_pairs(index: BlockIndex) -> list[tuple[str, str]]:
    """Within-block pairs, globally deduplicated and sorted."""
    pairs: set[tuple[str, str]] = set()
    for members in index.blocks.values():
        ordered = sorted(members)
        for i, j in itertools.combinations(ordered, 2):
            pairs.add((i, j))
    return sorted(pairs)


def reduction_ratio(index: BlockIndex, n_candidates: int) -> float:
    """Candidate count as a fraction of all n(n-1)/2 pairs."""
    total = index.n_ads * (index.n_ads - 1) // 2
    return n_candidates / total if total else 0.0


def blocking_recall(candidates, truth_pairs) -> float:
    """Fraction of ground-truth pairs surfaced by blocking."""
    truth = {tuple(sorted(p)) for p in truth_pairs}
    if not truth:
        raise ValueError("blocking_recall needs a non-empty truth set")
    got = {tuple(sorted(p)) for p in candidates}
    return len(got & truth) / len(truth)
