"""Pairwise feature vectors for the match classifier.

The schema is fixed-order and versioned; every feature is symmetric in the
pair, so per-ad scalars enter as (min, max) and per-ad presence flags as
(both, either). ``PairFeaturizer`` derives the per-ad values once, as
columns indexed by ad, and :meth:`PairFeaturizer.matrix` computes a batch of
pairs column by column: scalar features are numpy gathers, set features come
from one pass of set intersections, and the LCS column from suffix automata.

LCS: for each ad on the automaton side of a batch, a suffix automaton of its
text (Blumer et al. 1985, "The smallest automaton recognizing the subwords
of a text"). Its suffix-link chase is folded into complete transition
tables, the way Aho & Corasick (1975) fold their failure function, so each
(state, symbol) cell holds the next state and the longest match length
after reading the symbol. Walking the partner text then takes one table
lookup per character, and a batch of pairs walks in lockstep. The lengths
are exact: the tests check them against a rolling-row DP and against
substring enumeration.
"""

from __future__ import annotations

import time
from itertools import chain

import numpy as np

from .corpus import Ad
from .extract import FieldSet, special_char_count, tokenize

__all__ = [
    "FEATURE_NAMES",
    "SCHEMA_VERSION",
    "longest_common_substring",
    "compute_pair_features",
    "PairFeaturizer",
]

SCHEMA_VERSION = "pair/1"

FEATURE_NAMES = (
    "same_state",
    "same_city",
    "special_chars_min",
    "special_chars_max",
    "lcs_len",
    "unique_tokens",
    "jaccard_unigram",
    "time_diff_seconds",
    "same_day",
    "shared_images",
    "ethnicity_flag_min",
    "ethnicity_flag_max",
    "cost_flag_min",
    "cost_flag_max",
    "restriction_flag_min",
    "restriction_flag_max",
    "name_flag_min",
    "name_flag_max",
    "shared_name",
    "shared_cost",
)

# Texts are truncated before the LCS scan; quadratic cost needs a lid.
LCS_MAX_CHARS = 2000

# The completed transition tables built at once stay within this many bytes;
# an ad whose automaton alone is larger gets a chunk to itself.
LCS_TABLE_BYTES = 1 << 20

# Fail length of a direct edge: above any match length, so a walk step
# min(l + 1, fail) extends the match along a direct edge.
_DIRECT = np.iinfo(np.int16).max

# The walk gathers its texts' codes this many (row, step) cells at a time.
_WALK_BLOCK = 1 << 14


def longest_common_substring(a: str, b: str, max_chars: int = LCS_MAX_CHARS) -> int:
    """Length of the longest contiguous shared substring, codepoint-wise."""
    return int(_Texts([a[:max_chars], b[:max_chars]]).lcs(np.array([0]), np.array([1]))[0])


# --- suffix-automaton LCS ---------------------------------------------------------

def _suffix_automaton(seq) -> tuple[list[int], list[int], list[dict]]:
    """Blumer et al.'s online construction over a sequence of symbols.

    Returns per state its longest length, its suffix link (-1 at the root,
    state 0) and its direct transitions ``{symbol: state}``.
    """
    length, link, trans = [0], [-1], [{}]
    last = 0
    for c in seq:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        trans.append({})
        p = last
        while p >= 0 and c not in trans[p]:
            trans[p][c] = cur
            p = link[p]
        if p >= 0:
            q = trans[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:  # split q: the clone takes the shorter strings of its class
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(trans[q].copy())
                while p >= 0 and trans[p].get(c) == q:
                    trans[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    return length, link, trans


def _table_dtype(n_states: int):
    return np.int16 if n_states <= np.iinfo(np.int16).max else np.int32


def _table_bytes(n_states: int, width: int) -> int:
    return n_states * width * 2 * np.dtype(_table_dtype(n_states)).itemsize


class _Automata:
    """Completed transition tables of several suffix automata, one state space.

    ``table[s, c]`` holds the state after reading symbol ``c`` in state
    ``s`` and the fail length: the match length on the suffix-link path,
    or ``_DIRECT`` when ``s`` has an edge on ``c``. The k-th automaton
    starts in state k.
    """

    def __init__(self):
        self.n_states = 0
        self.sizes: list[int] = []
        # per automaton, with its own state ids (below 2 * LCS_MAX_CHARS, so int16)
        self.length: list[np.ndarray] = []
        self.link: list[np.ndarray] = []
        self.degree: list[np.ndarray] = []
        self.symbol: list[np.ndarray] = []
        self.target: list[np.ndarray] = []

    def add(self, sam: tuple[list[int], list[int], list[dict]]) -> None:
        length, link, trans = sam
        self.n_states += len(length)
        self.sizes.append(len(length))
        self.length.append(np.array(length, dtype=np.int16))
        self.link.append(np.array(link, dtype=np.int16))
        self.degree.append(np.fromiter(map(len, trans), dtype=np.int64, count=len(trans)))
        self.symbol.append(np.fromiter(chain.from_iterable(trans), dtype=np.int64))
        self.target.append(np.fromiter(chain.from_iterable(map(dict.values, trans)), dtype=np.int16))

    def complete(self, column: np.ndarray, width: int) -> np.ndarray:
        """The ``(states, width, 2)`` table: next state, then fail length.

        ``column`` maps each symbol code to its column of the table.

        States are renumbered by depth in the suffix-link tree, so each level
        is a block of rows that inherits the rows of the level above.
        """
        n = self.n_states
        sizes = np.array(self.sizes, dtype=np.int64)
        roots = np.cumsum(sizes) - sizes
        offset = np.repeat(roots, sizes)
        link = np.concatenate(self.link) + offset
        link[roots] = roots
        depth = np.zeros(n, dtype=np.int16)
        up = np.arange(n)
        while True:
            nxt = link[up]
            moved = nxt != up
            if not moved.any():
                break
            depth += moved
            up = nxt
        order = np.argsort(depth, kind="stable")  # the roots first, in automaton order
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        level_end = np.cumsum(np.bincount(depth))
        parent = rank[link[order]]
        dtype = _table_dtype(n)
        # a direct edge of the parent ends a match of the parent's length + 1
        limit = (np.concatenate(self.length).astype(dtype)[order] + 1)[parent]

        # edges regrouped by source in the new state order, as (target, _DIRECT) cells
        old_degree = np.concatenate(self.degree)
        degree = old_degree[order]
        edge_end = np.cumsum(degree)
        edge_order = np.repeat((np.cumsum(old_degree) - old_degree)[order] - (edge_end - degree),
                               degree)
        edge_order += np.arange(len(edge_order))
        src = np.repeat(np.arange(n), degree)
        symbol = column[np.concatenate(self.symbol)[edge_order]]
        target = np.empty((len(src), 2), dtype=dtype)
        target[:, 0] = rank[np.concatenate(self.target)[edge_order] + np.repeat(offset[order], degree)]
        target[:, 1] = _DIRECT
        level_edges = np.append(0, edge_end)[level_end]

        table = np.empty((n, width, 2), dtype=dtype)
        table[:len(roots), :, 0] = np.arange(len(roots))[:, None]
        table[:len(roots), :, 1] = 0
        start = edge_start = 0
        for end, e_end in zip(level_end, level_edges):
            if start:  # inherit the link's row, rewriting its direct edges to fail edges
                block = table[start:end]
                # from the rows above only: a source overlapping `out` would be copied
                np.take(table[:start], parent[start:end], axis=0, out=block, mode="clip")
                np.minimum(block[:, :, 1], limit[start:end, None], out=block[:, :, 1])
            edges = slice(edge_start, e_end)
            table[src[edges], symbol[edges]] = target[edges]
            start, edge_start = end, e_end
        return table


def _walk(table: np.ndarray, column: np.ndarray, starts: np.ndarray, codes: np.ndarray,
          text_start: np.ndarray, text_len: np.ndarray) -> np.ndarray:
    """Longest match of each text against its automaton, all texts in lockstep.

    Row k walks ``codes[text_start[k]:text_start[k] + text_len[k]]``, each
    code read in table column ``column[code]``, from state ``starts[k]``;
    rows must be sorted by ``text_len``, longest first, so the rows still
    walking are always a prefix.
    """
    n = len(starts)
    width = table.shape[1]
    # both halves of a cell in one lookup: view each (next, fail) pair as one wider int
    wide = np.int32 if table.dtype == np.int16 else np.int64
    cells = table.reshape(-1).view(wide)
    looked = np.empty(n, dtype=wide)
    halves = looked.view(table.dtype)
    state, fail = halves[0::2], halves[1::2]
    state[:] = starts
    match = np.zeros(n, dtype=table.dtype)
    best = np.zeros(n, dtype=table.dtype)
    cell = np.empty(n, dtype=np.intp)
    steps = int(text_len[0])
    walking = (n - np.searchsorted(text_len[::-1], np.arange(steps), side="right")).tolist()
    t = k = 0
    while t < steps:
        # the table columns of the next steps' codes, one row per step; a text
        # that ends within the block reads on into the next, unused
        block = np.arange(t, min(steps, t + max(1, _WALK_BLOCK // walking[t])))
        cols = column.take(codes.take(text_start[:walking[t]] + block[:, None], mode="clip"))
        for col in cols:
            if walking[t] != k:
                k = walking[t]
                s_, f_, m_, b_, c_, o_ = state[:k], fail[:k], match[:k], best[:k], cell[:k], looked[:k]
            np.multiply(s_, width, out=c_, dtype=np.intp)
            np.add(c_, col[:k], out=c_)
            cells.take(c_, out=o_)
            m_ += 1
            np.minimum(m_, f_, out=m_)
            np.maximum(b_, m_, out=b_)
            t += 1
    return best


class _Texts:
    """Texts as dense symbol codes, back to back, and the LCS of pairs of them."""

    def __init__(self, texts: list[str]):
        alphabet = np.array(sorted(map(ord, set().union(*texts))), dtype=np.int64)
        self._width = len(alphabet)
        self._text_len = np.array([len(t) for t in texts], dtype=np.int64)
        self._text_start = np.cumsum(self._text_len) - self._text_len
        dtype = np.uint8 if len(alphabet) <= 256 else np.uint16 if len(alphabet) <= 65536 else np.uint32
        code_of = np.zeros(alphabet[-1] + 1 if len(alphabet) else 0, dtype=dtype)
        code_of[alphabet] = np.arange(len(alphabet))
        self._codes = np.empty(int(self._text_len.sum()), dtype=dtype)
        for text, start, n in zip(texts, self._text_start.tolist(), self._text_len.tolist()):
            code_of.take(np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32),
                         out=self._codes[start:start + n])

    def lcs(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """LCS length of each pair ``(I[k], J[k])`` of text indices."""
        out = np.zeros(len(I), dtype=np.int64)
        if len(I) == 0 or self._width == 0:
            return out
        # the text that appears more often in this call is the automaton side
        count = np.bincount(np.concatenate([I, J]))
        count_i, count_j = count[I], count[J]
        swap = (count_j > count_i) | ((count_j == count_i) & (J < I))
        owner = np.where(swap, J, I)
        partner = np.where(swap, I, J)
        # a chunk walks as many steps as its longest partner text, so the
        # automata go into chunks in order of their longest partner
        longest = np.zeros(len(self._text_len), dtype=np.int64)
        np.maximum.at(longest, owner, self._text_len[partner])
        order = np.lexsort((owner, -longest[owner]))
        owned = owner[order]
        first = np.flatnonzero(np.diff(owned, prepend=-1, append=-1))  # each owner's rows start
        owners = owned[first[:-1]]

        start = 0
        chunk = _Automata()
        present: set[int] = set()  # the symbols of the chunk's texts
        spans = zip(self._text_start[owners].tolist(), self._text_len[owners].tolist())
        for k, (text_start, text_len) in enumerate(spans):
            text = self._codes[text_start:text_start + text_len].tolist()
            sam = _suffix_automaton(text)
            grown = present.union(text)
            if chunk.sizes and _table_bytes(chunk.n_states + len(sam[0]),
                                            len(grown) + 1) > LCS_TABLE_BYTES:
                self._score_chunk(chunk, present, order[first[start]:first[k]],
                                  first[start:k + 1], partner, out)
                chunk, start, grown = _Automata(), k, set(text)
            chunk.add(sam)
            present = grown
        self._score_chunk(chunk, present, order[first[start]:], first[start:], partner, out)
        return out

    def _score_chunk(self, chunk: _Automata, present: set[int], rows: np.ndarray,
                     bounds: np.ndarray, partner: np.ndarray, out: np.ndarray) -> None:
        """Walk ``rows``, grouped by automaton at ``bounds``, through ``chunk``.

        The table has a column per symbol of the chunk's texts and one last
        column for every other symbol, which no automaton state has an edge on.
        """
        symbols = np.fromiter(present, dtype=np.intp, count=len(present))
        column = np.full(self._width, len(symbols), dtype=np.intp)
        column[symbols] = np.arange(len(symbols))
        table = chunk.complete(column, len(symbols) + 1)
        starts = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        ads = partner[rows]
        by_len = np.argsort(-self._text_len[ads], kind="stable")
        rows, starts, ads = rows[by_len], starts[by_len], ads[by_len]
        out[rows] = _walk(table, column, starts, self._codes, self._text_start[ads],
                          self._text_len[ads])


# --- per-ad columns -----------------------------------------------------------------

_LCS_COLUMN = FEATURE_NAMES.index("lcs_len")


def _category_codes(values: list[str]) -> np.ndarray:
    """Dense codes of non-empty strings, -1 for empty ones (which match nothing)."""
    index: dict[str, int] = {}
    return np.array([index.setdefault(v, len(index)) if v else -1 for v in values],
                    dtype=np.int64)


def compute_pair_features(ad_i: Ad, ad_j: Ad, fields_i: FieldSet, fields_j: FieldSet) -> np.ndarray:
    """Feature vector for one pair, ordered per FEATURE_NAMES. Symmetric."""
    return PairFeaturizer({0: ad_i, 1: ad_j}, {0: fields_i, 1: fields_j}).features(0, 1)


class PairFeaturizer:
    """Computes pair features from per-ad columns.

    Build once per corpus slice, then call :meth:`matrix` for a batch of
    pairs or :meth:`features` for one. ``timings`` accumulates the seconds
    spent on the LCS column and on the other columns.
    """

    def __init__(self, ads_by_id: dict[str, Ad], fieldsets: dict[str, FieldSet]):
        ads = list(ads_by_id.values())
        fss = [fieldsets.get(ad_id) or FieldSet() for ad_id in ads_by_id]
        self._index = {ad_id: k for k, ad_id in enumerate(ads_by_id)}
        self.timings = {"lcs_s": 0.0, "columns_s": 0.0}

        self._state = _category_codes([ad.state for ad in ads])
        self._city = _category_codes([ad.city for ad in ads])
        self._special = np.array([special_char_count(ad.text) for ad in ads], dtype=np.int64)
        self._posted = np.array([ad.posted_at for ad in ads], dtype=np.int64)
        self._day = self._posted // 86_400  # the UTC calendar day
        # presence flags: ethnicity, cost, restriction, name
        self._flags = np.array([[bool(fs.ethnicities), bool(fs.costs), bool(fs.restrictions),
                                 bool(fs.names)] for fs in fss], dtype=np.float64).reshape(-1, 4)
        self._tokens = [frozenset(tokenize(ad.text)[0]) for ad in ads]
        self._n_tokens = np.array([len(t) for t in self._tokens], dtype=np.int64)
        self._images = [ad.image_hashes for ad in ads]
        self._names = [frozenset(fs.names) for fs in fss]
        self._costs = [frozenset(fs.costs) for fs in fss]

        self._texts = _Texts([ad.text[:LCS_MAX_CHARS] for ad in ads])

    def features(self, id_i, id_j) -> np.ndarray:
        return self.matrix([(id_i, id_j)])[0]

    def matrix(self, pairs) -> np.ndarray:
        """One feature row per pair, in input order."""
        ij = np.fromiter(map(self._index.__getitem__, chain.from_iterable(pairs)),
                         dtype=np.int64).reshape(-1, 2)
        out = np.empty((len(ij), len(FEATURE_NAMES)), dtype=np.float64)
        t0 = time.perf_counter()
        self._columns(ij[:, 0], ij[:, 1], out)
        t1 = time.perf_counter()
        out[:, _LCS_COLUMN] = self._texts.lcs(ij[:, 0], ij[:, 1])
        self.timings["columns_s"] += t1 - t0
        self.timings["lcs_s"] += time.perf_counter() - t1
        return out

    def _columns(self, I: np.ndarray, J: np.ndarray, out: np.ndarray) -> None:
        """Every column but the LCS, in FEATURE_NAMES order."""
        tokens, images, names, costs = self._tokens, self._images, self._names, self._costs
        shared = np.fromiter(chain.from_iterable(
            (len(tokens[i] & tokens[j]), len(images[i] & images[j]),
             not names[i].isdisjoint(names[j]), not costs[i].isdisjoint(costs[j]))
            for i, j in zip(I.tolist(), J.tolist())
        ), dtype=np.int64, count=4 * len(I)).reshape(-1, 4)
        inter = shared[:, 0]
        union = self._n_tokens[I] + self._n_tokens[J] - inter

        state_i, city_i = self._state[I], self._city[I]
        out[:, 0] = (state_i == self._state[J]) & (state_i >= 0)
        out[:, 1] = (city_i == self._city[J]) & (city_i >= 0)
        special_i, special_j = self._special[I], self._special[J]
        out[:, 2] = np.minimum(special_i, special_j)
        out[:, 3] = np.maximum(special_i, special_j)
        out[:, 5] = union
        with np.errstate(invalid="ignore", divide="ignore"):
            out[:, 6] = np.where(union > 0, inter / union, 1.0)  # both empty: identical
        out[:, 7] = np.abs(self._posted[I] - self._posted[J])
        out[:, 8] = self._day[I] == self._day[J]
        out[:, 9] = shared[:, 1]
        flags_i, flags_j = self._flags[I], self._flags[J]
        out[:, 10:18:2] = np.minimum(flags_i, flags_j)
        out[:, 11:18:2] = np.maximum(flags_i, flags_j)
        out[:, 18:20] = shared[:, 2:4]
