import random
import string
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlink import pairfeat
from adlink.corpus import Ad
from adlink.extract import FieldSet, extract_fields, special_char_count, tokenize
from adlink.pairfeat import (
    FEATURE_NAMES,
    LCS_MAX_CHARS,
    PairFeaturizer,
    compute_pair_features,
    longest_common_substring,
)
from adlink.surrogate import jaccard_unigram


def lcs_oracle(a: str, b: str) -> int:
    """Substring-enumeration oracle, usable for strings up to ~64 chars."""
    subs_a = {a[i:j] for i in range(len(a)) for j in range(i + 1, len(a) + 1)}
    best = 0
    for s in subs_a:
        if len(s) > best and s in b:
            best = len(s)
    return best


def make_ad(ad_id="x", text="hello world", posted=1456833600, city="miami",
            state="FL", images=(), source=None):
    return Ad(id=ad_id, text=text, posted_at=posted, city=city, state=state,
              image_hashes=frozenset(images), source_id=source)


def features_of(ad_i, ad_j):
    fi = extract_fields(ad_i.text)
    fj = extract_fields(ad_j.text)
    return compute_pair_features(ad_i, ad_j, fi, fj)


def idx(name):
    return FEATURE_NAMES.index(name)


# --- LCS ----------------------------------------------------------------------

def test_lcs_identity():
    assert longest_common_substring("abc", "abc") == 3


def test_lcs_empty():
    assert longest_common_substring("a", "") == 0
    assert longest_common_substring("", "") == 0


def test_lcs_embedded():
    assert longest_common_substring("xxabcyy", "zzabcww") == 3


def test_lcs_unicode_codepoints():
    assert longest_common_substring("ab💋cd", "zz💋cdq") == 3  # "💋cd"


def test_lcs_truncation():
    a = "x" * 100 + "unique"
    b = "y" * 100 + "unique"
    assert longest_common_substring(a, b, max_chars=50) == 0
    assert longest_common_substring(a, b) == 6


@settings(max_examples=150)
@given(
    st.text(alphabet="abcx ", max_size=64),
    st.text(alphabet="abcx ", max_size=64),
)
def test_lcs_matches_enumeration_oracle(a, b):
    expected = lcs_oracle(a, b)
    assert longest_common_substring(a, b) == expected
    assert _lcs_arrays_numpy(_codepoints(a), _codepoints(b)) == expected


@settings(max_examples=60)
@given(st.text(alphabet="abz", max_size=40), st.text(alphabet="abz", max_size=40))
def test_lcs_bounds(a, b):
    n = longest_common_substring(a, b)
    assert 0 <= n <= min(len(a), len(b))
    assert longest_common_substring(a, a) == len(a)


# --- pair features --------------------------------------------------------------

def test_self_pair():
    ad = make_ad(text="hey im candy 23yo in miami tonight", images=("aa", "bb"))
    v = features_of(ad, ad)
    assert v[idx("jaccard_unigram")] == 1.0
    assert v[idx("time_diff_seconds")] == 0.0
    assert v[idx("same_day")] == 1.0
    assert v[idx("lcs_len")] == len(ad.text)
    assert v[idx("shared_images")] == 2.0
    assert v[idx("same_city")] == 1.0 and v[idx("same_state")] == 1.0


def test_disjoint_pair():
    a = make_ad("a", "aaa bbb ccc", state="FL", city="miami")
    b = make_ad("b", "xxx yyy zzz", state="WA", city="seattle")
    v = features_of(a, b)
    assert v[idx("same_state")] == 0.0
    assert v[idx("same_city")] == 0.0
    assert v[idx("jaccard_unigram")] == 0.0


def test_empty_states_do_not_match():
    a = make_ad("a", "hi there", state="", city="")
    b = make_ad("b", "hi there", state="", city="")
    v = features_of(a, b)
    assert v[idx("same_state")] == 0.0
    assert v[idx("same_city")] == 0.0


def test_shared_images_on_seeded_pair(small_corpus, small_fieldsets):
    by_source = {}
    for ad in small_corpus:
        by_source.setdefault(ad.source_id, []).append(ad)
    pair = next(ads for ads in by_source.values() if len(ads) >= 2)[:2]
    v = compute_pair_features(pair[0], pair[1],
                              small_fieldsets[pair[0].id], small_fieldsets[pair[1].id])
    assert v[idx("shared_images")] == len(pair[0].image_hashes & pair[1].image_hashes)


def test_same_day_calendar_semantics():
    # 23:59 UTC vs 00:01 UTC next day: 2 minutes apart but different days
    a = make_ad("a", "x", posted=1456876740)
    b = make_ad("b", "x", posted=1456876860)
    v = features_of(a, b)
    assert v[idx("same_day")] == 0.0
    assert v[idx("time_diff_seconds")] == 120.0


def test_same_day_implies_small_time_diff(small_corpus, small_fieldsets):
    ads = small_corpus[:30]
    fz = PairFeaturizer({a.id: a for a in ads},
                        {a.id: small_fieldsets[a.id] for a in ads})
    for i in range(len(ads) - 1):
        v = fz.features(ads[i].id, ads[i + 1].id)
        assert v[idx("time_diff_seconds")] >= 0.0
        if v[idx("same_day")] == 1.0:
            assert v[idx("time_diff_seconds")] < 172_800


def test_presence_flags_min_max():
    a = make_ad("a", "sexy latina $200/hr im candy")
    b = make_ad("b", "plain text nothing here")
    v = features_of(a, b)
    assert v[idx("ethnicity_flag_min")] == 0.0
    assert v[idx("ethnicity_flag_max")] == 1.0
    assert v[idx("cost_flag_max")] == 1.0
    assert v[idx("name_flag_max")] == 1.0
    assert v[idx("shared_name")] == 0.0


def test_shared_name_and_cost():
    a = make_ad("a", "im candy $200/hr")
    b = make_ad("b", "its candy here $200/hr")
    v = features_of(a, b)
    assert v[idx("shared_name")] == 1.0
    assert v[idx("shared_cost")] == 1.0


ad_strategy = st.builds(
    make_ad,
    ad_id=st.sampled_from(["a", "b"]),
    text=st.text(alphabet=string.ascii_lowercase + " 0123456789$!💋", max_size=80),
    posted=st.integers(min_value=1451606400, max_value=1467331200),
    city=st.sampled_from(["miami", "reno", ""]),
    state=st.sampled_from(["FL", "NV", ""]),
    images=st.sets(st.sampled_from(["h1", "h2", "h3"]), max_size=3).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(ad_strategy, ad_strategy)
def test_symmetry(ad_a, ad_b):
    fa, fb = extract_fields(ad_a.text), extract_fields(ad_b.text)
    v1 = compute_pair_features(ad_a, ad_b, fa, fb)
    v2 = compute_pair_features(ad_b, ad_a, fb, fa)
    assert np.array_equal(v1, v2)
    assert np.all(np.isfinite(v1))


def test_vector_matches_schema_order(small_corpus, small_fieldsets):
    ads = {a.id: a for a in small_corpus[:6]}
    fz = PairFeaturizer(ads, small_fieldsets)
    ids = sorted(ads)
    m = fz.matrix([(ids[0], ids[1]), (ids[2], ids[3])])
    assert m.shape == (2, len(FEATURE_NAMES))
    direct = compute_pair_features(ads[ids[0]], ads[ids[1]],
                                   small_fieldsets[ids[0]], small_fieldsets[ids[1]])
    expected = _pair_vector(_AdView(ads[ids[0]], small_fieldsets[ids[0]]),
                            _AdView(ads[ids[1]], small_fieldsets[ids[1]]))
    assert np.array_equal(m[0], expected)
    assert np.array_equal(direct, expected)


def test_empty_matrix():
    fz = PairFeaturizer({}, {})
    assert fz.matrix([]).shape == (0, len(FEATURE_NAMES))


# --- reference kernels -------------------------------------------------------------
#
# The per-pair feature vector and the rolling-row LCS DP, per pair and
# batched, that PairFeaturizer.matrix and longest_common_substring used before
# their columnar, suffix-automaton form. They are kept here as the oracles the
# columns and the LCS column must equal byte for byte.

def _codepoints(text: str, limit: int = LCS_MAX_CHARS) -> np.ndarray:
    clipped = text[:limit]
    return np.fromiter(map(ord, clipped), dtype=np.int32, count=len(clipped))


def _lcs_arrays_numpy(xs: np.ndarray, ys: np.ndarray) -> int:
    """Rolling-row DP over one pair."""
    if len(xs) == 0 or len(ys) == 0:
        return 0
    if len(xs) < len(ys):
        xs, ys = ys, xs  # iterate over the shorter string
    best = 0
    prev = np.zeros(len(xs) + 1, dtype=np.int32)
    cur = np.zeros(len(xs) + 1, dtype=np.int32)
    for ch in ys:
        np.add(prev[:-1], 1, out=cur[1:])
        cur[1:] *= xs == ch
        m = int(cur.max())
        if m > best:
            best = m
        prev, cur = cur, prev
    return best


def _pad_rows(arrays: list[np.ndarray], width: int, fill: int) -> np.ndarray:
    out = np.full((len(arrays), width), fill, dtype=np.int32)
    for row, arr in enumerate(arrays):
        out[row, :len(arr)] = arr
    return out


def _lcs_batch_numpy(xs_seq, ys_seq, batch_size: int = 256) -> np.ndarray:
    """LCS length of each pair ``(xs_seq[k], ys_seq[k])``; equals ``_lcs_arrays_numpy``.

    Each pair is oriented so the DP iterates over its shorter side, pairs are
    sorted by length so a batch carries little padding, and the two sides pad
    with distinct negative sentinels (codepoints are >= 0), so padding never
    matches. The rolling-row DP then runs over a whole ``(batch, L)`` array.
    """
    short, long_ = [], []
    for xs, ys in zip(xs_seq, ys_seq):
        if len(xs) > len(ys):
            xs, ys = ys, xs
        short.append(xs)
        long_.append(ys)
    n_short = np.array([len(s) for s in short], dtype=np.int64)
    n_long = np.array([len(s) for s in long_], dtype=np.int64)
    order = np.lexsort((n_short, n_long))
    out = np.zeros(len(short), dtype=np.int64)
    for start in range(0, len(order), batch_size):
        rows = order[start:start + batch_size]
        width_s = int(n_short[rows].max())
        if width_s == 0:
            continue
        width_l = int(n_long[rows].max())
        xs = _pad_rows([short[k] for k in rows], width_s, -1)
        ys = _pad_rows([long_[k] for k in rows], width_l, -2)
        # DP cells never exceed the shorter length, LCS_MAX_CHARS for clipped texts
        dtype = np.int16 if width_s < np.iinfo(np.int16).max else np.int32
        prev = np.zeros((len(rows), width_l + 1), dtype=dtype)
        cur = np.zeros_like(prev)
        best = np.zeros((len(rows), width_l), dtype=dtype)
        match = np.empty((len(rows), width_l), dtype=bool)
        for col in range(width_s):
            np.equal(ys, xs[:, col:col + 1], out=match)
            np.add(prev[:, :-1], 1, out=cur[:, 1:])
            cur[:, 1:] *= match
            np.maximum(best, cur[:, 1:], out=best)
            prev, cur = cur, prev
        out[rows] = best.max(axis=1)
    return out


def _utc_date(epoch: int):
    return datetime.fromtimestamp(epoch, tz=timezone.utc).date()


class _AdView:
    """Per-ad derived values, computed once."""

    __slots__ = (
        "state", "city", "posted_at", "date", "special", "tokens",
        "codepoints", "images", "names", "costs", "has_ethnicity",
        "has_cost", "has_restriction", "has_name",
    )

    def __init__(self, ad: Ad, fs: FieldSet):
        self.state = ad.state
        self.city = ad.city
        self.posted_at = ad.posted_at
        self.date = _utc_date(ad.posted_at)
        self.special = special_char_count(ad.text)
        self.tokens = frozenset(tokenize(ad.text)[0])
        self.codepoints = _codepoints(ad.text)
        self.images = ad.image_hashes
        self.names = frozenset(fs.names)
        self.costs = frozenset(fs.costs)
        self.has_ethnicity = 1.0 if fs.ethnicities else 0.0
        self.has_cost = 1.0 if fs.costs else 0.0
        self.has_restriction = 1.0 if fs.restrictions else 0.0
        self.has_name = 1.0 if fs.names else 0.0


def _pair_vector(vi: _AdView, vj: _AdView, with_lcs: bool = True) -> np.ndarray:
    out = np.empty(len(FEATURE_NAMES), dtype=np.float64)
    out[0] = 1.0 if (vi.state and vi.state == vj.state) else 0.0
    out[1] = 1.0 if (vi.city and vi.city == vj.city) else 0.0
    out[2] = min(vi.special, vj.special)
    out[3] = max(vi.special, vj.special)
    out[4] = _lcs_arrays_numpy(vi.codepoints, vj.codepoints) if with_lcs else 0.0
    out[5] = len(vi.tokens | vj.tokens)
    out[6] = jaccard_unigram(vi.tokens, vj.tokens)
    out[7] = abs(vi.posted_at - vj.posted_at)
    out[8] = 1.0 if vi.date == vj.date else 0.0
    out[9] = len(vi.images & vj.images)
    out[10] = min(vi.has_ethnicity, vj.has_ethnicity)
    out[11] = max(vi.has_ethnicity, vj.has_ethnicity)
    out[12] = min(vi.has_cost, vj.has_cost)
    out[13] = max(vi.has_cost, vj.has_cost)
    out[14] = min(vi.has_restriction, vj.has_restriction)
    out[15] = max(vi.has_restriction, vj.has_restriction)
    out[16] = min(vi.has_name, vj.has_name)
    out[17] = max(vi.has_name, vj.has_name)
    out[18] = 1.0 if vi.names & vj.names else 0.0
    out[19] = 1.0 if vi.costs & vj.costs else 0.0
    return out


# --- the batched DP oracle ---------------------------------------------------------

# non-BMP characters (emoji, math letters) are single codepoints above U+FFFF
_LCS_ALPHABET = "abc 💋𝒜"


def _long_text(parts):
    """A periodic text longer than LCS_MAX_CHARS, so the scan clips it."""
    unit, extra = parts
    return (unit * (LCS_MAX_CHARS // len(unit) + 2))[:LCS_MAX_CHARS + extra]


lcs_text = st.one_of(
    st.just(""),
    st.text(alphabet=_LCS_ALPHABET, max_size=64),
    st.tuples(st.text(alphabet=_LCS_ALPHABET, min_size=1, max_size=6),
              st.integers(min_value=1, max_value=300)).map(_long_text),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(lcs_text, lcs_text), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=5))
def test_lcs_batch_matches_pairwise_and_oracle(pairs, batch_size):
    xs = [_codepoints(a) for a, _ in pairs]
    ys = [_codepoints(b) for _, b in pairs]
    got = _lcs_batch_numpy(xs, ys, batch_size=batch_size)
    assert got.shape == (len(pairs),)
    for k, (a, b) in enumerate(pairs):
        assert got[k] == _lcs_arrays_numpy(xs[k], ys[k])
        assert got[k] == longest_common_substring(a, b)
        if len(a) <= 64 and len(b) <= 64:
            assert got[k] == lcs_oracle(a, b)


def test_lcs_batch_clipped_texts_reach_the_cap():
    a = _long_text(("ab", 50))
    b = _long_text(("ab", 7))
    got = _lcs_batch_numpy([_codepoints(a), _codepoints("")],
                           [_codepoints(b), _codepoints(a)])
    assert got.tolist() == [LCS_MAX_CHARS, 0]


def test_matrix_equals_rowwise_features(small_corpus, small_fieldsets):
    ads = {a.id: a for a in small_corpus}
    fz = PairFeaturizer(ads, small_fieldsets)
    ids = sorted(ads)
    rng = np.random.default_rng(5)
    pairs = [(ids[i], ids[j]) for i, j in rng.integers(0, len(ids), size=(300, 2))]
    pairs += [(j, i) for i, j in pairs[:150]]  # both orientations of one pair
    lengths = {len(ads[i].text) for pair in pairs for i in pair}
    assert len(lengths) > 50
    views = {i: _AdView(ads[i], small_fieldsets[i]) for i in ids}
    expected = np.vstack([_pair_vector(views[i], views[j]) for i, j in pairs])
    assert np.array_equal(fz.matrix(pairs), expected)
    assert np.array_equal(np.vstack([fz.features(i, j) for i, j in pairs]), expected)


# --- suffix-automaton LCS column -----------------------------------------------------

def text_featurizer(texts):
    """A featurizer over ads ``0..n-1`` with these texts."""
    return PairFeaturizer({k: make_ad(str(k), t) for k, t in enumerate(texts)}, {})


def lcs_column(fz, pairs):
    return fz.matrix(pairs)[:, idx("lcs_len")]


def dp_lcs(a, b):
    return _lcs_arrays_numpy(_codepoints(a), _codepoints(b))


# two symbols: most prefixes split a state, so a walk often crosses a clone
binary_text = st.text(alphabet="ab", max_size=12)

automaton_text = st.one_of(
    binary_text,
    st.just(""),
    st.text(alphabet=_LCS_ALPHABET, max_size=64),
    # runs: a chain of clones, one per length
    st.builds(lambda ch, n: ch * n, st.sampled_from("a💋"), st.integers(1, 80)),
    # periodic and clone-heavy (abcbcbc...)
    st.builds(lambda head, unit, n: head + unit * n, st.text(alphabet="abc", max_size=3),
              st.text(alphabet="abc", min_size=1, max_size=4), st.integers(1, 20)),
    # symbols most other texts lack
    st.text(alphabet="xyz💋", max_size=20),
    # at (extra 0) and over LCS_MAX_CHARS
    st.tuples(st.text(alphabet=_LCS_ALPHABET, min_size=1, max_size=6),
              st.integers(min_value=0, max_value=300)).map(_long_text),
)

# 1: every automaton a chunk of its own; 20,000: a few per chunk
table_budget = st.sampled_from([1, 20_000, pairfeat.LCS_TABLE_BYTES])


def index_pairs(n):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    min_size=1, max_size=16)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(automaton_text, min_size=1, max_size=6),
                 st.lists(binary_text, min_size=1, max_size=6)), st.data())
def test_automaton_lcs_matches_dp_and_enumeration(texts, data):
    pairs = data.draw(index_pairs(len(texts)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairfeat, "LCS_TABLE_BYTES", data.draw(table_budget))
        got = lcs_column(text_featurizer(texts), pairs)
    for (i, j), value in zip(pairs, got):
        a, b = texts[i], texts[j]
        assert value == dp_lcs(a, b)
        if len(a) <= 64 and len(b) <= 64:
            assert value == lcs_oracle(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(automaton_text, min_size=2, max_size=6), st.data())
def test_automaton_lcs_independent_of_orientation_order_and_batches(texts, data):
    pairs = data.draw(index_pairs(len(texts)))
    perm = data.draw(st.permutations(range(len(pairs))))
    cut = data.draw(st.integers(0, len(pairs)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairfeat, "LCS_TABLE_BYTES", data.draw(table_budget))
        fz = text_featurizer(texts)
        whole = lcs_column(fz, pairs)
        flipped = lcs_column(fz, [(j, i) for i, j in pairs])
        shuffled = lcs_column(fz, [pairs[k] for k in perm])
        split = np.concatenate([lcs_column(fz, pairs[:cut]), lcs_column(fz, pairs[cut:])])
    assert np.array_equal(whole, flipped)
    assert np.array_equal(whole[list(perm)], shuffled)
    assert np.array_equal(whole, split)


def spy_tables(monkeypatch):
    """Record the table of every chunk of automata the kernel completes."""
    tables = []
    complete = pairfeat._Automata.complete

    def spy(self, column, width):
        tables.append(complete(self, column, width))
        return tables[-1]

    monkeypatch.setattr(pairfeat._Automata, "complete", spy)
    return tables


def test_automaton_lcs_across_chunks_equals_batched_dp(small_corpus, small_fieldsets, monkeypatch):
    ads = {a.id: a for a in small_corpus}
    ids = sorted(ads)
    rng = np.random.default_rng(11)
    pairs = [(ids[i], ids[j]) for i, j in rng.integers(0, len(ids), size=(400, 2))]
    expected = _lcs_batch_numpy([_codepoints(ads[i].text) for i, _ in pairs],
                                [_codepoints(ads[j].text) for _, j in pairs])
    tables = spy_tables(monkeypatch)
    monkeypatch.setattr(pairfeat, "LCS_TABLE_BYTES", 200_000)
    got = lcs_column(PairFeaturizer(ads, small_fieldsets), pairs)
    assert len(tables) > 5
    assert all(t.nbytes <= 200_000 for t in tables)
    assert np.array_equal(got, expected)


def test_automaton_lcs_wide_alphabet_and_wide_state_ids(monkeypatch):
    rng = random.Random(3)
    # more than 256 symbols: the codes no longer fit a byte
    cjk = [chr(0x4E00 + k) for k in range(300)]
    wide = ["".join(rng.choice(cjk) for _ in range(150)) for _ in range(4)]
    wide[1] = wide[1][:40] + wide[0][30:95] + wide[1][40:]
    # two symbols and long texts: one chunk with more states than int16 ids reach
    binary = ["".join(rng.choice("ab") for _ in range(LCS_MAX_CHARS + 50)) for _ in range(10)]
    binary[3] = binary[2][700:1500] + binary[3]
    tables = spy_tables(monkeypatch)
    for texts in (wide, binary):
        pairs = [(i, j) for i in range(len(texts)) for j in range(i, len(texts), 3)]
        got = lcs_column(text_featurizer(texts), pairs)
        assert got.tolist() == [dp_lcs(texts[i], texts[j]) for i, j in pairs]
    assert text_featurizer(wide)._texts._codes.dtype == np.uint16
    assert tables[-1].dtype == np.int32


def test_automaton_tables_have_a_column_per_symbol_of_their_chunk(monkeypatch):
    texts = ["abcabcab", "xyzzy", "".join(chr(0x4E00 + k) for k in range(300)) + "abc"]
    pairs = [(0, 1), (0, 2), (1, 2), (0, 0)]
    tables = spy_tables(monkeypatch)
    monkeypatch.setattr(pairfeat, "LCS_TABLE_BYTES", 1)  # one automaton per chunk
    got = lcs_column(text_featurizer(texts), pairs)
    assert got.tolist() == [0, 3, 0, 8]
    # automata of "abcabcab" and "xyzzy": a column per own symbol, one for the rest
    assert [t.shape[1] for t in tables] == [4, 4]


def test_automaton_lcs_on_split_states():
    # reading the second "b" of "abb" splits a state; without the clone, "ab"'s
    # state links to it and "bbbbababa" matched 3
    texts = ["abb", "bbbbababa", "abba", "babbba", "abbbbaa", "abab"]
    pairs = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)]
    got = lcs_column(text_featurizer(texts), pairs)
    assert got.tolist() == [lcs_oracle(texts[i], texts[j]) for i, j in pairs]


def test_automaton_lcs_reaches_the_cap_and_ignores_empty_sides():
    a = _long_text(("ab", 50))
    b = _long_text(("ab", 7))
    fz = text_featurizer([a, b, "", "zzz"])
    assert lcs_column(fz, [(0, 1), (1, 0), (0, 2), (2, 2), (2, 3), (3, 0)]).tolist() == \
        [LCS_MAX_CHARS, LCS_MAX_CHARS, 0, 0, 0, 0]


def test_automaton_lcs_reads_lone_surrogates():
    # JSON escapes can put unpaired surrogates into ad text; each is one codepoint
    texts = ["a\ud800b\udfff", "\ud800b\udfffc", "\udfff"]
    pairs = [(0, 1), (1, 2), (0, 2)]
    assert lcs_column(text_featurizer(texts), pairs).tolist() == \
        [dp_lcs(texts[i], texts[j]) for i, j in pairs] == [3, 1, 1]


# --- the other columns against the per-pair reference ------------------------------

def edge_case_ads():
    """Ads with empty state and city, no tokens, no fieldset and no images."""
    return [
        make_ad("e0", "!! ?? ..", state="", city=""),
        make_ad("e1", "- + - x", state="", city=""),
        make_ad("e2", "", state="FL", city=""),
        make_ad("e3", "im candy $200/hr latina", state="", city="miami"),
        make_ad("e4", "plain ad no images", posted=1456876740),
    ]


def test_matrix_equals_reference_vectors(small_corpus, small_fieldsets):
    ads = list(small_corpus) + edge_case_ads()
    # every fifth ad has no fieldset, as do the edge cases
    fieldsets = {a.id: small_fieldsets[a.id] for k, a in enumerate(small_corpus) if k % 5}
    ads_by_id = {a.id: a for a in ads}
    views = {a.id: _AdView(a, fieldsets.get(a.id, FieldSet())) for a in ads}
    ids = sorted(ads_by_id)
    rng = np.random.default_rng(17)
    pairs = [(ids[i], ids[j]) for i, j in rng.integers(0, len(ids), size=(400, 2))]
    edge = [a.id for a in edge_case_ads()]
    pairs += [(i, j) for i in edge for j in edge + ids[:10]]
    pairs += [(j, i) for i, j in pairs]  # both orientations
    got = PairFeaturizer(ads_by_id, fieldsets).matrix(pairs)
    expected = np.vstack([_pair_vector(views[i], views[j]) for i, j in pairs])
    assert got.tobytes() == expected.tobytes()
    # the edge cases are there: both sides without tokens, unmatched empty states
    jac, state = got[:, idx("jaccard_unigram")], got[:, idx("same_state")]
    assert any(j == 1.0 and u == 0.0 for j, u in zip(jac, got[:, idx("unique_tokens")]))
    assert (state[[k for k, (i, j) in enumerate(pairs) if i == j == "e0"]] == 0.0).all()


def test_features_is_one_row_of_matrix(small_corpus, small_fieldsets):
    ads = {a.id: a for a in small_corpus[:20]}
    fz = PairFeaturizer(ads, small_fieldsets)
    ids = sorted(ads)
    for i, j in zip(ids, ids[3:] + ids[:3]):
        assert fz.features(i, j).tobytes() == fz.matrix([(i, j)])[0].tobytes()


def test_matrix_accumulates_layer_timings(small_corpus, small_fieldsets):
    ads = {a.id: a for a in small_corpus[:20]}
    fz = PairFeaturizer(ads, small_fieldsets)
    assert fz.timings == {"lcs_s": 0.0, "columns_s": 0.0}
    ids = sorted(ads)
    fz.matrix(list(zip(ids, ids[1:])))
    first = dict(fz.timings)
    fz.matrix(list(zip(ids, ids[2:])))
    assert all(0.0 < first[k] < fz.timings[k] for k in first)
