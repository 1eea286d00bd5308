"""Output checks for one adlink run, computed apart from the program.

Each check reads the run's artifacts and the generated corpus and returns a
list of failure messages (empty when it passes). None of them calls into
``adlink``: the components, pair counts and LCS lengths are recomputed here
by other means than the program uses, so a fault in the program cannot
hide in a shared helper.
"""

from __future__ import annotations

import csv
import json
import random
from collections import defaultdict
from functools import cached_property
from itertools import combinations
from pathlib import Path

# Texts are clipped to this many codepoints before the LCS, as the program does.
LCS_MAX_CHARS = 2000
LCS_SAMPLE = 200


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _pairs_within(groups) -> set[tuple[str, str]]:
    return {(a, b) for ids in groups for a, b in combinations(sorted(ids), 2)}


class Artifacts:
    """Lazily parsed artifacts of one run directory plus its planted corpus.

    ``corpus`` holds the generated ads as dicts with ``id``, ``text`` and
    ``source_id``.
    """

    def __init__(self, run_dir: Path, corpus: list[dict]):
        self.run_dir = Path(run_dir)
        self.corpus = corpus

    def _json(self, name: str):
        with open(self.run_dir / name, encoding="utf-8") as fh:
            return json.load(fh)

    @cached_property
    def components(self) -> list[list[str]]:
        with open(self.run_dir / "components.jsonl", encoding="utf-8") as fh:
            return [json.loads(line)["members"] for line in fh if line.strip()]

    @cached_property
    def edges(self) -> list[tuple[str, str, str, float]]:
        _, rows = _csv_rows(self.run_dir / "edges.csv")
        return [(i, j, kind, float(s)) for i, j, kind, s in rows]

    @cached_property
    def candidates(self) -> list[tuple[str, str]]:
        _, rows = _csv_rows(self.run_dir / "candidates.csv")
        return [(i, j) for i, j in rows]

    @cached_property
    def threshold(self) -> float:
        return float(self._json("threshold.json")["threshold"])

    @cached_property
    def report(self) -> dict:
        return self._json("report.json")

    @cached_property
    def source_groups(self) -> list[list[str]]:
        groups: dict[str, list[str]] = defaultdict(list)
        for ad in self.corpus:
            if ad["source_id"]:
                groups[ad["source_id"]].append(ad["id"])
        return list(groups.values())

    @cached_property
    def truth_pairs(self) -> set[tuple[str, str]]:
        return _pairs_within(self.source_groups)

    def pairwise_f1(self) -> float:
        """Co-source pair F1 of the resolved components, by enumerating pairs."""
        labeled = {ad["id"] for ad in self.corpus if ad["source_id"]}
        predicted = _pairs_within([i for i in m if i in labeled] for m in self.components)
        matching = len(predicted & self.truth_pairs)
        if not predicted or not matching:
            return 0.0
        precision = matching / len(predicted)
        recall = matching / len(self.truth_pairs)
        return 2 * precision * recall / (precision + recall)

    def blocking_recall(self) -> float:
        got = {(i, j) if i < j else (j, i) for i, j in self.candidates}
        return len(got & self.truth_pairs) / len(self.truth_pairs)

    def roc_auc(self) -> float:
        """Trapezoid area under ``roc.csv`` in file order."""
        _, rows = _csv_rows(self.run_dir / "roc.csv")
        pts = [(float(f), float(t)) for f, t, _ in rows]
        return sum((f1 - f0) * (t0 + t1) / 2 for (f0, t0), (f1, t1) in zip(pts, pts[1:]))


def check_partition(art: Artifacts) -> list[str]:
    seen: dict[str, int] = defaultdict(int)
    for members in art.components:
        for ad_id in members:
            seen[ad_id] += 1
    ids = {ad["id"] for ad in art.corpus}
    errors = [f"ad {i} is in {n} components" for i, n in sorted(seen.items()) if n != 1]
    errors += [f"ad {i} is in no component" for i in sorted(ids - seen.keys())]
    errors += [f"component member {i} is not a generated ad" for i in sorted(seen.keys() - ids)]
    return errors[:5]


def check_components(art: Artifacts) -> list[str]:
    """BFS over strong edges plus weak edges at or above the threshold."""
    adj: dict[str, list[str]] = defaultdict(list)
    for i, j, kind, score in art.edges:
        if kind == "strong" or score >= art.threshold:
            adj[i].append(j)
            adj[j].append(i)
    seen: set[str] = set()
    rebuilt = set()
    for ad in art.corpus:
        start = ad["id"]
        if start in seen:
            continue
        seen.add(start)
        comp, frontier = [start], [start]
        while frontier:
            nxt = []
            for node in frontier:
                for other in adj[node]:
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
            comp += nxt
            frontier = nxt
        rebuilt.add(frozenset(comp))
    written = {frozenset(m) for m in art.components}
    if rebuilt == written:
        return []
    return [f"{len(written - rebuilt)} written components are not rebuilt from edges.csv "
            f"at threshold {art.threshold} ({len(rebuilt - written)} rebuilt ones are not written)"]


def check_edges(art: Artifacts) -> list[str]:
    errors = [f"edge {i}-{j} has score {s} outside [0, 1]"
              for i, j, _, s in art.edges if not 0.0 <= s <= 1.0][:3]
    weak = [(i, j) for i, j, kind, _ in art.edges if kind == "weak"]
    cands = art.candidates
    if len(weak) != len(set(weak)) or len(cands) != len(set(cands)):
        errors.append("duplicate weak edges or candidates")
    if set(weak) != set(cands):
        errors.append(f"weak edges and candidates differ: {len(set(weak) - set(cands))} edges "
                      f"not in candidates.csv, {len(set(cands) - set(weak))} candidates not scored")
    return errors


def check_phone(art: Artifacts) -> list[str]:
    comp_of = {i: k for k, members in enumerate(art.components) for i in members}
    by_phone: dict[str, set[int]] = defaultdict(set)
    with open(art.run_dir / "fields.jsonl", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            for phone in obj["fields"]["phones"]:
                by_phone[phone].add(comp_of.get(obj["id"], -1))
    return [f"ads sharing phone {p} span {len(c)} components"
            for p, c in sorted(by_phone.items()) if len(c) > 1][:5]


def check_sweep(art: Artifacts) -> list[str]:
    _, rows = _csv_rows(art.run_dir / "sweep.csv")
    curve = sorted((float(t), int(n), int(lg)) for t, n, lg in rows)
    errors = []
    for (t0, n0, lg0), (t1, n1, lg1) in zip(curve, curve[1:]):
        if lg1 > lg0:
            errors.append(f"largest component grows from {lg0} to {lg1} between {t0} and {t1}")
        if n1 < n0:
            errors.append(f"component count falls from {n0} to {n1} between {t0} and {t1}")
    return errors


def check_totals(art: Artifacts) -> list[str]:
    errors = []
    ours = {"pairwise.f1": art.pairwise_f1(), "blocking_recall": art.blocking_recall()}
    theirs = {"pairwise.f1": (art.report.get("pairwise") or {}).get("f1"),
              "blocking_recall": art.report.get("blocking_recall")}
    for key, value in ours.items():
        if theirs[key] is None or abs(theirs[key] - value) > 1e-9:
            errors.append(f"report.json {key} {theirs[key]} != recomputed {value}")
    return errors


def check_auc(art: Artifacts) -> list[str]:
    reported = art.report.get("match_auc")
    area = art.roc_auc()
    # report.json carries the AUC rounded to six decimals
    if reported is None or abs(reported - area) > 1e-6:
        return [f"report.json match_auc {reported} != area under roc.csv {area}"]
    return []


def lcs_dp(a: str, b: str) -> int:
    """Longest common substring length by the textbook DP,
    ``L[i][j] = L[i-1][j-1] + 1 if a[i] == b[j] else 0``, with each row kept
    as a map of its non-zero cells so that only matching cells are visited."""
    where: dict[str, list[int]] = defaultdict(list)
    for j, cb in enumerate(b):
        where[cb].append(j)
    best = 0
    prev: dict[int, int] = {}
    for ca in a:
        cur = {j: prev.get(j - 1, 0) + 1 for j in where.get(ca, ())}
        if cur:
            best = max(best, max(cur.values()))
        prev = cur
    return best


def lcs_sample(n_rows: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n_rows), min(LCS_SAMPLE, n_rows)))


def check_lcs(art: Artifacts, seed: int) -> list[str]:
    header, rows = _csv_rows(art.run_dir / "features.csv")
    col = header.index("lcs_len")
    text = {ad["id"]: ad["text"][:LCS_MAX_CHARS] for ad in art.corpus}
    errors = []
    for k in lcs_sample(len(rows), seed):
        row = rows[k]
        want = lcs_dp(text[row[0]], text[row[1]])
        if float(row[col]) != want:
            errors.append(f"features.csv row {k} ({row[0]}, {row[1]}): lcs_len {row[col]} != {want}")
    return errors[:5]


# check name -> (pipeline stage whose output it checks, function)
CHECKS = {
    "partition": ("resolve", check_partition),
    "components": ("resolve", check_components),
    "edges": ("resolve", check_edges),
    "phone": ("resolve", check_phone),
    "sweep": ("sweep", check_sweep),
    "totals": ("eval", check_totals),
    "auc": ("train", check_auc),
    "lcs": ("features", check_lcs),
}


def run_checks(art: Artifacts, seed: int) -> dict[str, list[str]]:
    """Check name -> failure messages, for every check."""
    out = {}
    for name, (_, func) in CHECKS.items():
        try:
            out[name] = func(art, seed) if name == "lcs" else func(art)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            out[name] = [f"{type(exc).__name__}: {exc}"]
    return out
