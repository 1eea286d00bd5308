"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs the traced pipeline once on the ``many-small`` workload (about 20 s),
checks that every output check passes on those artifacts and that each
stage span agrees with the program's own stage timer, then shows that each
check fails on a copy of the artifacts corrupted in the way it guards
against.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

WORKLOAD = "many-small"


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    comment = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comment, rows


def _write_csv(path: Path, comment: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text("".join(c + "\n" for c in comment) + buf.getvalue(), encoding="utf-8")


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines() if ln]


def _write_jsonl(path: Path, objs: list[dict]) -> None:
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        seed = run.WORKLOADS[WORKLOAD].seed
        cls.seed = seed
        work = run.OUT / "selftest"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        corpus_path = work / "corpus.jsonl"
        cls.corpus, cls.digest = run.make_corpus(WORKLOAD, corpus_path)
        cls.round = run.traced_round(WORKLOAD, seed, work, cls.corpus, corpus_path)
        cls.run_dir = work / "run"
        cls.tmp = Path(tempfile.mkdtemp(dir=work))

    def corrupted(self) -> Path:
        """A fresh copy of the real run's artifacts."""
        dst = Path(tempfile.mkdtemp(dir=self.tmp)) / "run"
        shutil.copytree(self.run_dir, dst)
        return dst

    def failures(self, run_dir: Path, name: str) -> list[str]:
        return checks.run_checks(checks.Artifacts(run_dir, self.corpus), self.seed)[name]

    # --- the real run -------------------------------------------------------

    def test_real_run_passes_every_check_and_stage_spans_agree(self):
        self.assertEqual(self.round.problems, [])
        self.assertEqual(self.round.failed, 0)
        self.assertEqual(self.round.attempted, len(run.PIPELINE_STAGES))

    def test_every_per_layer_metric_is_reported(self):
        self.assertEqual(set(self.round.metrics), set(run.metric_units("per_layer")))

    def test_stage_tolerance_flags_a_disagreement(self):
        own = {s: {"seconds": 1.0} for s in run.PIPELINE_STAGES}
        spans = {f"cli.stage.{s}": 1.0 for s in run.PIPELINE_STAGES}
        self.assertEqual(run.stage_disagreements(spans, own), [])
        spans["cli.stage.train"] = 1.2
        self.assertEqual(len(run.stage_disagreements(spans, own)), 1)

    def test_pin(self):
        run.check_pin(WORKLOAD, self.digest)
        with self.assertRaises(run.BenchError):
            run.check_pin(WORKLOAD, "0" * 64)

    # --- each check fails on its corruption --------------------------------

    def test_partition_duplicate_ad(self):
        d = self.corrupted()
        comps = _read_jsonl(d / "components.jsonl")
        comps[1]["members"].append(comps[0]["members"][0])
        _write_jsonl(d / "components.jsonl", comps)
        self.assertTrue(self.failures(d, "partition"))

    def test_partition_missing_ad(self):
        d = self.corrupted()
        comps = _read_jsonl(d / "components.jsonl")
        big = max(comps, key=lambda c: len(c["members"]))
        big["members"].pop()
        _write_jsonl(d / "components.jsonl", comps)
        self.assertTrue(self.failures(d, "partition"))

    def test_components_move_one_ad(self):
        d = self.corrupted()
        comps = _read_jsonl(d / "components.jsonl")
        big = max(comps, key=lambda c: len(c["members"]))
        other = next(c for c in comps if c is not big)
        other["members"].append(big["members"].pop())
        _write_jsonl(d / "components.jsonl", comps)
        self.assertEqual(self.failures(d, "partition"), [])
        self.assertTrue(self.failures(d, "components"))

    def test_edges_drop_co_source_candidate(self):
        d = self.corrupted()
        source = {ad["id"]: ad["source_id"] for ad in self.corpus}
        comment, rows = _read_csv(d / "candidates.csv")
        k = next(k for k, (i, j) in enumerate(rows[1:], 1) if source[i] == source[j])
        del rows[k]
        _write_csv(d / "candidates.csv", comment, rows)
        self.assertTrue(self.failures(d, "edges"))
        self.assertTrue(self.failures(d, "totals"))  # blocking recall no longer matches

    def test_edges_delete_admitted_weak_edge(self):
        d = self.corrupted()
        threshold = json.loads((d / "threshold.json").read_text())["threshold"]
        comment, rows = _read_csv(d / "edges.csv")
        k = next(k for k, r in enumerate(rows[1:], 1)
                 if r[2] == "weak" and float(r[3]) >= threshold)
        del rows[k]
        _write_csv(d / "edges.csv", comment, rows)
        self.assertTrue(self.failures(d, "edges"))

    def test_edges_score_out_of_range(self):
        d = self.corrupted()
        comment, rows = _read_csv(d / "edges.csv")
        k = next(k for k, r in enumerate(rows[1:], 1) if r[2] == "weak" and float(r[3]) < 0.5)
        rows[k][3] = "1.5"
        _write_csv(d / "edges.csv", comment, rows)
        self.assertTrue(self.failures(d, "edges"))

    def test_phone_shared_across_components(self):
        d = self.corrupted()
        comp_of = {i: c["component"] for c in _read_jsonl(d / "components.jsonl")
                   for i in c["members"]}
        fields = _read_jsonl(d / "fields.jsonl")
        donor = next(f for f in fields if f["fields"]["phones"])
        taker = next(f for f in fields if comp_of[f["id"]] != comp_of[donor["id"]])
        taker["fields"]["phones"].append(donor["fields"]["phones"][0])
        _write_jsonl(d / "fields.jsonl", fields)
        self.assertTrue(self.failures(d, "phone"))

    def test_sweep_largest_component_grows(self):
        d = self.corrupted()
        comment, rows = _read_csv(d / "sweep.csv")
        rows[-1][2] = str(int(rows[-2][2]) + 1)
        _write_csv(d / "sweep.csv", comment, rows)
        self.assertTrue(self.failures(d, "sweep"))

    def test_totals_f1_differs(self):
        d = self.corrupted()
        report = json.loads((d / "report.json").read_text())
        report["pairwise"]["f1"] -= 0.01
        (d / "report.json").write_text(json.dumps(report))
        self.assertTrue(self.failures(d, "totals"))

    def test_auc_roc_point_moved(self):
        d = self.corrupted()
        comment, rows = _read_csv(d / "roc.csv")
        mid = len(rows) // 2
        rows[mid][1] = str(float(rows[mid][1]) * 0.5)
        _write_csv(d / "roc.csv", comment, rows)
        self.assertTrue(self.failures(d, "auc"))

    def test_lcs_one_value_changed(self):
        d = self.corrupted()
        comment, rows = _read_csv(d / "features.csv")
        col = rows[0].index("lcs_len")
        k = checks.lcs_sample(len(rows) - 1, self.seed)[0] + 1
        rows[k][col] = str(float(rows[k][col]) + 1)
        _write_csv(d / "features.csv", comment, rows)
        self.assertTrue(self.failures(d, "lcs"))

    def test_lcs_dp_matches_dense_table(self):
        def dense(a, b):
            table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i, ca in enumerate(a, 1):
                for j, cb in enumerate(b, 1):
                    table[i][j] = table[i - 1][j - 1] + 1 if ca == cb else 0
            return max(max(row) for row in table)

        cases = [("", ""), ("abc", ""), ("abcde", "xbcdy"), ("aaaa", "aa"),
                 ("x😀😀y", "😀😀"), ("call 555 1234 now", "555-1234 call now")]
        for a, b in cases:
            self.assertEqual(checks.lcs_dp(a, b), dense(a, b), (a, b))


if __name__ == "__main__":
    unittest.main()
