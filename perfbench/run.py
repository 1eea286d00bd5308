"""adlink benchmark: pipeline time, memory and resolution quality per workload.

    python3 perfbench/run.py --workload collide-20 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --repin

Run from the root of a source checkout. A run generates the workload's
corpus with ``adlink.corpus`` at the workload's own corpus seed, refuses to
go on unless it matches its sha256 pin in ``pins.json``, and hands the
program only that JSONL and a config file whose ``seed`` is ``--seed`` (it
drives pair sampling, the train/test split and every forest). With
``--trace 0`` the run times one cold ``adlink ingest`` (``setup_s``), then
repeats rounds of ``adlink pipeline`` in a fresh single-threaded process
until ``--seconds`` have passed, at least the workload's ``rounds``;
``pipeline_s`` is the fastest round. With ``--trace 1`` a round runs the
pipeline in this process under :mod:`tracer` and reports per-layer metrics
instead. Every round's outputs go through :mod:`checks`. An operation is one pipeline
stage (plus the set-up ingest); it fails on a non-zero exit or a failed
output check. The last line of standard output is the JSON result.

``--repin`` writes the pins anew after a deliberate change to the generator.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer as tr

# numpy is imported only with adlink, after this: in traced runs here, and in
# every child process, which inherits the environment.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
PINS = HERE / "pins.json"

PIPELINE_STAGES = ("ingest", "extract", "sample", "features", "train", "block",
                   "sweep", "resolve", "clusters", "rules", "eval")
# Every child is killed by then, which keeps a run inside its 180 s limit.
T_START = time.perf_counter()
RUN_LIMIT_S = 170.0
# How the rounds of a run combine into its metric; the rest take the median.
ROUND_REDUCERS = {"pipeline_s": min, "peak_rss_mb": max}
# A stage span may differ from the program's own stage timer by this much:
# the span also covers run_stage's metrics.json write and its summary print,
# and metrics.json rounds to milliseconds.
STAGE_TOL_ABS_S = 0.05
STAGE_TOL_REL = 0.02


@dataclass(frozen=True)
class Workload:
    seed: int  # corpus seed, pinned in pins.json; also the default --seed
    # Rounds a run makes at least. Contention from the shared host only ever
    # slows a round, so the fastest of several rounds on the same inputs is the
    # steadiest reading of the program's own speed (timeit's reasoning).
    rounds: int
    spec: dict = field(default_factory=dict)  # SyntheticSpec overrides
    config: dict = field(default_factory=dict)  # pipeline config overrides


WORKLOADS = {
    # Paper scale, for runs by hand: one pipeline takes 50-80 s here, too long
    # to repeat within a run, so BENCHMARK.json leaves it out.
    "default-2k": Workload(seed=7, rounds=1),
    "collide-20": Workload(seed=11, rounds=2,
                           spec={"n_sources": 20, "phone_collision_rate": 0.05}),
    "many-small": Workload(
        seed=7, rounds=3, spec={"n_sources": 200, "ads_per_source": (4, 12)},
        config={"blocking": {"rarity_threshold": 12}, "cluster": {"min_size": 4}},
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; exits 2 without a result."""


def _import_adlink():
    if not (SRC / "adlink" / "cli.py").is_file():
        raise BenchError(f"no adlink sources under {SRC}: run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import adlink.corpus
    return adlink.corpus


def make_corpus(name: str, path: Path) -> tuple[list[dict], str]:
    """Write the workload's corpus; return its ads as dicts and its sha256."""
    corpus = _import_adlink()
    spec = corpus.SyntheticSpec(rng_seed=WORKLOADS[name].seed, **WORKLOADS[name].spec)
    ads = corpus.generate_synthetic(spec)
    corpus.write_corpus(ads, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return [{"id": a.id, "text": a.text, "source_id": a.source_id} for a in ads], digest


def repin() -> None:
    pins = {}
    work = OUT / "repin"
    work.mkdir(parents=True, exist_ok=True)
    for name, wl in WORKLOADS.items():
        _, digest = make_corpus(name, work / f"{name}.jsonl")
        pins[name] = {"seed": wl.seed, "sha256": digest}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work)
    print(f"wrote {PINS}")


def check_pin(name: str, digest: str) -> None:
    pin = json.loads(PINS.read_text())[name]
    if WORKLOADS[name].seed != pin["seed"] or digest != pin["sha256"]:
        raise BenchError(
            f"{name}: the corpus generated at seed {WORKLOADS[name].seed} has sha256 {digest}, "
            f"not its pin {pin['sha256']} at seed {pin['seed']}. "
            f"adlink.corpus has changed the workload, so its times are not "
            f"comparable with earlier runs. If the change is deliberate, run "
            f"`python3 perfbench/run.py --repin` and commit pins.json."
        )


def write_config(name: str, seed: int, corpus_path: Path, out_dir: Path, path: Path) -> None:
    cfg = {"input": str(corpus_path), "out_dir": str(out_dir), "seed": seed, "threads": 1}
    cfg.update(WORKLOADS[name].config)
    path.write_text(json.dumps(cfg, indent=2) + "\n")


def run_child(argv: list[str], log_path: Path) -> tuple[float, int, float]:
    """Run one program process; return wall seconds, exit code, peak RSS in MiB.

    The peak comes from this child's own rusage (``os.wait4``), not from
    ``RUSAGE_CHILDREN``, which keeps the maximum over all children.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, RUN_LIMIT_S - (t0 - T_START)), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def completed_stages(run_dir: Path) -> set[str]:
    try:
        with open(run_dir / "metrics.json", encoding="utf-8") as fh:
            return set(json.load(fh).get("stages", {}))
    except (OSError, ValueError):
        return set()


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)


def account(rnd: Round, run_dir: Path, rc: int, corpus: list[dict], seed: int):
    """Count the pipeline's stages as operations and run the output checks.

    Returns the checked artifacts, or None when the pipeline did not finish.
    """
    rnd.attempted += len(PIPELINE_STAGES)
    done = completed_stages(run_dir)
    failed = {s for s in PIPELINE_STAGES if s not in done}
    if rc != 0 or failed:
        rnd.failed += len(failed) or len(PIPELINE_STAGES)
        rnd.problems.append(f"pipeline exited {rc}; stages not completed: {sorted(failed)}")
        return None
    art = checks.Artifacts(run_dir, corpus)
    for name, errors in checks.run_checks(art, seed).items():
        if errors:
            failed.add(checks.CHECKS[name][0])
            rnd.problems += [f"check {name}: {e}" for e in errors]
    rnd.failed += len(failed)
    return art


def quality(rnd: Round, art) -> None:
    rnd.metrics["pairwise_f1"] = art.pairwise_f1()
    rnd.metrics["match_auc"] = float(art.report["match_auc"])
    rnd.metrics["blocking_recall"] = art.blocking_recall()


CLI = [sys.executable, "-m", "adlink.cli"]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_round(name: str, seed: int, work: Path, corpus_path: Path) -> Round:
    """The run's one cold ``adlink ingest``: ``setup_s``."""
    rnd = Round(attempted=1)
    setup_dir = fresh_dir(work / "setup")
    write_config(name, seed, corpus_path, setup_dir, work / "setup.json")
    setup_s, rc, _ = run_child(CLI + ["ingest", "--config", str(work / "setup.json")],
                               work / "setup.log")
    if rc != 0 or not (setup_dir / "ads.jsonl").is_file():
        rnd.failed += 1
        rnd.problems.append(f"ingest exited {rc}")
    rnd.metrics["setup_s"] = setup_s
    return rnd


def timed_round(name: str, seed: int, work: Path, corpus: list[dict], corpus_path: Path) -> Round:
    rnd = Round()
    run_dir = fresh_dir(work / "run")
    write_config(name, seed, corpus_path, run_dir, work / "pipeline.json")
    pipeline_s, rc, rss = run_child(CLI + ["pipeline", "--config", str(work / "pipeline.json")],
                                    work / "pipeline.log")
    art = account(rnd, run_dir, rc, corpus, seed)
    rnd.metrics.update(pipeline_s=pipeline_s, peak_rss_mb=rss)
    if art is not None:
        quality(rnd, art)
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "pipeline_s": pipeline_s}) + "\n")
    return rnd


def traced_round(name: str, seed: int, work: Path, corpus: list[dict], corpus_path: Path) -> Round:
    import adlink.cli as cli  # importable once make_corpus has put src on the path

    rnd = Round()
    run_dir = fresh_dir(work / "run")
    write_config(name, seed, corpus_path, run_dir, work / "pipeline.json")

    tracer = tr.Tracer()
    with tr.traced(tracer), open(work / "pipeline.log", "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log):
            t0 = time.perf_counter()
            try:
                rc = cli.main(["pipeline", "--config", str(work / "pipeline.json")])
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                print(f"pipeline raised {type(exc).__name__}: {exc}", file=log)
                rc = 1
            wall = time.perf_counter() - t0
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    art = account(rnd, run_dir, rc, corpus, seed)

    incl, self_s, calls = tracer.totals()
    featurized = tracer.counts.get("pairfeat.pairs_featurized", 0)
    matrix_s = self_s.get("pairfeat.matrix", 0.0)
    special = {
        "cli.artifact_bytes": sum(p.stat().st_size for p in run_dir.iterdir() if p.is_file()),
        "pairfeat.pairs_per_s": featurized / matrix_s if matrix_s else 0.0,
        "trace.wall_s": wall,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": len(tracer.spans) * tr.per_call_overhead(),
    }
    # Metric names follow the span names: stage spans are inclusive, every
    # other `_s` is self time, `_calls` counts spans, the rest are counters.
    for metric in metric_units("per_layer"):
        if metric in special:
            value = special[metric]
        elif metric.startswith("cli.stage."):
            value = incl.get(metric[:-2], 0.0)
        elif metric.endswith("_calls"):
            value = calls.get(metric[:-6], 0)
        elif metric.endswith("_s"):
            value = self_s.get(metric[:-2], 0.0)
        else:
            value = tracer.counts.get(metric, 0)
        rnd.metrics[metric] = value

    if art is not None:
        with open(run_dir / "metrics.json", encoding="utf-8") as fh:
            rnd.problems += stage_disagreements(incl, json.load(fh)["stages"])
    untraced = untraced_median(name, seed)
    if untraced is not None:
        print(f"trace: wall {wall:.2f}s, untraced pipeline_s median {untraced:.2f}s "
              f"in this checkout, overhead {wall - untraced:+.2f}s")
    return rnd


def stage_disagreements(inclusive: dict[str, float], own: dict) -> list[str]:
    """Stages whose span differs from the program's own timer (``metrics.json``)."""
    out = []
    for stage in PIPELINE_STAGES:
        span, sec = inclusive.get(f"cli.stage.{stage}", 0.0), own[stage]["seconds"]
        if abs(span - sec) > STAGE_TOL_ABS_S + STAGE_TOL_REL * sec:
            out.append(f"trace: stage {stage} span {span:.3f}s vs metrics.json {sec:.3f}s")
    return out


def untraced_median(name: str, seed: int) -> float | None:
    try:
        lines = (OUT / "history.jsonl").read_text().splitlines()
    except OSError:
        return None
    times = [r["pipeline_s"] for r in map(json.loads, lines)
             if r["workload"] == name and r["seed"] == seed]
    return statistics.median(times) if times else None


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / name / f"seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    corpus_path = work / "corpus.jsonl"
    corpus, digest = make_corpus(name, corpus_path)
    check_pin(name, digest)

    one_round = traced_round if trace else timed_round
    setup = [] if trace else [setup_round(name, seed, work, corpus_path)]
    rounds: list[Round] = []
    t0 = time.perf_counter()
    while len(rounds) < WORKLOADS[name].rounds or time.perf_counter() - t0 < seconds:
        rounds.append(one_round(name, seed, work, corpus, corpus_path))
    rounds += setup

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(p, file=sys.stderr)
    names = sorted({k for r in rounds for k in r.metrics})
    units = metric_units("end_to_end", "per_layer")
    metrics = {
        k: {"value": ROUND_REDUCERS.get(k, statistics.median)(
                r.metrics[k] for r in rounds if k in r.metrics),
            "unit": units[k]}
        for k in names
    }
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def metric_units(*sections: str) -> dict[str, str]:
    """Metric name -> unit, from the named lists of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for section in sections for m in spec[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="the program's seed (default: the workload's corpus seed)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run rounds for this long (at least the workload's rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true", help="rewrite pins.json and exit")
    args = ap.parse_args(argv)
    try:
        if args.repin:
            repin()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        seed = WORKLOADS[args.workload].seed if args.seed is None else args.seed
        result = run(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
