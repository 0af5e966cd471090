"""Benchmark for the riskdomains train and classify paths.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

Run from the repository root. Inputs are generated from --seed; the program
under test is the package in src/, run in fresh worker processes that receive
only the generated files. Every output is checked. The last line of stdout
is one JSON object: correct, attempted, failed and metrics (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1). The lines before
it give a readable table and a JSON report with provenance, input
properties, sample counts and, for a traced run, self time per layer and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 5
# Per-call latency depends on the trained vocabulary size V: the same
# program took 14 ms at one seed's V and 20 ms at another's, and twice
# that at V = 40 960 (see README). So one run trains an mlp bundle on each
# of several seeded corpora and measures with every one: window i is a
# fresh process that uses the bundle of corpus i. A window alternates CLI
# classify passes (throughput) with blocks of classify_paragraph calls
# (latency) until its share of --seconds has passed, so that both metrics
# sample the same stretches of time.
TRAIN_CORPORA = 3
LATENCY_BLOCK = {"min_calls": 30, "seconds": 1.6}
SMOKE_BLOCK = {"min_calls": 10, "seconds": 0.0}
# The traced run does a fixed amount of work, so that its counts and times
# do not grow with --seconds or with the program's speed: the first
# corpus's trains, one classify pass per kind, and a fixed number of
# latency calls. On train-std it also trains and classifies with the
# cosine and rbf kinds, so that every training layer is traced.
TRACED_LATENCY_CALLS = {"train-std": 150, "classify-bulk": 30}
TRACED_KINDS = {"train-std": ["cosine", "rbf"], "classify-bulk": []}
YIELD_SAMPLE = 3000

WORKLOADS = [
    {"name": "train-std", "why": "mlp trains on 3 standard 1500-paragraph corpora, then classify_paragraph one paragraph at a time: per-call fixed cost dominates, high word reuse"},
    {"name": "classify-bulk", "why": "CLI classify of 15000 held-out paragraphs over a 20000-word noise pool: text processing dominates, low word reuse"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "train_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "classify_per_s", "unit": "paragraphs/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "f1.mlp", "unit": "ratio", "better": "higher", "bound": 0.02},
]

STAGES = ("weak_label", "megadocuments", "fit_tfidf", "fit_svd", "train_mlp", "calibrate")
LAYERS = ("corpus", "textnorm", "vectorspace", "networks", "classify", "pipeline", "bundle", "cli")

PER_LAYER = (
    [{"name": f"pipeline.stage_s.{s}", "unit": "s", "better": "lower"} for s in STAGES]
    + [
        {"name": "corpus.weak_label_yield", "unit": "ratio", "better": "higher"},
        {"name": "corpus.load_paragraphs_s", "unit": "s", "better": "lower"},
        {"name": "textnorm.text_to_terms_calls", "unit": "count", "better": "lower"},
        {"name": "textnorm.calls_per_paragraph", "unit": "ratio", "better": "lower"},
        {"name": "textnorm.text_to_terms_s", "unit": "s", "better": "lower"},
        {"name": "porter.stem_calls", "unit": "count", "better": "lower"},
        {"name": "porter.distinct_ratio", "unit": "ratio", "better": "lower"},
        {"name": "vectorspace.vocab_size", "unit": "count", "better": "lower"},
        {"name": "vectorspace.fit_tfidf_s", "unit": "s", "better": "lower"},
        {"name": "vectorspace.vectorize_all_s", "unit": "s", "better": "lower"},
        {"name": "vectorspace.fit_svd_s", "unit": "s", "better": "lower"},
        {"name": "vectorspace.svd_workspace_bytes", "unit": "bytes", "better": "lower"},
        {"name": "vectorspace.project_all_calls", "unit": "count", "better": "lower"},
        {"name": "vectorspace.project_all_s", "unit": "s", "better": "lower"},
        {"name": "vectorspace.project_bytes_copied", "unit": "bytes", "better": "lower"},
        {"name": "networks.train_mlp_s", "unit": "s", "better": "lower"},
        {"name": "networks.adam_steps", "unit": "count", "better": "lower"},
        {"name": "networks.forward_s", "unit": "s", "better": "lower"},
        {"name": "classify.score_vectors_s", "unit": "s", "better": "lower"},
        {"name": "classify.assign_s", "unit": "s", "better": "lower"},
        {"name": "classify.other_rate", "unit": "ratio", "better": "lower"},
        {"name": "classify.all_unknown_rate", "unit": "ratio", "better": "lower"},
        {"name": "bundle.save_s", "unit": "s", "better": "lower"},
        {"name": "bundle.load_s", "unit": "s", "better": "lower"},
        {"name": "bundle.bytes", "unit": "bytes", "better": "lower"},
        {"name": "cli.classify_self_s", "unit": "s", "better": "lower"},
    ]
    + [{"name": f"self_s.{layer}", "unit": "s", "better": "lower"} for layer in LAYERS]
)

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 24,
    "workloads": WORKLOADS,
    "end_to_end": END_TO_END,
    "per_layer": PER_LAYER,
}
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

# One BLAS thread: on the 2-vCPU reference VM two threads made no train or
# classify call faster, and a second thread exposes every call to the other
# vCPU's interference.
BLAS_THREADS = 1


def child_env() -> dict:
    threads = str(BLAS_THREADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def deadline_s(seconds: float) -> float:
    """Time allowed for one workload: set-up and preparation, plus what the
    timed phases of the untraced and the traced run need for --seconds."""
    return 120.0 + 2.0 * seconds


class Runner:
    def __init__(self, work: Path, started: float, deadline: float):
        self.work = work
        self.started = started
        self.deadline = deadline
        self.count = 0

    def worker(self, spec: dict) -> dict:
        """Run one worker process to completion and return its result."""
        self.count += 1
        tag = f"{self.count:02d}-{spec['mode']}"
        spec = {**spec, "src": str(SRC), "out": str(self.work / f"{tag}.result.json")}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log_path = self.work / f"{tag}.log"
        remaining = self.deadline - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("time budget exhausted before a worker could start")
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                    cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                    timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {tag} did not finish within the time budget")
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"worker {tag} exited with {proc.returncode}:\n{tail}")
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

def make_plan(name: str, seed: int, seconds: float, smoke: bool, work: Path) -> dict:
    """Generate the inputs of one workload and describe its processes.

    A plan has the train jobs (measured on train-std, a preparation on
    classify-bulk) and the windows' serve phase: classify passes and
    latency blocks.
    """
    import inputs

    if name not in [w["name"] for w in WORKLOADS]:
        raise BenchError(f"unknown workload {name!r}")
    if smoke:
        std = dict(paragraphs_per_domain=60, multilabel_per_domain=9, other_paragraphs=30)
        bulk = dict(paragraphs_per_domain=150, multilabel_per_domain=20, other_paragraphs=50)
        pseudo, block, traced_calls = 2000, SMOKE_BLOCK, SMOKE_BLOCK["min_calls"]
    else:
        std, bulk, pseudo = inputs.STD_COUNTS, inputs.BULK_COUNTS, inputs.PSEUDO_WORDS
        block, traced_calls = LATENCY_BLOCK, TRACED_LATENCY_CALLS[name]
    train_seeds = [seed + i * inputs.TRAIN_STRIDE for i in range(TRAIN_CORPORA)]
    corpora = [inputs.write_corpus(work, f"train{i}", inputs.synth_config(std), s)
               for i, s in enumerate(train_seeds)]
    held_out_seed = seed + inputs.HELD_OUT_OFFSET
    seeds = {"workload": seed, "train_corpora": train_seeds, "eval_corpus": held_out_seed}
    if name == "train-std":
        data = inputs.write_corpus(work, "eval", inputs.synth_config(std), held_out_seed)
    else:
        seeds["noise_pool"] = seed + inputs.POOL_OFFSET
        config = inputs.synth_config(bulk, seeds["noise_pool"], pseudo)
        data = inputs.write_corpus(work, "eval", config, held_out_seed)
    return {
        "seeds": seeds, "eval": data, "train_corpus": corpora[0]["corpus"],
        "jobs": [{"corpus": c["corpus"], "lexicon": c["lexicon"], "seed": c["seed"], "kind": "mlp", "index": i}
                 for i, c in enumerate(corpora)],
        "kinds": ["mlp"], "traced_kinds": TRACED_KINDS[name],
        "measured_train": name == "train-std", "setup_bundle": name == "train-std",
        "overhead_op": "latency" if name == "train-std" else "classify",
        "windows": TRAIN_CORPORA, "serve_s": seconds / TRAIN_CORPORA, "traced_calls": traced_calls,
        "classify": {"corpus": data["corpus"]},
        "latency": {"corpus": data["corpus"], **block},
    }


def fixed_work(plan: dict) -> dict:
    """The plan of the traced run: the first corpus's trains, one window,
    and no phase that runs on a timer."""
    first = plan["jobs"][0]
    return {
        **plan, "windows": 1, "serve_s": 0.0,
        "kinds": ["mlp"] + plan["traced_kinds"],
        "jobs": [first] + [{**first, "kind": kind} for kind in plan["traced_kinds"]],
        "latency": {**plan["latency"], "seconds": 0.0, "min_calls": plan["traced_calls"]},
    }


def train_once(runner: "Runner", jobs: list[dict], out_dir: Path, traced: bool) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    return runner.worker({"mode": "run", "trace": traced, "train": {"jobs": jobs, "out_dir": str(out_dir)}})


def bundle_paths(train: dict) -> dict:
    return {f"{e['kind']}-{e['index']}": e["bundle"] for e in train["train"]}


def run_main(runner: "Runner", plan: dict, bundles: dict, out_dir: Path, traced: bool) -> dict:
    """The measured processes of one workload, merged into one result.

    The first window also classifies with the other kinds' bundles, for
    their F1.
    """
    merged: dict = {"train": [], "classify": [], "latency_failed": 0,
                    "peak_rss_mb": 0.0, "traces": [], "windows": []}
    results = []
    if plan["measured_train"]:
        results.append(train_once(runner, plan["jobs"], out_dir / "train", traced))
        bundles = bundle_paths(results[0])
    for i in range(plan["windows"]):
        window_dir = out_dir / f"window{i}"
        window_dir.mkdir(parents=True)
        spec = {"mode": "run", "trace": traced, "serve": {
            "seconds": plan["serve_s"],
            "classify": {**plan["classify"], "out_dir": str(window_dir),
                         "bundles": {k: bundles[f"{k}-{i}"] for k in plan["kinds"]}},
            "latency": {**plan["latency"], "bundle": bundles[f"mlp-{i}"],
                        "expected": str(window_dir / "pred.mlp.jsonl")},
        }}
        result = runner.worker(spec)
        merged["windows"].append(result)
        results.append(result)
    for result in results:
        merged["train"] += result["train"]
        merged["classify"] += result["classify"]
        merged["latency_failed"] += result.get("latency_failed", 0)
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], result["peak_rss_mb"])
        if "trace" in result:
            merged["traces"].append(result["trace"])
    merged["bundles"] = bundles
    merged["latency_ms"] = [w["latency_ms"] for w in merged["windows"]]  # one list per vocabulary
    return merged


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------

def check_trains(entries: list[dict]) -> tuple[int, Counter, dict]:
    """Failed trains, their reasons, and the bundle hashes per kind."""
    from riskdomains.bundle import load_bundle
    from riskdomains.errors import RiskDomainsError

    failed = 0
    reasons: Counter = Counter()
    shas: dict[str, set] = {}
    for entry in entries:
        ok = entry["rc"] == 0
        if ok:
            try:
                load_bundle(entry["bundle"])
            except RiskDomainsError:
                ok = False
                reasons["bundle does not load"] += 1
        else:
            reasons["train exited nonzero"] += 1
        failed += 0 if ok else 1
        shas.setdefault(entry["kind"], set()).add(entry["sha256"])
    return failed, reasons, {k: sorted(s - {None}) for k, s in shas.items()}


def evaluate(result: dict, data: dict, inject_fault: bool) -> dict:
    """Check the measured processes' outputs; count attempts, failures and F1."""
    from checks import check_predictions, corrupt_first_prediction
    from riskdomains.corpus import load_gold, load_paragraphs
    from riskdomains.domains import domain_from_name
    from riskdomains.errors import RiskDomainsError
    from riskdomains.evaluation import PredictionRecord, build_report

    ids = [p.id for p in load_paragraphs(data["corpus"])]
    gold = load_gold(data["gold"])
    attempted = len(result["train"])
    failed, reasons, shas = check_trains(result["train"])

    # Passes are checked per window and kind: each window uses its own
    # bundle, and its repeated passes must write the first pass's bytes.
    f1: dict[str, list[float]] = {}
    bad_by_out: dict[str, int] = {}
    if inject_fault:
        corrupt_first_prediction(Path(next(e["out"] for e in result["classify"] if e["kind"] == "mlp")))
    for entry in result["classify"]:
        attempted += len(ids)
        if entry["rc"] != 0 or not entry["same_as_first"]:
            failed += len(ids)
            reasons["classify pass failed or differed from the first"] += len(ids)
            continue
        if entry["out"] in bad_by_out:  # the same bytes were checked already
            failed += bad_by_out[entry["out"]]
            continue
        bad, why, records = check_predictions(Path(entry["out"]), ids)
        bad_by_out[entry["out"]] = bad
        failed += bad
        reasons.update(why)
        scored = []
        for pid, rec in zip(ids, records):
            try:
                predicted = tuple(domain_from_name(n) for n in rec["labels"])
                scored.append(PredictionRecord(id=pid, predicted=predicted, gold=tuple(gold[pid])))
            except (RiskDomainsError, KeyError, TypeError):
                continue
        f1.setdefault(entry["kind"], []).append(build_report(scored).f1 if scored else 0.0)

    attempted += sum(len(s) for s in result["latency_ms"])
    failed += result.get("latency_failed", 0)
    if result.get("latency_failed"):
        reasons["classify_paragraph result invalid or differs from batch"] += result["latency_failed"]
    return {
        "attempted": attempted, "failed": failed, "reasons": reasons, "f1": f1, "bundle_sha256": shas,
    }


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(main: dict, prepared: dict | None, setup: list[float], f1: dict, n: int) -> dict:
    """Medians of the mlp trains (one per corpus), of the set-up probes and
    of the classify passes. A latency percentile is the mean over the
    trained vocabularies of the percentile of that vocabulary's calls:
    per-call latency falls into a few levels by vocabulary, and a median
    over a handful of vocabularies would jump from level to level."""
    return {
        "setup_s": statistics.median(setup),
        "train_s": statistics.median(e["seconds"] for e in (prepared or main)["train"] if e["kind"] == "mlp"),
        "classify_per_s": statistics.median(n / e["seconds"] for e in main["classify"] if e["kind"] == "mlp"),
        "latency_p50_ms": statistics.fmean(statistics.median(s) for s in main["latency_ms"]),
        "latency_p90_ms": statistics.fmean(percentile(s, 90) for s in main["latency_ms"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "f1.mlp": statistics.median(f1["mlp"]),
    }


def per_layer_metrics(traces: list[dict], distinct_words: int) -> tuple[dict, dict]:
    """Per-layer metrics over every traced process of the run.

    distinct_words is the number of distinct tokenize words in the inputs
    the traced processes read, from the input pass.
    """
    from tracing import summarize

    total: Counter = Counter()
    self_name: Counter = Counter()
    self_layer: Counter = Counter()
    counts: Counter = Counter()
    maxima: dict[str, int] = {}
    for trace in traces:
        t, s, layer = summarize(trace["spans"])
        total.update(t)
        self_name.update(s)
        self_layer.update(layer)
        counts.update(trace["counts"])
        for key, value in trace["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {f"pipeline.stage_s.{s}": total[f"pipeline.stage.{s}"] for s in STAGES}
    metrics.update({
        "corpus.weak_label_yield": ratio(counts["weak_label.labeled"], counts["weak_label.attempted"]),
        "corpus.load_paragraphs_s": total["corpus.load_paragraphs"],
        "textnorm.text_to_terms_calls": counts["text_to_terms.calls"],
        "textnorm.calls_per_paragraph": ratio(counts["text_to_terms.calls"], counts["paragraph_ops"]),
        "textnorm.text_to_terms_s": total["textnorm.text_to_terms"],
        "porter.stem_calls": counts["porter.stem_calls"],
        "porter.distinct_ratio": ratio(distinct_words, counts["porter.stem_calls"]),
        "vectorspace.vocab_size": maxima.get("vocab_size", 0),
        "vectorspace.fit_tfidf_s": total["vectorspace.fit_tfidf"],
        "vectorspace.vectorize_all_s": total["vectorspace.vectorize_all"],
        "vectorspace.fit_svd_s": total["vectorspace.fit_svd"],
        "vectorspace.svd_workspace_bytes": maxima.get("svd_workspace_bytes", 0),
        "vectorspace.project_all_calls": counts["project_all.calls"],
        "vectorspace.project_all_s": total["vectorspace.project_all"],
        "vectorspace.project_bytes_copied": counts["project_all.bytes"],
        "networks.train_mlp_s": total["networks.train_mlp"],
        "networks.adam_steps": counts["adam_steps"],
        "networks.forward_s": total["networks.forward"],
        "classify.score_vectors_s": total["classify.score_vectors"],
        "classify.assign_s": total["classify.assign"],
        "classify.other_rate": ratio(counts["classify.other"], counts["classify.paragraphs"]),
        "classify.all_unknown_rate": ratio(counts["classify.all_unknown"], counts["classify.paragraphs"]),
        "bundle.save_s": total["bundle.save_bundle"],
        "bundle.load_s": total["bundle.load_bundle"],
        "bundle.bytes": maxima.get("bundle_bytes", 0),
        "cli.classify_self_s": self_name["cli.classify"],
    })
    metrics.update({f"self_s.{layer}": self_layer[layer] for layer in LAYERS})
    # Stages and layers that only some workloads run go to the report.
    extra = {
        f"pipeline.stage_s.{s}": total[f"pipeline.stage.{s}"]
        for s in ("megadocument_vectors", "rbf_prototypes", "train_rbf")
    }
    extra.update({
        "networks.train_rbf_s": total["networks.train_rbf"],
        "networks.kmeans_s": total["networks.kmeans"],
        "self_s.bench": self_layer["bench"],
    })
    return metrics, extra


def op_seconds(main: dict, op: str) -> float:
    """Median seconds per operation of the workload's main phase."""
    if op == "train":
        return statistics.median(e["seconds"] for e in main["train"] if e["kind"] == "mlp")
    if op == "latency":  # the first window's, whose bundle both runs call
        return statistics.median(main["latency_ms"][0]) / 1000.0
    return statistics.median(e["seconds"] for e in main["classify"] if e["kind"] == "mlp")


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def input_properties(data: dict, bundle: str, train_corpus: str) -> dict:
    """Reuse and coverage properties of the workload's evaluation corpus.

    Token-level figures use the public tokenize and porter_stem on single
    words, so fused multiword expressions count as their separate words.
    distinct_words_read also counts the training corpus's words: it covers
    every text the workload's processes pass to text_to_terms.
    """
    from riskdomains.bundle import load_bundle
    from riskdomains.corpus import load_lexicon, load_paragraphs, weak_label
    from riskdomains.porter import porter_stem
    from riskdomains.textnorm import tokenize

    pipeline, _, _ = load_bundle(bundle)
    vocab = pipeline.tfidf.vocabulary.index
    paragraphs = load_paragraphs(data["corpus"])
    stems: dict[str, str] = {}
    tokens = oov = all_unknown = 0
    for p in paragraphs:
        words = tokenize(p.text)
        unknown = 0
        for w in words:
            stem = stems.get(w)
            if stem is None:
                stem = stems[w] = porter_stem(w)
            unknown += stem not in vocab
        tokens += len(words)
        oov += unknown
        all_unknown += unknown == len(words)
    read = set(stems)
    if train_corpus != data["corpus"]:
        for p in load_paragraphs(train_corpus):
            read.update(tokenize(p.text))
    step = max(1, len(paragraphs) // YIELD_SAMPLE)
    sample = paragraphs[::step]
    labeled = len(weak_label(sample, load_lexicon(data["lexicon"])).entries)
    return {
        "paragraphs": len(paragraphs),
        "tokens": tokens,
        "distinct_words": len(stems),
        "distinct_word_share": len(stems) / tokens,
        "distinct_words_read": len(read),
        "oov_token_rate": oov / tokens,
        "all_unknown_paragraph_share": all_unknown / len(paragraphs),
        "weak_label_yield": labeled / len(sample),
        "weak_label_yield_sample": len(sample),
    }


def provenance(seeds: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "seeds": seeds,
    }


def metric_block(values: dict) -> dict:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(args, started: float) -> dict:
    """Run one workload; returns the result object for the last line."""
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _run_workload(args, work: Path, started: float) -> dict:
    runner = Runner(work, started, deadline_s(args.seconds))
    phase_s: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phase_s[name] = now - mark
        mark = now

    plan = make_plan(args.workload, args.seed, args.seconds, args.smoke, work)
    lap("inputs")
    traced = bool(args.trace)
    n = plan["eval"]["paragraphs"]
    prepared = None
    bundles: dict[str, str] = {}
    if not plan["measured_train"]:
        prepared = train_once(runner, plan["jobs"], work / "prepare", traced=False)
        bundles = bundle_paths(prepared)
        lap("prepare")

    plain = run_main(runner, plan, bundles, work / "plain", traced=False)
    lap("measured")
    checked = evaluate(plain, plan["eval"], args.inject_fault)
    if prepared is not None:
        prep_failed, prep_reasons, checked["bundle_sha256"] = check_trains(prepared["train"])
        checked["attempted"] += len(prepared["train"])
        checked["failed"] += prep_failed
        checked["reasons"].update(prep_reasons)
    report: dict = {
        "workload": args.workload,
        "provenance": provenance(plan["seeds"]),
        "inputs": input_properties(plan["eval"], plain["bundles"]["mlp-0"], plan["train_corpus"]),
        "f1": checked["f1"],
        "bundle_sha256": checked["bundle_sha256"],
        "failure_reasons": checked["reasons"],
        "latency_samples": sum(len(s) for s in plain["latency_ms"]),
        # p99 needs 1 000 samples to have ten beyond it; most runs have fewer.
        "latency_p99_ms": percentile(sum(plain["latency_ms"], []), 99),
        "latency_by_window": [
            {"samples": len(s), "p50_ms": statistics.median(s), "p90_ms": percentile(s, 90)}
            for s in plain["latency_ms"]
        ],
        "train_s_samples": [(e["kind"], e["seconds"]) for e in (prepared or plain)["train"]],
        "classify_s_samples": [e["seconds"] for e in plain["classify"] if e["kind"] == "mlp"],
    }
    lap("checks")

    if not traced:
        setup_spec = {"mode": "setup", "bundle": plain["bundles"]["mlp-0"] if plan["setup_bundle"] else None,
                      "warmup_text": "patient reports feeling down"}
        setup = [runner.worker(setup_spec)["setup_s"] for _ in range(SETUP_PROBES)]
        report["setup_samples"] = setup
        lap("setup")
        metrics = end_to_end_metrics(plain, prepared, setup, checked["f1"], n) if "mlp" in checked["f1"] else {}
    else:
        fixed = fixed_work(plan)
        traced_run = run_main(runner, fixed, bundles, work / "traced", traced=True)
        again = evaluate(traced_run, plan["eval"], False)
        traces = traced_run["traces"]
        if not plan["measured_train"]:
            traced_prep = train_once(runner, fixed["jobs"], work / "prepare-traced", traced=True)
            prep_failed, prep_reasons, again["bundle_sha256"] = check_trains(traced_prep["train"])
            again["attempted"] += len(traced_prep["train"])
            again["failed"] += prep_failed
            again["reasons"].update(prep_reasons)
            traces = traces + [traced_prep["trace"]]
        lap("traced")
        # Tracing must not change what the program computes: the same mlp F1
        # in the first window, and every traced mlp bundle byte-identical to
        # an untraced one. The cosine and rbf kinds run traced only.
        traced_mlp = set(again["bundle_sha256"].get("mlp", []))
        same = (
            again["f1"].get("mlp", [None])[0] == checked["f1"].get("mlp", [0.0])[0]
            and bool(traced_mlp)
            and traced_mlp <= set(checked["bundle_sha256"].get("mlp", []))
        )
        checked["attempted"] += again["attempted"]
        checked["failed"] += again["failed"] + (0 if same else 1)
        checked["reasons"].update(again["reasons"])
        if not same:
            checked["reasons"]["tracing changed the F1 or the bundle bytes"] += 1
        metrics, extra = per_layer_metrics(traces, report["inputs"]["distinct_words_read"])
        untraced_op, traced_op = (op_seconds(r, plan["overhead_op"]) for r in (plain, traced_run))
        report.update(
            traced_f1=again["f1"],
            per_layer_extra_s=extra,
            tracing_overhead={
                "op": plan["overhead_op"],
                "untraced_op_s": untraced_op,
                "traced_op_s": traced_op,
                "share": traced_op / untraced_op - 1.0,
            },
            byte_counts="svd_workspace_bytes and project_bytes_copied are computed from array shapes",
            trace_spans=sum(len(t["spans"]) for t in traces),
        )

    report["phase_s"] = phase_s
    return {
        "report": report,
        "result": {
            "correct": checked["failed"] == 0 and bool(metrics),
            "attempted": checked["attempted"],
            "failed": checked["failed"],
            "metrics": metric_block(metrics),
        },
    }


def print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:16} {name:36} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:16} {'ops_attempted':36} {result['attempted']:>16d} count")
    print(f"{workload:16} {'ops_failed':36} {result['failed']:>16d} count")


def main(argv=None) -> int:
    names = [w["name"] for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one prediction before checking (self-test)")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running worker is killed and reaped and
    # the working directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(BENCHMARK, indent=2) + "\n", encoding="utf-8")
        return 0
    if not (SRC / "riskdomains" / "__init__.py").is_file():
        print(f"error: no riskdomains package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")})

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in workloads:
            args.workload = name
            started = time.perf_counter()
            out = run_workload(args, started)
            out["report"]["wall_s"] = time.perf_counter() - started
            print(json.dumps({"report": out["report"]}))
            print_table(name, out["result"])
            results[name] = out["result"]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
