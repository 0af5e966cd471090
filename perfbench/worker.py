"""One benchmark process: set-up probe, bundle preparation or a measured run.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the phases to run and where to write the result JSON. Each
measured process runs only its own workload, so its ru_maxrss is that
workload's peak memory. The package is imported from the checkout's src/.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import DOMAINS, bundle_sha256, label_problem  # noqa: E402


def setup_probe(spec: dict) -> dict:
    """Time what a user pays before the first result: import, load, warm-up."""
    start = time.perf_counter()
    import riskdomains.cli  # noqa: F401

    if spec.get("bundle"):
        from riskdomains.bundle import load_bundle
        from riskdomains.classify import classify_paragraph

        pipeline, _, _ = load_bundle(spec["bundle"])
        classify_paragraph(pipeline, spec["warmup_text"])
    return {"setup_s": time.perf_counter() - start}


def _matches(labels, scores, want: dict | None) -> bool:
    """A single-paragraph result is valid and equals the batch CLI's output."""
    names = [d.value for d in labels]
    if want is None or label_problem(names) or names != want.get("labels"):
        return False
    if not all(math.isfinite(float(s)) for s in scores):
        return False
    want_scores = want.get("scores", {})
    return len(want_scores) == len(DOMAINS) and all(
        abs(float(scores[i]) - want_scores.get(name, math.inf)) <= 1e-9
        for i, name in enumerate(DOMAINS)
    )


class Run:
    def __init__(self, spec: dict):
        self.spec = spec
        self.tracer = None
        if spec.get("trace"):
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        from riskdomains import cli

        self.cli = cli
        self.result: dict = {"train": [], "classify": [], "latency_ms": [], "latency_failed": 0}
        self.passes: Counter = Counter()
        self.served: tuple = ()  # (pipeline, texts, expected), loaded by serve

    def span(self, name: str, run: str):
        if self.tracer is None:
            return nullcontext()
        self.tracer.run = run
        return self.tracer.span(name)

    def train(self, phase: dict) -> None:
        """Run each train job once: one kind on one corpus."""
        out_dir = Path(phase["out_dir"])
        for job in phase["jobs"]:
            bundle = out_dir / f"{job['kind']}-{job['index']}"
            argv = [
                "train", "--corpus", job["corpus"], "--lexicon", job["lexicon"],
                "--kind", job["kind"], "--seed", str(job["seed"]), "--out", str(bundle),
            ]
            with self.span("cli.train", f"train:{job['kind']}:{job['index']}"):
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                seconds = time.perf_counter() - t0
            self.result["train"].append({
                "kind": job["kind"], "index": job["index"], "seconds": seconds, "rc": rc,
                "bundle": str(bundle),
                "sha256": bundle_sha256(bundle) if rc == 0 else None,
            })

    def classify(self, phase: dict, kinds: list[str]) -> None:
        """One CLI classify pass with the bundle of each kind named."""
        out_dir = Path(phase["out_dir"])
        for kind in kinds:
            first = out_dir / f"pred.{kind}.jsonl"
            rep = self.passes[kind]
            out = first if rep == 0 else out_dir / f"pred.{kind}.rep.jsonl"
            argv = ["classify", "--bundle", phase["bundles"][kind], "--corpus", phase["corpus"], "--out", str(out)]
            with self.span("cli.classify", f"classify:{kind}:{rep}"):
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                seconds = time.perf_counter() - t0
            same = rep == 0 or (rc == 0 and out.read_bytes() == first.read_bytes())
            self.result["classify"].append({
                "kind": kind, "seconds": seconds, "rc": rc,
                "out": str(first), "same_as_first": same,
            })
            self.passes[kind] += 1

    def _load_served(self, phase: dict) -> tuple:
        """Load the latency bundle once, with the window's batch CLI output,
        which the single calls must equal."""
        from riskdomains.bundle import load_bundle
        from riskdomains.classify import classify_paragraph
        from riskdomains.corpus import load_paragraphs

        pipeline, _, _ = load_bundle(phase["bundle"])
        texts = [p.text for p in load_paragraphs(phase["corpus"])]
        expected = [
            json.loads(line)
            for line in Path(phase["expected"]).read_text(encoding="utf-8").splitlines()
        ]
        classify_paragraph(pipeline, texts[0])  # warm-up, not timed
        return pipeline, texts, expected

    def latency(self, phase: dict) -> None:
        """A block of closed-loop calls, one client: classify_paragraph on one
        paragraph at a time, at least min_calls and for at least seconds."""
        from riskdomains.classify import classify_paragraph

        pipeline, texts, expected = self.served
        samples = self.result["latency_ms"]
        start = time.perf_counter()
        calls = 0
        while calls < phase["min_calls"] or time.perf_counter() - start < phase["seconds"]:
            j = len(samples) % len(texts)
            with self.span("bench.latency", f"latency:{len(samples)}"):
                t0 = time.perf_counter()
                labels, scores = classify_paragraph(pipeline, texts[j])
                samples.append((time.perf_counter() - t0) * 1000.0)
            if not _matches(labels, scores, expected[j] if j < len(expected) else None):
                self.result["latency_failed"] += 1
            calls += 1

    def serve(self, phase: dict) -> None:
        """Alternate classify passes and latency blocks, so that throughput
        and latency sample the same stretch of time. Runs at least one
        cycle, and no cycle that would end past phase["seconds"]. The first
        cycle classifies with every kind's bundle, the later ones with mlp
        only; the first mlp pass's output is what the latency calls must
        equal."""
        kinds = list(phase["classify"]["bundles"])
        spent = 0.0  # time of the cycles so far, without the latency set-up
        while True:
            t0 = time.perf_counter()
            self.classify(phase["classify"], kinds)
            if not self.served:
                t1 = time.perf_counter()
                self.served = self._load_served(phase["latency"])
                t0 += time.perf_counter() - t1
            self.latency(phase["latency"])
            kinds = ["mlp"]
            cycle = time.perf_counter() - t0
            spent += cycle
            if spent + cycle > phase["seconds"]:
                break

    def execute(self) -> dict:
        for name, phase in (("train", self.train), ("serve", self.serve)):
            if self.spec.get(name):
                phase(self.spec[name])
        self.result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.result["trace"] = self.tracer.to_json()
        return self.result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    result = setup_probe(spec) if spec["mode"] == "setup" else Run(spec).execute()
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
