"""The names and shapes the benchmark harness relies on still hold.

perfbench/tracing.py replaces module-level references to the functions it
names; a rename in src/ would silently drop that span from the benchmark,
and so would a call that no longer goes through the module attribute.
perfbench/worker.py and run.py unpack three values from load_bundle, and
run.py calls the package outside the tracer to describe its inputs and
score its outputs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from riskdomains import Domain, classify, networks, vectorspace
from riskdomains.bundle import load_bundle, save_bundle
from riskdomains.classify import Pipeline
from riskdomains.corpus import KeywordLexicon
from riskdomains.evaluation import PredictionRecord, build_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_perfbench("tracing")
    targets = [*tracing.TARGETS, ("pipeline", "_stage"), ("networks", "adam_step")]
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(f"riskdomains.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"riskdomains.{module_name}.{attr}")
    assert not missing


def test_input_properties_reads_the_package(trained_mlp, corpus_files, tmp_path):
    """input_properties reads vocabulary.index, weak_label(...).entries,
    tokenize and porter_stem."""
    run = load_perfbench("run")
    bundle = save_bundle(tmp_path / "bundle", trained_mlp.pipeline)
    corpus = tmp_path / "eval.jsonl"
    corpus.write_text('{"id": "e", "text": "Anxious zyzzyva"}\n')
    data = {"corpus": str(corpus), "lexicon": str(corpus_files / "lexicon.json")}
    props = run.input_properties(data, str(bundle), str(corpus_files / "corpus.jsonl"))
    assert props["paragraphs"] == 1 and props["tokens"] == 2
    assert props["distinct_words"] == 2
    assert props["oov_token_rate"] == 0.5  # "anxious" stems to a term
    assert props["all_unknown_paragraph_share"] == 0
    assert props["weak_label_yield"] == 1  # "anxious" is a Mood keyword
    assert props["distinct_words_read"] > props["distinct_words"]


def test_build_report_f1_is_a_float():
    """run.evaluate reads build_report(...).f1 as one number per pass."""
    record = PredictionRecord(id="a", predicted=(Domain.MOOD,), gold=(Domain.MOOD,))
    assert isinstance(build_report([record]).f1, float)


def test_load_bundle_returns_pipeline_lexicon_manifest(trained_mlp, tmp_path):
    loaded = load_bundle(save_bundle(tmp_path / "bundle", trained_mlp.pipeline))
    assert isinstance(loaded, tuple) and len(loaded) == 3
    pipeline, lexicon, manifest = loaded
    assert isinstance(pipeline, Pipeline)
    assert isinstance(lexicon, KeywordLexicon)
    assert isinstance(manifest, dict)


@pytest.mark.parametrize("kind", ["mlp", "rbf"])
def test_classify_batch_calls_patched_module_attributes(
    kind, trained_mlp, trained_rbf, small_corpus, monkeypatch
):
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [
        (networks, "mlp_forward"),
        (networks, "rbf_forward"),
        (classify, "score_vectors"),
    ]:
        spy(module, name)
    pipeline = {"mlp": trained_mlp, "rbf": trained_rbf}[kind].pipeline
    paragraphs, _, _ = small_corpus
    classify.classify_batch(pipeline, [p.text for p in paragraphs[:5]])
    assert calls == ["score_vectors", f"{kind}_forward"]


def test_classify_batch_tokenizes_each_text_once_in_order(
    trained_mlp, small_corpus, monkeypatch
):
    calls = []
    real = vectorspace.tokenize

    def spy(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(vectorspace, "tokenize", spy)
    paragraphs, _, _ = small_corpus
    texts = [p.text for p in paragraphs[:5]]
    classify.classify_batch(trained_mlp.pipeline, texts)
    assert calls == texts
