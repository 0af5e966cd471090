"""The names and shapes the benchmark harness relies on still hold.

perfbench/tracing.py replaces module-level references to the functions it
names; a rename in src/ would silently drop that span from the benchmark,
and so would a call that no longer goes through the module attribute.
perfbench/worker.py and run.py unpack three values from load_bundle.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from riskdomains import classify, networks
from riskdomains.bundle import load_bundle, save_bundle
from riskdomains.classify import Pipeline
from riskdomains.corpus import KeywordLexicon

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [*tracing.TARGETS, ("pipeline", "_stage"), ("networks", "adam_step")]
    missing = []
    for module_name, attr in targets:
        module = importlib.import_module(f"riskdomains.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"riskdomains.{module_name}.{attr}")
    assert not missing


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


def test_classify_batch_calls_text_to_terms_once_per_paragraph(
    trained_mlp, small_corpus, monkeypatch
):
    calls = []
    real = classify.text_to_terms

    def spy(text, table, *rest):
        calls.append(text)
        return real(text, table, *rest)

    monkeypatch.setattr(classify, "text_to_terms", spy)
    paragraphs, _, _ = small_corpus
    texts = [p.text for p in paragraphs[:5]]
    classify.classify_batch(trained_mlp.pipeline, texts)
    assert calls == texts
