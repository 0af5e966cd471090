"""Bundle persistence and the command line interface."""

import argparse
import copy
import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import riskdomains.bundle as bundle_module
import riskdomains.cli as cli_module
from riskdomains.bundle import load_bundle, save_bundle
from riskdomains.classify import classify_batch
from riskdomains.cli import _ALLOWED_KEYS, build_parser, main
from riskdomains.corpus import (
    Paragraph,
    lexicon_to_json,
    load_gold,
    load_paragraphs,
)
from riskdomains.domains import CLASSIFIED_DOMAINS, Domain
from riskdomains.errors import DataError
from riskdomains.pipeline import PipelineOptions


def dir_bytes(directory) -> dict[str, bytes]:
    directory = Path(directory)
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(params=["cosine", "mlp", "rbf", "mlp_nomwe"])
def trained(request, trained_cosine, trained_mlp, trained_rbf, trained_mlp_nomwe):
    """Each kind's trained pipeline in turn, and mlp without MWEs."""
    return {
        "cosine": trained_cosine,
        "mlp": trained_mlp,
        "rbf": trained_rbf,
        "mlp_nomwe": trained_mlp_nomwe,
    }[request.param]


class TestBundleRoundTrip:
    def test_loaded_bundle_classifies_identically(
        self, trained, small_corpus, tmp_path
    ):
        paragraphs, _, lexicon = small_corpus
        save_bundle(tmp_path / "bundle", trained.pipeline)
        loaded, loaded_lexicon, manifest = load_bundle(tmp_path / "bundle")
        texts = [p.text for p in paragraphs]
        labels_a, scores_a = classify_batch(trained.pipeline, texts)
        labels_b, scores_b = classify_batch(loaded, texts)
        assert labels_a == labels_b
        assert np.array_equal(scores_a, scores_b)
        assert manifest["kind"] == trained.pipeline.kind
        assert loaded_lexicon is loaded.lexicon
        assert loaded_lexicon.keywords == lexicon.keywords
        assert loaded_lexicon.keyphrases == trained.pipeline.lexicon.keyphrases
        assert loaded_lexicon.fusion == trained.pipeline.lexicon.fusion
        # The manifest stores the fused lexicon: no keyphrases without MWEs.
        stored = [p for e in manifest["lexicon"].values() for p in e["keyphrases"]]
        fused = sum(len(p) for p in lexicon.keyphrases.values())
        assert len(stored) == (fused if trained.pipeline.use_mwes else 0)

    def test_saves_are_byte_identical(self, trained, tmp_path):
        info = {"corpus": "corpus.jsonl", "seed": 42}
        save_bundle(tmp_path / "a", trained.pipeline, info)
        save_bundle(tmp_path / "b", trained.pipeline, info)
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_bundle_holds_only_manifest_listed_files(self, trained, tmp_path):
        saved = save_bundle(tmp_path / "bundle", trained.pipeline)
        manifest = json.loads((saved / "manifest.json").read_text())
        listed = {"manifest.json", manifest["vocabulary_file"]}
        listed |= {spec["file"] for spec in manifest["arrays"].values()}
        assert set(dir_bytes(saved)) == listed
        assert len(listed) == 2 + len(manifest["arrays"])

    def test_thresholds_survive_round_trip(self, trained, tmp_path):
        save_bundle(tmp_path / "bundle", trained.pipeline)
        loaded, _, _ = load_bundle(tmp_path / "bundle")
        assert np.array_equal(
            loaded.thresholds.thresholds, trained.pipeline.thresholds.thresholds
        )
        assert loaded.thresholds.alpha == trained.pipeline.thresholds.alpha


class TestOlderBundles:
    """Bundles written before the manifest lost fields the reader can derive."""

    def test_format_1_bundle_loads_like_format_2(self, trained, small_corpus, tmp_path):
        """Format 1 also stored idf.bin and thresholds.min; both are ignored."""
        paragraphs, _, _ = small_corpus
        saved = save_bundle(tmp_path / "v2", trained.pipeline)
        old = tmp_path / "v1"
        shutil.copytree(saved, old)
        idf, thresholds = trained.pipeline.tfidf.idf, trained.pipeline.thresholds
        idf.astype("<f8").tofile(old / "idf.bin")
        path = old / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == 2
        assert "idf" not in manifest["arrays"] and "min" not in manifest["thresholds"]
        manifest["format_version"] = 1
        manifest["arrays"]["idf"] = {
            "file": "idf.bin", "shape": [len(idf)], "dtype": "<f8"
        }
        manifest["thresholds"]["min"] = {
            d.value: thresholds.thresholds[i] for i, d in enumerate(CLASSIFIED_DOMAINS)
        }
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        texts = [p.text for p in paragraphs]
        labels_a, scores_a = classify_batch(load_bundle(saved)[0], texts)
        labels_b, scores_b = classify_batch(load_bundle(old)[0], texts)
        assert labels_a == labels_b
        assert np.array_equal(scores_a, scores_b)

    @pytest.mark.parametrize(
        "kind, extra",
        [("mlp", {"mlp_dropout": [0.2, 0.5]}), ("rbf", {"rbf_dropout": 0.2})],
    )
    def test_dropout_fields_are_ignored(
        self, kind, extra, trained_mlp, trained_rbf, small_corpus, tmp_path
    ):
        paragraphs, _, _ = small_corpus
        pipeline = {"mlp": trained_mlp, "rbf": trained_rbf}[kind].pipeline
        saved = save_bundle(tmp_path / "bundle", pipeline)
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        assert not set(extra) & set(manifest)
        path.write_text(json.dumps({**manifest, **extra}))
        texts = [p.text for p in paragraphs]
        labels_a, scores_a = classify_batch(pipeline, texts)
        labels_b, scores_b = classify_batch(load_bundle(saved)[0], texts)
        assert labels_a == labels_b
        assert np.array_equal(scores_a, scores_b)

    def test_no_mwes_bundle_with_keyphrases_fuses_none(
        self, trained_mlp_nomwe, small_corpus, tmp_path
    ):
        """A no-MWE bundle saved with the full lexicon still fuses no phrase."""
        paragraphs, _, lexicon = small_corpus
        saved = save_bundle(tmp_path / "bundle", trained_mlp_nomwe.pipeline)
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["lexicon"] = lexicon_to_json(lexicon)
        path.write_text(json.dumps(manifest))
        loaded, loaded_lexicon, _ = load_bundle(saved)
        assert loaded_lexicon.fusion == {}
        texts = [p.text for p in paragraphs]
        labels_a, scores_a = classify_batch(trained_mlp_nomwe.pipeline, texts)
        labels_b, scores_b = classify_batch(loaded, texts)
        assert labels_a == labels_b
        assert np.array_equal(scores_a, scores_b)


class TestBundleErrors:
    @pytest.fixture
    def saved(self, trained_mlp, tmp_path):
        return save_bundle(tmp_path / "bundle", trained_mlp.pipeline)

    def edit_manifest(self, saved: Path, mutate) -> None:
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="not a model bundle"):
            load_bundle(tmp_path / "empty")

    def test_unsupported_version(self, saved):
        self.edit_manifest(saved, lambda m: m.update(format_version=99))
        with pytest.raises(DataError, match="format version 99"):
            load_bundle(saved)

    def test_reordered_domains_rejected(self, saved):
        def mutate(m):
            m["domain_order"] = list(reversed(m["domain_order"]))

        self.edit_manifest(saved, mutate)
        with pytest.raises(DataError, match="domain order"):
            load_bundle(saved)

    def test_truncated_array(self, saved):
        target = saved / "mlp_w1.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(DataError, match="mlp_w1"):
            load_bundle(saved)

    def test_missing_array_entry(self, saved):
        self.edit_manifest(saved, lambda m: m["arrays"].pop("df"))
        with pytest.raises(DataError, match="df"):
            load_bundle(saved)

    def test_vocabulary_size_mismatch(self, saved):
        vocab = saved / "vocabulary.txt"
        lines = vocab.read_text().splitlines()
        vocab.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="vocabulary size"):
            load_bundle(saved)

    def test_refuses_non_bundle_directory(self, trained_mlp, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "notes.txt").write_text("not a bundle")
        with pytest.raises(DataError, match="refusing"):
            save_bundle(target, trained_mlp.pipeline)
        assert (target / "notes.txt").exists()

    def test_overwrites_existing_bundle(self, saved, trained_mlp):
        save_bundle(saved, trained_mlp.pipeline)
        load_bundle(saved)

    def test_failed_overwrite_keeps_old_bundle(self, saved, trained_mlp, monkeypatch):
        before = dir_bytes(saved)
        write_array = bundle_module._write_array
        written = []

        def fail_on_third(directory, name, array, dtype):
            written.append(name)
            if len(written) == 3:
                raise OSError("disk full")
            return write_array(directory, name, array, dtype)

        monkeypatch.setattr(bundle_module, "_write_array", fail_on_third)
        with pytest.raises(OSError, match="disk full"):
            save_bundle(saved, trained_mlp.pipeline)
        assert dir_bytes(saved) == before
        load_bundle(saved)
        assert [p.name for p in saved.parent.iterdir()] == [saved.name]

    def test_failed_save_removes_directory(self, trained_mlp, tmp_path, monkeypatch):
        def disk_full(directory, name, array, dtype):
            raise OSError("disk full")

        monkeypatch.setattr(bundle_module, "_write_array", disk_full)
        target = tmp_path / "halfway"
        with pytest.raises(OSError, match="disk full"):
            save_bundle(target, trained_mlp.pipeline)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


def whole_file_read(directory, spec, order):
    """The reference read: all bytes at once, then one converting copy."""
    raw = (directory / spec["file"]).read_bytes()
    array = np.frombuffer(raw, dtype=spec["dtype"]).reshape(spec["shape"])
    native = np.float64 if spec["dtype"] == "<f8" else np.int64
    return array.astype(native, order=order)


class TestReadArray:
    @pytest.mark.parametrize("block", [8, 100, bundle_module._READ_BLOCK_BYTES])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bundle_arrays_match_whole_file_read(
        self, trained_mlp, tmp_path, monkeypatch, order, block
    ):
        saved = save_bundle(tmp_path / "bundle", trained_mlp.pipeline)
        arrays = json.loads((saved / "manifest.json").read_text())["arrays"]
        monkeypatch.setattr(bundle_module, "_READ_BLOCK_BYTES", block)
        for name, spec in arrays.items():
            got = bundle_module._read_array(saved, arrays, name, order)
            want = whole_file_read(saved, spec, order)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags[f"{order}_CONTIGUOUS"]
            assert got.tobytes(order="A") == want.tobytes(order="A"), name

    @pytest.mark.parametrize("shape", [[], [0], [3, 0], [0, 4], [5, 7], [2, 3, 4]])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_any_shape_matches_whole_file_read(self, tmp_path, monkeypatch, shape, order):
        values = np.arange(math.prod(shape), dtype="<f8").reshape(shape) * 0.1
        values.tofile(tmp_path / "a.bin")
        arrays = {"a": {"file": "a.bin", "shape": shape, "dtype": "<f8"}}
        monkeypatch.setattr(bundle_module, "_READ_BLOCK_BYTES", 24)
        got = bundle_module._read_array(tmp_path, arrays, "a", order)
        want = whole_file_read(tmp_path, arrays["a"], order)
        assert got.shape == want.shape and got.flags[f"{order}_CONTIGUOUS"]
        assert got.tobytes(order="A") == want.tobytes(order="A")

    def test_non_finite_value_in_a_later_block(self, tmp_path, monkeypatch):
        values = np.ones((6, 5))
        values[5, 4] = np.inf
        values.tofile(tmp_path / "a.bin")
        arrays = {"a": {"file": "a.bin", "shape": [6, 5], "dtype": "<f8"}}
        monkeypatch.setattr(bundle_module, "_READ_BLOCK_BYTES", 80)
        with pytest.raises(DataError, match="non-finite"):
            bundle_module._read_array(tmp_path, arrays, "a", "F")


def scalar_leaves(node, keys=()):
    """(keys, value) for every scalar in a JSON value; keys lead to it."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from scalar_leaves(child, (*keys, key))
    else:
        yield keys, node


# A value of another JSON type for each leaf type: true is no integer, "1" is
# no number, and 1 is neither a string nor true or false.
OTHER_TYPE = {bool: 1, int: True, float: "1", str: 1}


@pytest.mark.parametrize("kind", ["mlp", "rbf"])
def test_every_manifest_leaf_is_type_checked(kind, trained_mlp, trained_rbf, tmp_path):
    """Each scalar leaf of the manifest outside training and lexicon, set to
    null and then to a value of another JSON type, fails with DataError."""
    pipeline = {"mlp": trained_mlp, "rbf": trained_rbf}[kind].pipeline
    saved = save_bundle(tmp_path / "bundle", pipeline)
    path = saved / "manifest.json"
    manifest = json.loads(path.read_text())
    leaves = [
        (keys, value) for keys, value in scalar_leaves(manifest)
        if keys[0] not in ("training", "lexicon")
    ]
    if kind == "rbf":
        assert (("rbf_width",), pipeline.scorer.width) in leaves
    loaded = []
    for keys, value in leaves:
        for bad in (None, OTHER_TYPE[type(value)]):
            edited = copy.deepcopy(manifest)
            node = edited
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = bad
            path.write_text(json.dumps(edited))
            try:
                load_bundle(saved)
            except DataError:
                continue
            loaded.append((keys, bad))
    assert loaded == []


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliSynth:
    def test_deterministic_across_runs(self, tmp_path, capsys):
        args = ["synth", "--seed", "5", "--paragraphs-per-domain", "12",
                "--multilabel-per-domain", "2", "--other-paragraphs", "6"]
        code_a, _, _ = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        code_b, _, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        assert code_a == 0 and code_b == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_seed_changes_output(self, tmp_path, capsys):
        base = ["synth", "--paragraphs-per-domain", "12",
                "--multilabel-per-domain", "2", "--other-paragraphs", "6"]
        run_cli(base + ["--seed", "1", "--out", str(tmp_path / "a")], capsys)
        run_cli(base + ["--seed", "2", "--out", str(tmp_path / "b")], capsys)
        a = (tmp_path / "a" / "corpus.jsonl").read_bytes()
        b = (tmp_path / "b" / "corpus.jsonl").read_bytes()
        assert a != b


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory, corpus_files):
    """A cosine bundle trained through the CLI, shared by the flow tests."""
    out = tmp_path_factory.mktemp("cli") / "bundle"
    code = main([
        "train", "--kind", "cosine",
        "--corpus", str(corpus_files / "corpus.jsonl"),
        "--lexicon", str(corpus_files / "lexicon.json"),
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestCliTrain:
    def test_missing_corpus_exits_one(self, corpus_files, tmp_path, capsys):
        code, _, err = run_cli([
            "train", "--corpus", str(tmp_path / "missing.jsonl"),
            "--lexicon", str(corpus_files / "lexicon.json"),
            "--out", str(tmp_path / "bundle"),
        ], capsys)
        assert code == 1
        assert "error:" in err and "missing.jsonl" in err

    def test_config_file_with_flag_override(self, corpus_files, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "corpus": str(corpus_files / "corpus.jsonl"),
            "lexicon": str(corpus_files / "lexicon.json"),
            "kind": "mlp",
            "out": str(tmp_path / "bundle"),
        }))
        code, _, _ = run_cli(
            ["train", "--config", str(config), "--kind", "cosine"], capsys
        )
        assert code == 0
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert manifest["kind"] == "cosine"

    def test_unknown_config_key_exits_one(self, corpus_files, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"lexiconn": "typo.json"}))
        code, _, err = run_cli(["train", "--config", str(config)], capsys)
        assert code == 1
        assert "lexiconn" in err

    def test_invalid_choice_exits_one(self, capsys):
        code, _, err = run_cli(["train", "--kind", "forest"], capsys)
        assert code == 1
        assert "error:" in err

    def test_bare_invocation_exits_one(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert "error:" in err


def test_flags_config_keys_and_options_agree():
    """Each PipelineOptions field is reachable from train; each flag is a key
    whose config value has the flag's type."""
    fields = {f.name for f in dataclasses.fields(PipelineOptions)}
    assert fields <= _ALLOWED_KEYS["train"].keys()
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for name, parser in subparsers.choices.items():
        dests = {a.dest for a in parser._actions} - {"help", "config"}
        assert dests == _ALLOWED_KEYS[name].keys(), name
        for action in parser._actions:
            if action.dest in dests:
                flag_type = bool if action.const is not None else action.type or str
                assert _ALLOWED_KEYS[name][action.dest] is flag_type, action.dest


def test_prediction_lines_equal_json_dumps(monkeypatch):
    ids = ['a"b', "back\\slash", "ctl\x01", "caf\u00e9", "line\u2028sep"]
    labels = [
        [Domain.OTHER], [Domain.MOOD], [Domain.SUBSTANCE, Domain.MOOD],
        [Domain.OTHER], [Domain.APPEARANCE],
    ]
    values = [0.0, -0.0, 5e-324, 0.1, 1.0, 0.999999999999, 1e-17]
    scores = np.array([np.roll(values, i) for i in range(len(ids))])
    monkeypatch.setattr(
        cli_module, "classify_batch", lambda pipeline, texts: (labels, scores)
    )
    paragraphs = [Paragraph(id=pid, text="calm", source="training") for pid in ids]
    names = [d.value for d in CLASSIFIED_DOMAINS]
    expected = "".join(
        json.dumps({
            "id": pid,
            "labels": [d.value for d in assigned],
            "scores": dict(zip(names, row)),
        }) + "\n"
        for pid, assigned, row in zip(ids, labels, scores.tolist())
    )
    assert cli_module._prediction_lines(None, paragraphs) == expected


class TestCliClassifyEvaluate:
    def test_flow_and_report_files(self, cli_bundle, corpus_files, tmp_path, capsys):
        predictions = tmp_path / "predictions.jsonl"
        code, _, _ = run_cli([
            "classify", "--bundle", str(cli_bundle),
            "--corpus", str(corpus_files / "corpus.jsonl"),
            "--out", str(predictions),
        ], capsys)
        assert code == 0
        lines = predictions.read_text().splitlines()
        gold = load_gold(corpus_files / "gold.jsonl")
        assert len(lines) == len(gold)
        first = json.loads(lines[0])
        assert set(first) == {"id", "labels", "scores"}
        assert len(first["scores"]) == 7

        out_stem = tmp_path / "metrics"
        code, out, _ = run_cli([
            "evaluate", "--predictions", str(predictions),
            "--gold", str(corpus_files / "gold.jsonl"),
            "--out", str(out_stem),
        ], capsys)
        assert code == 0
        assert "Overall" in out
        report = json.loads((tmp_path / "metrics.json").read_text())
        assert report["n_paragraphs"] == len(gold)
        assert 0.0 <= report["overall"]["f1"] <= 1.0
        assert "Overall" in (tmp_path / "metrics.txt").read_text()

    def test_classify_stdout(self, cli_bundle, corpus_files, capsys):
        code, out, _ = run_cli([
            "classify", "--bundle", str(cli_bundle),
            "--corpus", str(corpus_files / "corpus.jsonl"),
        ], capsys)
        assert code == 0
        parsed = [json.loads(line) for line in out.splitlines()]
        assert all(p["labels"] for p in parsed)

    def test_classify_out_in_missing_directory_exits_one(
        self, cli_bundle, corpus_files, tmp_path, capsys
    ):
        out = tmp_path / "missing" / "predictions.jsonl"
        code, _, err = run_cli([
            "classify", "--bundle", str(cli_bundle),
            "--corpus", str(corpus_files / "corpus.jsonl"), "--out", str(out),
        ], capsys)
        assert code == 1
        assert err.startswith("error: ") and str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_classify_out_onto_a_directory_keeps_it(
        self, cli_bundle, corpus_files, tmp_path, capsys
    ):
        out = tmp_path / "predictions"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        code, _, err = run_cli([
            "classify", "--bundle", str(cli_bundle),
            "--corpus", str(corpus_files / "corpus.jsonl"), "--out", str(out),
        ], capsys)
        assert code == 1
        assert err.startswith("error: ") and str(out) in err
        assert (out / "notes.txt").read_text() == "kept"
        assert list(tmp_path.iterdir()) == [out]

    def test_classify_empty_corpus(self, cli_bundle, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, _ = run_cli([
            "classify", "--bundle", str(cli_bundle), "--corpus", str(empty)
        ], capsys)
        assert code == 0
        assert out == ""

    def test_classify_missing_bundle_exits_two(self, corpus_files, tmp_path, capsys):
        code, _, err = run_cli([
            "classify", "--bundle", str(tmp_path / "nope"),
            "--corpus", str(corpus_files / "corpus.jsonl"),
        ], capsys)
        assert code == 2
        assert "not a model bundle" in err

    def test_evaluate_id_mismatch_exits_two(self, corpus_files, tmp_path, capsys):
        gold = load_gold(corpus_files / "gold.jsonl")
        predictions = tmp_path / "predictions.jsonl"
        with open(predictions, "w") as f:
            for pid in gold:
                f.write(json.dumps({"id": pid, "labels": ["Mood"]}) + "\n")
            for i in range(12):
                f.write(json.dumps({"id": f"extra-{i:02d}", "labels": ["Mood"]}) + "\n")
        code, _, err = run_cli([
            "evaluate", "--predictions", str(predictions),
            "--gold", str(corpus_files / "gold.jsonl"),
        ], capsys)
        assert code == 2
        assert "12 ids do not align" in err
        offenders = err.split("first offenders: ")[1].strip()
        assert len(offenders.split(", ")) == 10


class TestChunkedClassify:
    """classify reads, classifies and writes CLASSIFY_CHUNK paragraphs at a time."""

    CHUNK = 50

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cli_module, "CLASSIFY_CHUNK", self.CHUNK)

    @pytest.fixture
    def bundle(self, trained_mlp, tmp_path):
        return save_bundle(tmp_path / "bundle", trained_mlp.pipeline)

    def test_output_equals_one_whole_corpus_batch(
        self, trained, corpus_files, tmp_path, capsys, monkeypatch
    ):
        corpus = corpus_files / "corpus.jsonl"
        bundle = save_bundle(tmp_path / "bundle", trained.pipeline)
        sizes = []

        def spy(pipeline, texts):
            sizes.append(len(texts))
            return classify_batch(pipeline, texts)

        monkeypatch.setattr(cli_module, "classify_batch", spy)
        out = tmp_path / "predictions.jsonl"
        code, _, _ = run_cli(
            ["classify", "--bundle", str(bundle), "--corpus", str(corpus),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        paragraphs = load_paragraphs(corpus)
        assert len(sizes) > 2 and max(sizes) <= self.CHUNK
        assert sum(sizes) == len(paragraphs)

        labels, scores = classify_batch(trained.pipeline, [p.text for p in paragraphs])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == [p.id for p in paragraphs]
        assert [r["labels"] for r in records] == [[d.value for d in ls] for ls in labels]
        got = np.array([[r["scores"][d.value] for d in CLASSIFIED_DOMAINS] for r in records])
        assert np.max(np.abs(got - scores)) <= 1e-12

        code, stdout, _ = run_cli(
            ["classify", "--bundle", str(bundle), "--corpus", str(corpus)], capsys
        )
        assert code == 0 and stdout == out.read_text()

    @pytest.mark.parametrize("bad_line", [
        b'{"id": "bad", "text": "anxious \xff"}',
        b'{"id": "bad"}',
        b'{"id": "syn-00000", "text": "anxious"}',  # the first record's id
    ], ids=["invalid_utf8", "no_text", "duplicate_id"])
    @pytest.mark.parametrize("existing", [None, "earlier predictions\n"])
    def test_bad_record_past_first_chunk_leaves_no_output(
        self, bundle, corpus_files, tmp_path, capsys, bad_line, existing
    ):
        lines = (corpus_files / "corpus.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) > 2 * self.CHUNK
        work = tmp_path / "work"
        work.mkdir()
        corpus = work / "corpus.jsonl"
        corpus.write_bytes(b"".join([*lines[: self.CHUNK + 3], bad_line + b"\n",
                                     *lines[self.CHUNK + 3 :]]))
        out = work / "predictions.jsonl"
        if existing is not None:
            out.write_text(existing)
        before = sorted(p.name for p in work.iterdir())
        code, stdout, err = run_cli(
            ["classify", "--bundle", str(bundle), "--corpus", str(corpus),
             "--out", str(out)],
            capsys,
        )
        assert code == 2, err
        assert f"corpus.jsonl:{self.CHUNK + 4}:" in err
        assert stdout == ""
        assert sorted(p.name for p in work.iterdir()) == before
        if existing is not None:
            assert out.read_text() == existing

    def test_stdout_holds_the_chunks_finished_before_an_error(
        self, bundle, corpus_files, tmp_path, capsys
    ):
        good = corpus_files / "corpus.jsonl"
        lines = good.read_bytes().splitlines(keepends=True)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"".join([*lines[: self.CHUNK + 3], b'{"id": "bad"}\n']))
        code, stdout, _ = run_cli(
            ["classify", "--bundle", str(bundle), "--corpus", str(corpus)], capsys
        )
        assert code == 2
        _, whole, _ = run_cli(
            ["classify", "--bundle", str(bundle), "--corpus", str(good)], capsys
        )
        assert stdout.splitlines() == whole.splitlines()[: self.CHUNK]


class TestCliAgreement:
    def test_perfect_agreement_report(self, corpus_files, tmp_path, capsys):
        gold = load_gold(corpus_files / "gold.jsonl")
        annotations = tmp_path / "annotations.jsonl"
        with open(annotations, "w") as f:
            # Stride across the domain-grouped corpus so the first-label
            # view sees more than one category.
            for pid, labels in list(gold.items())[::11][:40]:
                names = [d.value for d in labels]
                f.write(json.dumps({"id": pid, "annotators": [names] * 3}) + "\n")
        out = tmp_path / "agreement.json"
        code, table, _ = run_cli([
            "agreement", "--annotations", str(annotations),
            "--gold", str(corpus_files / "gold.jsonl"),
            "--out", str(out),
        ], capsys)
        assert code == 0
        assert "Fleiss kappa" in table and "almost perfect" in table
        report = json.loads(out.read_text())
        assert report["overall"]["fleiss_kappa"] == pytest.approx(1.0, abs=1e-12)
        assert report["first_domain_only"]["multi_kappa"] == pytest.approx(
            1.0, abs=1e-12
        )
        assert report["per_annotator_accuracy"]["exact_set"] == [1.0, 1.0, 1.0]


class TestCliProjectLda:
    def test_weak_label_path_deterministic(
        self, cli_bundle, corpus_files, tmp_path, capsys
    ):
        args = [
            "project-lda", "--bundle", str(cli_bundle),
            "--corpus", str(corpus_files / "corpus.jsonl"),
        ]
        code, _, _ = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        assert code == 0
        code, _, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        svg = (tmp_path / "a.svg").read_text()
        assert svg.startswith("<?xml")
        header, *rows = (tmp_path / "a.csv").read_text().splitlines()
        assert header == "id,domain,x,y"
        assert len(rows) > 100

    def test_gold_path_excludes_other(
        self, cli_bundle, corpus_files, tmp_path, capsys
    ):
        code, _, _ = run_cli([
            "project-lda", "--bundle", str(cli_bundle),
            "--corpus", str(corpus_files / "corpus.jsonl"),
            "--gold", str(corpus_files / "gold.jsonl"),
            "--out", str(tmp_path / "proj"),
        ], capsys)
        assert code == 0
        gold = load_gold(corpus_files / "gold.jsonl")
        expected = sum(labels[0] is not Domain.OTHER for labels in gold.values())
        rows = (tmp_path / "proj.csv").read_text().splitlines()[1:]
        assert len(rows) == expected
        assert all(row.split(",")[1] != "Other" for row in rows)

    def test_single_class_gold_exits_two(
        self, cli_bundle, corpus_files, tmp_path, capsys
    ):
        gold = load_gold(corpus_files / "gold.jsonl")
        narrowed = tmp_path / "gold.jsonl"
        with open(narrowed, "w") as f:
            for pid, labels in gold.items():
                if labels[0] is Domain.MOOD:
                    f.write(json.dumps({"id": pid, "labels": ["Mood"]}) + "\n")
        code, _, err = run_cli([
            "project-lda", "--bundle", str(cli_bundle),
            "--corpus", str(corpus_files / "corpus.jsonl"),
            "--gold", str(narrowed),
            "--out", str(tmp_path / "proj"),
        ], capsys)
        assert code == 2
        assert "error:" in err
