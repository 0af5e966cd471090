"""Bundle persistence and the command line interface."""

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import riskdomains
import riskdomains.bundle as bundle_module
import riskdomains.cli as cli_module
import riskdomains.vectorspace as vectorspace
from riskdomains.bundle import load_bundle, manifest_sha256, save_bundle
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


def write_sealed(path, manifest) -> None:
    """Write an edited manifest with the manifest_sha256 of its new fields,
    so that a load passes the hash check and reaches the check a test is
    written for."""
    sealed = {**manifest, "manifest_sha256": manifest_sha256(manifest)}
    path.write_text(json.dumps(sealed))


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
        listed = {"manifest.json", "words.txt"}
        listed |= {f"{name}.bin" for name in manifest["arrays"]}
        assert set(dir_bytes(saved)) == listed
        assert len(listed) == 2 + len(manifest["arrays"])

    def test_thresholds_survive_round_trip(self, trained, tmp_path):
        save_bundle(tmp_path / "bundle", trained.pipeline)
        loaded, _, _ = load_bundle(tmp_path / "bundle")
        assert np.array_equal(
            loaded.thresholds.thresholds, trained.pipeline.thresholds.thresholds
        )
        assert loaded.thresholds.alpha == trained.pipeline.thresholds.alpha

    def test_loaded_terms_and_index_are_the_trained_ones(self, trained, tmp_path):
        """A load reads the stored key table; the terms and the index it
        rebuilds on first read are the fit's, and so is the table."""
        vocabulary = trained.pipeline.tfidf.vocabulary
        save_bundle(tmp_path / "bundle", trained.pipeline)
        loaded = load_bundle(tmp_path / "bundle")[0].tfidf.vocabulary
        assert "terms" not in vars(loaded) and "index" not in vars(loaded)
        assert loaded.terms == vocabulary.terms
        assert loaded.index == vocabulary.index
        table, stored = vocabulary.key_table, loaded.key_table
        assert stored.word_ids == table.word_ids
        assert np.array_equal(stored.keys, table.keys)
        assert np.array_equal(stored.columns, table.columns)

    def test_classify_derives_no_key_table(
        self, trained, corpus_files, tmp_path, capsys, monkeypatch
    ):
        """A format 5 load and classify split no term: with the derivation
        made to fail, classify still exits 0 and prints the same lines."""
        saved = save_bundle(tmp_path / "bundle", trained.pipeline)
        before = classify_out(saved, corpus_files, capsys)

        def derive(terms):
            raise AssertionError("a load derived the key table")

        monkeypatch.setattr(vectorspace, "derive_key_table", derive)
        assert classify_out(saved, corpus_files, capsys) == before

    def test_whitespace_rewrite_of_manifest_classifies_the_same(
        self, trained_mlp, corpus_files, tmp_path, capsys
    ):
        """manifest_sha256 covers the manifest's fields, not its layout."""
        saved = save_bundle(tmp_path / "bundle", trained_mlp.pipeline)
        before = classify_out(saved, corpus_files, capsys)
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(manifest, indent=None, separators=(",", ":")))
        assert classify_out(saved, corpus_files, capsys) == before
        path.write_text(json.dumps(dict(reversed(manifest.items())), indent="\t"))
        assert classify_out(saved, corpus_files, capsys) == before

    def test_threshold_edit_is_refused(self, trained_mlp, corpus_files, tmp_path, capsys):
        """Lowering one threshold mean, with the hash left as it was, was a
        silent wrong answer before the manifest was hashed."""
        saved = save_bundle(tmp_path / "bundle", trained_mlp.pipeline)
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["thresholds"]["mean"]["Mood"] -= 0.5
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        code, out, err = run_cli(
            ["classify", "--bundle", str(saved),
             "--corpus", str(corpus_files / "corpus.jsonl")],
            capsys,
        )
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "manifest.json" in lines[0] and "manifest_sha256" in lines[0]


def write_older_format(pipeline, directory, version):
    """Save pipeline as format version (1 to 4) wrote it.

    Format 4 stored the terms, one a line, in vocabulary.txt with its
    vocabulary_sha256, where format 5 stores the words and the term keys
    and columns; it had no manifest_sha256. Formats 1 to 3 also held C
    order in every file and recorded no sha256. Formats 1 and 2 also named
    each array's file and dtype and the vocabulary file; format 1 also
    stored idf.bin and thresholds.min.
    """
    saved = save_bundle(directory, pipeline)
    path = saved / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["format_version"] == 5
    manifest["format_version"] = version
    del manifest["manifest_sha256"], manifest["words_sha256"]
    (saved / "words.txt").unlink()
    for name in ("term_keys", "term_columns"):
        (saved / f"{name}.bin").unlink()
        del manifest["arrays"][name]
    vocabulary = "".join(t + "\n" for t in pipeline.tfidf.vocabulary.terms).encode()
    (saved / "vocabulary.txt").write_bytes(vocabulary)
    manifest["vocabulary_sha256"] = hashlib.sha256(vocabulary).hexdigest()
    if version <= 3:
        components = np.ascontiguousarray(pipeline.svd.components)
        components.astype("<f8").tofile(saved / "svd_components.bin")
        del manifest["vocabulary_sha256"]
        for spec in manifest["arrays"].values():
            assert list(spec) == ["sha256", "shape"]
            del spec["sha256"]
    if version <= 2:
        manifest["vocabulary_file"] = "vocabulary.txt"
        for name, spec in manifest["arrays"].items():
            spec.update(file=f"{name}.bin", dtype="<i8" if name == "df" else "<f8")
    if version == 1:
        idf, thresholds = pipeline.tfidf.idf, pipeline.thresholds
        idf.astype("<f8").tofile(saved / "idf.bin")
        assert "idf" not in manifest["arrays"] and "min" not in manifest["thresholds"]
        manifest["arrays"]["idf"] = {
            "file": "idf.bin", "shape": [len(idf)], "dtype": "<f8"
        }
        manifest["thresholds"]["min"] = {
            d.value: thresholds.thresholds[i] for i, d in enumerate(CLASSIFIED_DOMAINS)
        }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return saved


def assert_loads_like_format_5(pipeline, version, corpus_files, tmp_path, capsys):
    """An older bundle's components load bit-identical to the format 5
    load, in Fortran order, and it classifies byte-identically."""
    saved = save_bundle(tmp_path / "v5", pipeline)
    old = write_older_format(pipeline, tmp_path / f"v{version}", version)
    components = load_bundle(saved)[0].svd.components
    old_components = load_bundle(old)[0].svd.components
    assert old_components.flags.f_contiguous
    assert old_components.tobytes(order="F") == components.tobytes(order="F")
    assert classify_out(old, corpus_files, capsys) == classify_out(
        saved, corpus_files, capsys
    )


class TestOlderBundles:
    """Bundles written before the manifest lost fields the reader can derive,
    and before each file held its array's own memory and hash."""

    def test_format_1_bundle_loads_like_format_2(
        self, trained, corpus_files, tmp_path, capsys
    ):
        """Format 1 also stored idf.bin and thresholds.min; both are ignored."""
        assert_loads_like_format_5(trained.pipeline, 1, corpus_files, tmp_path, capsys)

    def test_format_2_bundle_classifies_like_format_3(
        self, trained, corpus_files, tmp_path, capsys
    ):
        """Format 2 also named each array's file and dtype and the vocabulary."""
        assert_loads_like_format_5(trained.pipeline, 2, corpus_files, tmp_path, capsys)

    def test_format_3_bundle_classifies_like_format_4(
        self, trained, corpus_files, tmp_path, capsys
    ):
        """Format 3 stored svd_components in C order and no hashes."""
        assert_loads_like_format_5(trained.pipeline, 3, corpus_files, tmp_path, capsys)

    def test_format_4_bundle_classifies_like_format_5(
        self, trained, corpus_files, tmp_path, capsys
    ):
        """Format 4 stored the terms, whose key table the first classify
        derives, and left the manifest unhashed."""
        assert_loads_like_format_5(trained.pipeline, 4, corpus_files, tmp_path, capsys)
        old = load_bundle(tmp_path / "v4")[0].tfidf.vocabulary
        assert "key_table" not in vars(old)
        assert old.terms == trained.pipeline.tfidf.vocabulary.terms

    @pytest.mark.parametrize(
        "edit", ["array_file_in_parent", "vocabulary_file_not_string"]
    )
    def test_old_manifest_names_are_not_followed(
        self, edit, trained_mlp, corpus_files, tmp_path, capsys
    ):
        """The file, dtype and vocabulary_file fields older formats wrote are
        ignored, so no string from a manifest ever becomes a path."""
        saved = save_bundle(tmp_path / "bundle", trained_mlp.pipeline)
        before = classify_out(saved, corpus_files, capsys)
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        if edit == "array_file_in_parent":
            # Reversed, df still loads but would move every score.
            df = np.fromfile(saved / "df.bin", dtype="<i8")
            df[::-1].tofile(tmp_path / "df.bin")
            manifest["arrays"]["df"]["file"] = "../df.bin"
        else:
            manifest["vocabulary_file"] = 5
        write_sealed(path, manifest)
        assert classify_out(saved, corpus_files, capsys) == before

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
        write_sealed(path, {**manifest, **extra})
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
        write_sealed(path, manifest)
        loaded, loaded_lexicon, _ = load_bundle(saved)
        assert loaded_lexicon.fusion == {}
        texts = [p.text for p in paragraphs]
        labels_a, scores_a = classify_batch(trained_mlp_nomwe.pipeline, texts)
        labels_b, scores_b = classify_batch(loaded, texts)
        assert labels_a == labels_b
        assert np.array_equal(scores_a, scores_b)


# Loads a bundle and classifies as the classify subcommand does, then lists
# every SciPy module the process imported.
CLASSIFY_IMPORTS = """
import sys
import riskdomains.cli
from riskdomains.bundle import load_bundle
from riskdomains.classify import classify_batch
classify_batch(load_bundle(sys.argv[1])[0], ["low mood, no sleep"])
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""

# Runs the CLI with its arguments; with "block", any import of SciPy fails.
RUN_CLI = """
import sys
if sys.argv.pop(1) == "block":
    sys.modules["scipy"] = None
from riskdomains.cli import main
sys.exit(main(sys.argv[1:]))
"""


def package_env() -> dict:
    path = [str(Path(riskdomains.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.mark.parametrize("kind", ["mlp", "rbf", "cosine"])
def test_classify_imports_no_training_scipy(kind, request, tmp_path):
    """Only training (fit_svd) and project-lda (lda_2d) need SciPy, which
    adds about 0.17 s and 17 MiB to a process, so importing the CLI,
    loading any kind's bundle and classifying must import no SciPy module."""
    pipeline = request.getfixturevalue(f"trained_{kind}").pipeline
    saved = save_bundle(tmp_path / "bundle", pipeline)
    run = subprocess.run(
        [sys.executable, "-c", CLASSIFY_IMPORTS, str(saved)],
        capture_output=True, text=True, env=package_env(), check=True,
    )
    assert run.stdout == "[]\n"


def test_classify_runs_with_scipy_blocked(trained_mlp, corpus_files, tmp_path):
    """riskdomains classify needs no SciPy at all: with every SciPy import
    made to fail, it exits 0 and writes what an unblocked run writes."""
    saved = save_bundle(tmp_path / "bundle", trained_mlp.pipeline)
    outputs = []
    for mode in ("block", "allow"):
        out = tmp_path / f"{mode}.jsonl"
        run = subprocess.run(
            [sys.executable, "-c", RUN_CLI, mode, "classify", "--bundle", str(saved),
             "--corpus", str(corpus_files / "corpus.jsonl"), "--out", str(out)],
            capture_output=True, text=True, env=package_env(),
        )
        assert run.returncode == 0, run.stderr
        outputs.append(out.read_bytes())
    lines = (corpus_files / "corpus.jsonl").read_bytes().count(b"\n")
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == lines


class TestBundleErrors:
    @pytest.fixture
    def saved(self, trained_mlp, tmp_path):
        return save_bundle(tmp_path / "bundle", trained_mlp.pipeline)

    def edit_manifest(self, saved: Path, mutate) -> None:
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        write_sealed(path, manifest)

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
        # The last column's key goes, so the columns are still a permutation.
        keys = np.fromfile(saved / "term_keys.bin", dtype="<i8")
        columns = np.fromfile(saved / "term_columns.bin", dtype="<i8")
        kept = columns != columns.max()
        for name, array in (("term_keys", keys), ("term_columns", columns)):
            array[kept].tofile(saved / f"{name}.bin")
        # The edited files' own hashes, so the load reaches the size check.

        def mutate(manifest):
            for name in ("term_keys", "term_columns"):
                raw = (saved / f"{name}.bin").read_bytes()
                manifest["arrays"][name] = {
                    "shape": [len(raw) // 8], "sha256": hashlib.sha256(raw).hexdigest()
                }

        self.edit_manifest(saved, mutate)
        with pytest.raises(DataError, match="vocabulary size"):
            load_bundle(saved)

    def test_over_wide_vocabulary_fails_train(
        self, corpus_files, tmp_path, capsys, monkeypatch
    ):
        """A vocabulary whose keys would not fit in 64 bits fails train,
        where the save derives the key table, before any directory is
        written; a classify of its bundle would fail every time."""
        key_base = vectorspace._key_base

        def too_many_words(count, where="the training vocabulary"):
            return key_base(count + 2**21, where)

        monkeypatch.setattr(vectorspace, "_key_base", too_many_words)
        code, _, err = run_cli(
            ["train", "--kind", "cosine",
             "--corpus", str(corpus_files / "corpus.jsonl"),
             "--lexicon", str(corpus_files / "lexicon.json"),
             "--out", str(tmp_path / "models" / "bundle")],
            capsys,
        )
        assert code == 2
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err, err
        assert "the training vocabulary holds" in errors[0]
        assert list(tmp_path.iterdir()) == []

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

        def fail_on_third(directory, name, array):
            written.append(name)
            if len(written) == 3:
                raise OSError("disk full")
            return write_array(directory, name, array)

        monkeypatch.setattr(bundle_module, "_write_array", fail_on_third)
        with pytest.raises(OSError, match="disk full"):
            save_bundle(saved, trained_mlp.pipeline)
        assert dir_bytes(saved) == before
        load_bundle(saved)
        assert [p.name for p in saved.parent.iterdir()] == [saved.name]

    def test_failed_save_removes_directory(self, trained_mlp, tmp_path, monkeypatch):
        def disk_full(directory, name, array):
            raise OSError("disk full")

        monkeypatch.setattr(bundle_module, "_write_array", disk_full)
        target = tmp_path / "halfway"
        with pytest.raises(OSError, match="disk full"):
            save_bundle(target, trained_mlp.pipeline)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


def whole_file_read(directory, name, shape, order):
    """The reference read: all bytes at once, as the array's memory in order."""
    dtype = "<i8" if name in ("df", "term_keys", "term_columns") else "<f8"
    raw = (directory / f"{name}.bin").read_bytes()
    return np.frombuffer(raw, dtype=dtype).reshape(shape, order=order)


# An array name whose file holds each memory order.
NAME_OF_ORDER = {"C": "a", "F": "svd_components"}


def write_array_file(directory, name, values, shape):
    """Write values as name's file; returns the manifest arrays recording it."""
    values.tofile(directory / f"{name}.bin")
    return {name: {"shape": shape, "sha256": hashlib.sha256(values).hexdigest()}}


def assert_same_read(got, want, order, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.flags[f"{order}_CONTIGUOUS"], name
    # Bit for bit, without a bytes copy of a large array.
    assert np.array_equal(got.view("<u8"), want.view("<u8")), name


class TestReadArray:
    # values: the size of one more array, in the file of a name held in
    # order; from 2 rows of 4 to 32 MiB, larger than any trained array here.
    @pytest.mark.parametrize("values", [8, 100, 4 * 2**20])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bundle_arrays_match_whole_file_read(
        self, trained_cosine, trained_mlp, trained_rbf, trained_mlp_nomwe,
        tmp_path, order, values,
    ):
        """Each array held in order, of every kind's bundle and of a file of
        values values, reads back as its whole file's bytes in that order."""
        kinds = [trained_cosine, trained_mlp, trained_rbf, trained_mlp_nomwe]
        for i, trained in enumerate(kinds):
            saved = save_bundle(tmp_path / f"bundle{i}", trained.pipeline)
            arrays = json.loads((saved / "manifest.json").read_text())["arrays"]
            names = [
                name for name in arrays
                if ("F" if name == "svd_components" else "C") == order
            ]
            assert names
            for name in names:
                got = bundle_module._read_array(saved, arrays, name, 4)
                want = whole_file_read(saved, name, arrays[name]["shape"], order)
                assert_same_read(got, want, order, name)
        name = NAME_OF_ORDER[order]
        shape = [values // 4, 4]
        arrays = write_array_file(tmp_path, name, np.arange(values) * 0.1, shape)
        got = bundle_module._read_array(tmp_path, arrays, name, 4)
        assert_same_read(got, whole_file_read(tmp_path, name, shape, order), order, name)

    def test_components_file_is_their_fortran_memory(self, trained_mlp, tmp_path):
        saved = save_bundle(tmp_path / "bundle", trained_mlp.pipeline)
        components = trained_mlp.pipeline.svd.components
        assert components.flags.f_contiguous
        assert (saved / "svd_components.bin").read_bytes() == components.T.tobytes()

    # A dimension may be 1, the smallest the reader accepts.
    @pytest.mark.parametrize(
        "shape", [[5, 7], [2, 3, 4], [1], [1, 9], [9, 1], [3, 1, 2]]
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_any_shape_matches_whole_file_read(self, tmp_path, shape, order):
        name = NAME_OF_ORDER[order]
        values = np.arange(math.prod(shape), dtype="<f8") * 0.1
        arrays = write_array_file(tmp_path, name, values, shape)
        got = bundle_module._read_array(tmp_path, arrays, name, 4)
        want = whole_file_read(tmp_path, name, shape, order)
        assert got.shape == want.shape and got.flags[f"{order}_CONTIGUOUS"]
        assert got.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("shape", [[], [0], [3, 0], [0, 4]])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_empty_shape_is_refused(self, tmp_path, shape, order):
        """No fit stores a 0-d or empty array, even one whose file matches it."""
        name = NAME_OF_ORDER[order]
        arrays = write_array_file(tmp_path, name, np.zeros(math.prod(shape)), shape)
        with pytest.raises(DataError, match=f"'{name}': shape must be a non-empty"):
            bundle_module._read_array(tmp_path, arrays, name, 4)

    def test_non_finite_value_anywhere_is_refused(self, tmp_path):
        for i, bad in enumerate([np.inf, -np.inf, np.nan] * 10):
            values = np.ones(30)
            values[i] = bad
            arrays = write_array_file(tmp_path, "svd_components", values, [6, 5])
            with pytest.raises(DataError, match="non-finite"):
                bundle_module._read_array(tmp_path, arrays, "svd_components", 4)

    @pytest.mark.parametrize("block", [1, 4, 29, 30, 31])
    def test_finiteness_is_checked_in_every_block(self, tmp_path, monkeypatch, block):
        """The thread that checks svd_components tests each block it is
        handed: a non-finite value in any block, the last one partial or
        not, is refused."""
        monkeypatch.setattr(bundle_module, "_READ_BLOCK", block * 8)

        def read(arrays):
            array, checking = bundle_module._read_checking(
                tmp_path, arrays, "svd_components", 4
            )
            checking.wait()
            return array

        values = np.ones(30)
        arrays = write_array_file(tmp_path, "svd_components", values, [6, 5])
        assert read(arrays).all()
        for i in range(30):
            values = np.ones(30)
            values[i] = np.nan
            arrays = write_array_file(tmp_path, "svd_components", values, [6, 5])
            with pytest.raises(DataError, match="non-finite"):
                read(arrays)


    def test_hash_is_checked_before_finiteness(self, tmp_path):
        """Bytes that miss their sha256 and hold a NaN are refused for the
        hash, by the load's own read and by the thread alike."""
        arrays = write_array_file(tmp_path, "svd_components", np.ones(30), [6, 5])
        values = np.ones(30)
        values[3] = np.nan
        values.tofile(tmp_path / "svd_components.bin")
        with pytest.raises(DataError, match="do not match the sha256"):
            bundle_module._read_array(tmp_path, arrays, "svd_components", 4)
        _, checking = bundle_module._read_checking(tmp_path, arrays, "svd_components", 4)
        with pytest.raises(DataError, match="do not match the sha256"):
            checking.wait()


# The error of a components file whose bytes miss their sha256.
COMPONENTS_MISMATCH = r"svd_components\.bin: bytes do not match the sha256"


class TestComponentsCheckedBesideTheLoad:
    """Format 4 and 5 loads check svd_components on a thread of their own,
    beside the rest of the load: load_bundle joins it before it returns,
    loading_bundle at the end of its with block."""

    @pytest.fixture(params=[4, 5])
    def saved(self, request, trained_mlp, tmp_path):
        """The trained mlp pipeline as a bundle of format 4 or 5."""
        directory = tmp_path / f"v{request.param}"
        if request.param == 5:
            return save_bundle(directory, trained_mlp.pipeline)
        return write_older_format(trained_mlp.pipeline, directory, 4)

    @pytest.fixture
    def failing(self, saved):
        """A bundle of format 4 or 5 whose svd_components misses its sha256."""
        path = saved / "svd_components.bin"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(raw)
        return saved

    def test_load_ends_the_hash_before_it_returns(self, saved, monkeypatch):
        """The components are hashed on another thread, which has ended
        when the load returns."""
        hashed_on = []
        check_sha256 = bundle_module._check_sha256

        def recording(path, sha, recorded):
            check_sha256(path, sha, recorded)
            if path.name == "svd_components.bin":
                hashed_on.append(threading.current_thread())

        monkeypatch.setattr(bundle_module, "_check_sha256", recording)
        threads = threading.active_count()
        load_bundle(saved)
        assert len(hashed_on) == 1
        assert hashed_on[0] is not threading.current_thread()
        assert not hashed_on[0].is_alive()
        assert threading.active_count() == threads

    def test_block_runs_beside_the_check(self, failing, monkeypatch):
        """A with block of loading_bundle runs while the check does; its end
        waits for the check, whose failure replaces the block's error."""
        release = threading.Event()
        check_sha256 = bundle_module._check_sha256

        def held(path, sha, recorded):
            if path.name == "svd_components.bin":
                assert release.wait(10)
            check_sha256(path, sha, recorded)

        monkeypatch.setattr(bundle_module, "_check_sha256", held)
        threads = threading.active_count()
        with pytest.raises(DataError, match=COMPONENTS_MISMATCH):
            with bundle_module.loading_bundle(failing) as (pipeline, _, _):
                assert threading.active_count() == threads + 1
                release.set()
                raise ValueError("the block failed first")
        assert threading.active_count() == threads

    def test_failed_hash_is_the_error_of_the_load(self, failing):
        """No pipeline with unchecked components is returned, so none can be
        classified with or saved afresh."""
        threads = threading.active_count()
        with pytest.raises(DataError, match=COMPONENTS_MISMATCH):
            load_bundle(failing)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("block", [64, 4096 + 8, 2**30])
    def test_blocks_are_read_and_hashed_whole(self, saved, trained_mlp, monkeypatch, block):
        """Whatever the block size, the last block partial or not, the load
        reads the components the save wrote, and their hash matches."""
        monkeypatch.setattr(bundle_module, "_READ_BLOCK", block)
        got = load_bundle(saved)[0].svd.components
        np.testing.assert_array_equal(got, trained_mlp.pipeline.svd.components)

    def test_file_cut_short_during_the_load_is_refused(self, saved, monkeypatch):
        """A file that loses bytes after its size was checked hashes short."""
        array_spec = bundle_module._array_spec

        def then_cut(directory, arrays, name, version):
            spec = array_spec(directory, arrays, name, version)
            if name == "svd_components":
                path = spec[0]
                path.write_bytes(path.read_bytes()[:-8])
            return spec

        monkeypatch.setattr(bundle_module, "_array_spec", then_cut)
        threads = threading.active_count()
        with pytest.raises(DataError, match=COMPONENTS_MISMATCH):
            load_bundle(saved)
        assert threading.active_count() == threads

    def test_failed_hash_is_the_error_of_a_failed_load(self, failing):
        """A load that fails after starting the hash reports the hash, as
        when it was checked first, and leaves no thread behind."""
        path = failing / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["thresholds"]
        if "manifest_sha256" in manifest:
            write_sealed(path, manifest)
        else:
            path.write_text(json.dumps(manifest))
        threads = threading.active_count()
        with pytest.raises(DataError, match=COMPONENTS_MISMATCH):
            load_bundle(failing)
        assert threading.active_count() == threads

    def test_older_formats_are_checked_in_the_load(self, trained_mlp, tmp_path):
        """Formats 1 to 3 record no hash; their finiteness is checked before
        load_bundle returns."""
        saved = write_older_format(trained_mlp.pipeline, tmp_path / "v3", 3)
        path = saved / "svd_components.bin"
        values = np.fromfile(path, dtype="<f8")
        values[-1] = np.inf
        values.tofile(path)
        with pytest.raises(DataError, match="'svd_components' holds non-finite"):
            load_bundle(saved)


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
            if keys == ("manifest_sha256",):
                path.write_text(json.dumps(edited))
            else:
                write_sealed(path, edited)
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


def classify_out(bundle, corpus_files, capsys) -> str:
    """What classify prints for the small corpus; it must exit 0."""
    code, out, err = run_cli(
        ["classify", "--bundle", str(bundle),
         "--corpus", str(corpus_files / "corpus.jsonl")],
        capsys,
    )
    assert code == 0, err
    return out


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

    def test_clamped_svd_k_is_recorded_and_warned_once(
        self, corpus_files, tmp_path, capsys
    ):
        # Three paragraphs per domain, each its first three keywords: N = 21
        # and V = 42, so the default svd_k 100 is clamped to 21.
        lexicon = json.loads((corpus_files / "lexicon.json").read_text())
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"{domain}-{i}", "text": " ".join(entry["keywords"][:3])})
            + "\n"
            for domain, entry in lexicon.items()
            for i in range(3)
        ))
        code, _, err = run_cli([
            "train", "--kind", "cosine", "--corpus", str(corpus),
            "--lexicon", str(corpus_files / "lexicon.json"),
            "--out", str(tmp_path / "bundle"),
        ], capsys)
        assert code == 0, err
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        k = manifest["arrays"]["svd_components"]["shape"][0]
        assert manifest["training"]["svd_k"] == k < 100
        assert [line for line in err.splitlines() if "warning" in line.lower()] == [
            f"warning: svd k=100 exceeds min(N,V)={k}; clamping to {k}"
        ]

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
