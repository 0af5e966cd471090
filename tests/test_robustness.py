"""Malformed inputs end in one error line and the documented exit code.

Each case corrupts one field of a bundle, corpus, lexicon or config, or
passes input the program cannot use, and runs the CLI in-process; a case may
also give a pattern the error line must match. The contract: exit 1 for a
config error, 2 for a data error, a single "error:" line on stderr, and
never a traceback or a silent exit 0.
"""

import json
import re
import shutil

import numpy as np
import pytest

from riskdomains.bundle import save_bundle
from riskdomains.cli import main


@pytest.fixture(scope="module")
def bundles(tmp_path_factory, trained_mlp, trained_rbf, trained_cosine):
    root = tmp_path_factory.mktemp("bundles")
    return {
        "mlp": save_bundle(root / "mlp", trained_mlp.pipeline),
        "rbf": save_bundle(root / "rbf", trained_rbf.pipeline),
        "cosine": save_bundle(root / "cosine", trained_cosine.pipeline),
    }


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def corrupt_bundle(kind, corrupt, *corpus_lines):
    """Classify with a corrupted copy of a saved bundle.

    The corpus is the good one, or a file holding the given raw lines.
    """

    def case(tmp_path, corpus_files, bundles):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundles[kind], bundle)
        corrupt(bundle)
        corpus = corpus_files / "corpus.jsonl"
        if corpus_lines:
            corpus = write_lines(tmp_path / "corpus.jsonl", corpus_lines)
        return ["classify", "--bundle", str(bundle), "--corpus", str(corpus)]

    return case


def edit_manifest(mutate):
    def corrupt(bundle):
        path = bundle / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    return corrupt


def reshape_array(name, reshape):
    """Give one array a new shape of the same size in the manifest."""

    def mutate(manifest):
        spec = manifest["arrays"][name]
        spec["shape"] = reshape(spec["shape"])

    return edit_manifest(mutate)


def map_singular_values(transform):
    """Rewrite svd_singular_values.bin as a function of its values."""

    def corrupt(bundle):
        path = bundle / "svd_singular_values.bin"
        transform(np.fromfile(path, dtype="<f8")).astype("<f8").tofile(path)

    return corrupt


def fill_array(name, value):
    """Overwrite every entry of one float array with a finite value."""

    def corrupt(bundle):
        path = bundle / f"{name}.bin"
        n = len(path.read_bytes()) // 8
        path.write_bytes(np.full(n, value, dtype="<f8").tobytes())

    return corrupt


def negate_df_shape(manifest):
    """Two negative dimensions whose product still matches the file size."""
    (n,) = manifest["arrays"]["df"]["shape"]
    manifest["arrays"]["df"]["shape"] = [-1, -n]


def set_first_df(value):
    def corrupt(bundle):
        path = bundle / "df.bin"
        df = np.fromfile(path, dtype="<i8")
        df[0] = value
        df.tofile(path)

    return corrupt


def edit_vocabulary(mutate):
    """Edit the list of vocabulary lines in place; the count stays the same."""

    def corrupt(bundle):
        path = bundle / "vocabulary.txt"
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("".join(line + "\n" for line in lines))

    return corrupt


def swap_first_terms(lines):
    lines[0], lines[1] = lines[1], lines[0]


def repeat_second_term(lines):
    """The second term overwrites the third, so it appears twice."""
    lines[2] = lines[1]


def insert_invalid_utf8(name):
    """Insert one 0xff byte, which is never valid UTF-8, into a bundle file."""

    def corrupt(bundle):
        path = bundle / name
        raw = path.read_bytes()
        path.write_bytes(raw[:10] + b"\xff" + raw[10:])

    return corrupt


def zero_megadoc_row(bundle):
    """Zero the first (Appearance) megadocument vector."""
    path = bundle / "megadoc_vectors.bin"
    vectors = np.fromfile(path, dtype="<f8").reshape(7, -1)
    vectors[0] = 0.0
    vectors.tofile(path)


def vocabulary_outside(bundle):
    """Move the vocabulary next to the bundle and name it there by absolute
    path in the vocabulary_file field older formats wrote, which is ignored."""
    outside = bundle.parent / "vocabulary.txt"
    (bundle / "vocabulary.txt").rename(outside)
    edit_manifest(lambda m: m.update(vocabulary_file=str(outside)))(bundle)


def empty_vocabulary(bundle):
    """No term: empty vocabulary and df, k×0 components, corpus_size -5."""
    (bundle / "vocabulary.txt").write_text("")
    for name in ("df", "svd_components"):
        (bundle / f"{name}.bin").write_bytes(b"")

    def mutate(manifest):
        manifest["arrays"]["df"]["shape"] = [0]
        manifest["arrays"]["svd_components"]["shape"][1] = 0
        manifest["corpus_size"] = -5

    edit_manifest(mutate)(bundle)


def zero_svd_dimensions(bundle):
    """k = 0: (0, V) components, no singular values, and a (0, H1) mlp_w1."""
    for name in ("svd_components", "svd_singular_values", "mlp_w1"):
        (bundle / f"{name}.bin").write_bytes(b"")

    def mutate(manifest):
        arrays = manifest["arrays"]
        arrays["svd_components"]["shape"][0] = 0
        arrays["svd_singular_values"]["shape"] = [0]
        arrays["mlp_w1"]["shape"][0] = 0

    edit_manifest(mutate)(bundle)


def classify_with_seed(tmp_path, corpus_files, bundles):
    return [
        "classify", "--seed", "1", "--bundle", str(bundles["mlp"]),
        "--corpus", str(corpus_files / "corpus.jsonl"),
    ]


def train_rbf_on_small_synth(tmp_path, corpus_files, bundles):
    """rbf needs 50 weakly labeled paragraphs per domain; give it about 20."""
    data = tmp_path / "data"
    assert main([
        "synth", "--seed", "7", "--out", str(data),
        "--paragraphs-per-domain", "20", "--multilabel-per-domain", "3",
    ]) == 0
    return [
        "train", "--kind", "rbf", "--corpus", str(data / "corpus.jsonl"),
        "--lexicon", str(data / "lexicon.json"), "--out", str(tmp_path / "out"),
    ]


def classify_corpus_lines(*lines):
    """Classify a corpus file holding the given raw lines with a good bundle."""

    def case(tmp_path, corpus_files, bundles):
        corpus = write_lines(tmp_path / "corpus.jsonl", lines)
        return ["classify", "--bundle", str(bundles["mlp"]), "--corpus", str(corpus)]

    return case


def classify_to_file_past_first_chunk(bad_line):
    """Classify into --out a corpus whose line past the first chunk is bad_line."""

    def case(tmp_path, corpus_files, bundles):
        good = [b'{"id": "p%d", "text": "anxious and tearful"}' % i for i in range(1030)]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"\n".join([*good, bad_line, *good[:3]]) + b"\n")
        return [
            "classify", "--bundle", str(bundles["mlp"]), "--corpus", str(corpus),
            "--out", str(tmp_path / "predictions.jsonl"),
        ]

    return case


def run_on_lines(command, **files):
    """Run a subcommand whose --<flag> files hold the given raw lines."""

    def case(tmp_path, corpus_files, bundles):
        argv = [command]
        for flag, lines in files.items():
            argv += [f"--{flag}", str(write_lines(tmp_path / f"{flag}.jsonl", lines))]
        return argv

    return case


# A well-formed gold or prediction record.
MOOD_RECORD = '{"id": "a", "labels": ["Mood"]}'


def train_with(config=None, lexicon=None):
    """Train with a config file and, if given, a replacement lexicon."""

    def case(tmp_path, corpus_files, bundles):
        lexicon_path = corpus_files / "lexicon.json"
        if lexicon is not None:
            lexicon_path = tmp_path / "lexicon.json"
            lexicon_path.write_text(json.dumps(lexicon))
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "corpus": str(corpus_files / "corpus.jsonl"),
            "lexicon": str(lexicon_path),
            "out": str(tmp_path / "out"),
            **(config or {}),
        }))
        return ["train", "--config", str(config_path)]

    return case


def train_with_lexicon_edit(mutate):
    """Train with the good lexicon after mutate has edited its JSON object."""

    def case(tmp_path, corpus_files, bundles):
        lexicon = json.loads((corpus_files / "lexicon.json").read_text())
        mutate(lexicon)
        return train_with(lexicon=lexicon)(tmp_path, corpus_files, bundles)

    return case


def train_with_bytes(config=None, lexicon=None):
    """Train with a --config or --lexicon file that holds the given raw bytes."""

    def case(tmp_path, corpus_files, bundles):
        argv = [
            "train", "--corpus", str(corpus_files / "corpus.jsonl"),
            "--lexicon", str(corpus_files / "lexicon.json"),
            "--out", str(tmp_path / "out"),
        ]
        for flag, raw in (("config", config), ("lexicon", lexicon)):
            if raw is not None:
                path = tmp_path / f"{flag}.json"
                path.write_bytes(raw)
                argv += [f"--{flag}", str(path)]
        return argv

    return case


def train_with_flags(*flags):
    """Train on the good corpus and lexicon with the given extra flags."""

    def case(tmp_path, corpus_files, bundles):
        return train_with_bytes()(tmp_path, corpus_files, bundles) + list(flags)

    return case


def write_manifest(raw):
    def corrupt(bundle):
        (bundle / "manifest.json").write_bytes(raw)

    return corrupt


def synth_with(config):
    """Run synth with a config file."""

    def case(tmp_path, corpus_files, bundles):
        config_path = tmp_path / "synth.json"
        config_path.write_text(json.dumps({"out": str(tmp_path / "out"), **config}))
        return ["synth", "--config", str(config_path)]

    return case


CASES = {
    "bundle_singular_values_all_nan": (
        corrupt_bundle("mlp", map_singular_values(lambda s: s * np.nan)),
        2,
        "non-finite",
    ),
    "bundle_singular_values_negated": (
        corrupt_bundle("mlp", map_singular_values(np.negative)),
        2,
        "svd_singular_values",
    ),
    "bundle_singular_values_increasing": (
        corrupt_bundle("mlp", map_singular_values(lambda s: s[::-1])),
        2,
        "svd_singular_values",
    ),
    # Finite weights, so the bundle loads, whose products overflow to NaN.
    "bundle_mlp_w1_huge": (
        corrupt_bundle("mlp", fill_array("mlp_w1", 1e308)), 3, "non-finite scores"
    ),
    "bundle_no_kind": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.pop("kind"))), 2
    ),
    "bundle_no_corpus_size": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.pop("corpus_size"))), 2
    ),
    "bundle_no_rbf_width": (
        corrupt_bundle("rbf", edit_manifest(lambda m: m.pop("rbf_width"))), 2
    ),
    "bundle_no_thresholds": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.pop("thresholds"))), 2
    ),
    "bundle_lexicon_unknown_domain": (
        corrupt_bundle(
            "mlp",
            edit_manifest(lambda m: m["lexicon"].update(Mania={"keywords": ["manic"]})),
        ),
        2,
    ),
    "bundle_use_mwes_string": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.update(use_mwes="false"))), 2
    ),
    "bundle_negative_sigma": (
        corrupt_bundle(
            "mlp", edit_manifest(lambda m: m["thresholds"]["sigma"].update(Mood=-0.1))
        ),
        2,
    ),
    "bundle_arrays_not_object": (
        corrupt_bundle(
            "mlp", edit_manifest(lambda m: m.update(arrays=sorted(m["arrays"])))
        ),
        2,
    ),
    "bundle_array_shape_not_integers": (
        corrupt_bundle(
            "mlp", edit_manifest(lambda m: m["arrays"]["df"].update(shape=["x"]))
        ),
        2,
    ),
    "bundle_array_shape_negative": (
        corrupt_bundle("mlp", edit_manifest(negate_df_shape)), 2
    ),
    "bundle_vocabulary_moved_outside": (
        corrupt_bundle("mlp", vocabulary_outside), 2, "vocabulary file missing"
    ),
    # Empty arrays, which no fit stores; accepted, each would label every
    # paragraph Other.
    "bundle_empty_vocabulary": (corrupt_bundle("mlp", empty_vocabulary), 2, "'df'"),
    "bundle_zero_svd_dimensions": (
        corrupt_bundle("mlp", zero_svd_dimensions), 2, "'svd_components'"
    ),
    # No paragraph has a known term, so no cosine is ever computed.
    "bundle_megadoc_vector_zero": (
        corrupt_bundle("cosine", zero_megadoc_row, '{"id": "a", "text": "zzyzx qwfp"}'),
        2,
        "Appearance",
    ),
    "bundle_df_column": (
        corrupt_bundle("mlp", reshape_array("df", lambda s: [*s, 1])),
        2,
        r"df array of shape \[\d+, 1\]",
    ),
    "bundle_df_negative": (
        corrupt_bundle("mlp", set_first_df(-5)), 2, "document frequencies"
    ),
    "bundle_df_above_corpus_size": (
        corrupt_bundle("cosine", set_first_df(10**6)), 2, "corpus_size"
    ),
    "bundle_vocabulary_swapped_lines": (
        corrupt_bundle("mlp", edit_vocabulary(swap_first_terms)), 2, "increasing"
    ),
    "bundle_vocabulary_duplicated_line": (
        corrupt_bundle("mlp", edit_vocabulary(repeat_second_term)), 2, "increasing"
    ),
    "bundle_manifest_invalid_utf8": (
        corrupt_bundle("mlp", insert_invalid_utf8("manifest.json")),
        2,
        r"manifest\.json: .*utf-8",
    ),
    "bundle_vocabulary_invalid_utf8": (
        corrupt_bundle("mlp", insert_invalid_utf8("vocabulary.txt")),
        2,
        r"vocabulary\.txt: .*UTF-8",
    ),
    "corpus_invalid_utf8_past_first_chunk": (
        classify_to_file_past_first_chunk(b'{"id": "x", "text": "anxious \xff"}'),
        2,
        r"corpus\.jsonl:1031: invalid UTF-8",
    ),
    "corpus_deeply_nested_line": (
        classify_corpus_lines("[" * 200_000), 2, r"corpus\.jsonl:1: .*nested"
    ),
    "bundle_lexicon_keyword_uppercase": (
        corrupt_bundle(
            "mlp",
            edit_manifest(lambda m: m["lexicon"]["Mood"]["keywords"].append("Self")),
        ),
        2,
        "Self",
    ),
    "bundle_lexicon_keyword_duplicate": (
        corrupt_bundle(
            "mlp",
            edit_manifest(lambda m: m["lexicon"]["Mood"]["keywords"].append("anxious")),
        ),
        2,
        "duplicate keywords",
    ),
    "bundle_svd_singular_values_reshaped": (
        corrupt_bundle(
            "mlp", reshape_array("svd_singular_values", lambda s: [2, s[0] // 2])
        ),
        2,
        "singular values",
    ),
    "bundle_mlp_w2_reshaped": (
        corrupt_bundle("mlp", reshape_array("mlp_w2", lambda s: [s[0] // 2, s[1] * 2])),
        2,
        r"mlp parameter w2 has shape \[50, 200\]",
    ),
    "bundle_mlp_b2_column": (
        corrupt_bundle("mlp", reshape_array("mlp_b2", lambda s: [*s, 1])),
        2,
        r"mlp parameter b2 has shape \[100, 1\]",
    ),
    "bundle_rbf_b_column": (
        corrupt_bundle("rbf", reshape_array("rbf_b", lambda s: [*s, 1])),
        2,
        r"rbf parameter b has shape \[7, 1\]",
    ),
    "bundle_megadoc_vectors_reshaped": (
        corrupt_bundle("cosine", reshape_array("megadoc_vectors", lambda s: s[::-1])),
        2,
        "megadocument vectors",
    ),
    "bundle_rbf_width_true": (
        corrupt_bundle("rbf", edit_manifest(lambda m: m.update(rbf_width=True))),
        2,
        "rbf_width",
    ),
    "bundle_rbf_width_string": (
        corrupt_bundle("rbf", edit_manifest(lambda m: m.update(rbf_width="0.9"))),
        2,
        "rbf_width",
    ),
    "bundle_corpus_size_string": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.update(corpus_size="12"))),
        2,
        "corpus_size",
    ),
    "bundle_corpus_size_fraction": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.update(corpus_size=7.9))),
        2,
        "corpus_size",
    ),
    "bundle_thresholds_alpha_infinite": (
        corrupt_bundle(
            "mlp", edit_manifest(lambda m: m["thresholds"].update(alpha=float("inf")))
        ),
        2,
        "non-finite",
    ),
    "bundle_corpus_size_huge": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.update(corpus_size=10**400))),
        2,
        "corpus_size",
    ),
    "bundle_thresholds_alpha_string": (
        corrupt_bundle(
            "mlp", edit_manifest(lambda m: m["thresholds"].update(alpha="0.5"))
        ),
        2,
        "alpha",
    ),
    "bundle_threshold_mean_string": (
        corrupt_bundle(
            "mlp", edit_manifest(lambda m: m["thresholds"]["mean"].update(Mood="0.01"))
        ),
        2,
        "Mood",
    ),
    "bundle_threshold_sigma_true": (
        corrupt_bundle(
            "mlp", edit_manifest(lambda m: m["thresholds"]["sigma"].update(Mood=True))
        ),
        2,
        "Mood",
    ),
    "bundle_thresholds_pairs": (
        corrupt_bundle(
            "mlp",
            edit_manifest(
                lambda m: m.update(thresholds=sorted(m["thresholds"].items()))
            ),
        ),
        2,
        "thresholds",
    ),
    "bundle_array_shape_bool": (
        corrupt_bundle("mlp", reshape_array("mlp_b3", lambda s: [True, *s])),
        2,
        "mlp_b3",
    ),
    "bundle_array_shape_huge": (
        corrupt_bundle("mlp", reshape_array("df", lambda s: [2**64 + s[0]])),
        2,
        "df",
    ),
    "bundle_no_lexicon": (
        corrupt_bundle("mlp", edit_manifest(lambda m: m.pop("lexicon"))), 2, "lexicon"
    ),
    "classify_seed_flag": (classify_with_seed, 1),
    "train_rbf_too_few_paragraphs": (
        train_rbf_on_small_synth, 2, r"domain Appearance has \d+ weakly labeled"
    ),
    "corpus_text_not_string": (classify_corpus_lines('{"id": "a", "text": 5}'), 2),
    "corpus_record_not_object": (classify_corpus_lines('["a", "text"]'), 2),
    "corpus_text_empty": (
        classify_corpus_lines(
            '{"id": "a", "text": "anxious depressed tearful"}', '{"id": "b", "text": ""}'
        ),
        2,
        r"corpus\.jsonl:2",
    ),
    "corpus_source_list": (
        classify_corpus_lines('{"id": "a", "text": "anxious tearful", "source": []}'),
        2,
        r"corpus\.jsonl:1: field 'source' must be a string$",
    ),
    "corpus_source_nan": (
        classify_corpus_lines('{"id": "a", "text": "anxious tearful", "source": NaN}'),
        2,
        r"corpus\.jsonl:1: field 'source' must be a string$",
    ),
    "corpus_id_null": (
        classify_corpus_lines('{"id": null, "text": "anxious depressed tearful"}'),
        2,
        r"corpus\.jsonl:1: field 'id'",
    ),
    "gold_id_null": (
        run_on_lines(
            "evaluate",
            predictions=[MOOD_RECORD],
            gold=['{"id": null, "labels": ["Mood"]}'],
        ),
        2,
        r"gold\.jsonl:1: field 'id'",
    ),
    "predictions_id_null": (
        run_on_lines(
            "evaluate",
            predictions=['{"id": null, "labels": ["Mood"]}'],
            gold=[MOOD_RECORD],
        ),
        2,
        r"predictions\.jsonl:1: field 'id'",
    ),
    "annotations_id_null": (
        run_on_lines(
            "agreement",
            annotations=['{"id": null, "annotators": [["Mood"], ["Mood"], ["Mood"]]}'],
            gold=[MOOD_RECORD],
        ),
        2,
        r"annotations\.jsonl:1: field 'id'",
    ),
    "gold_labels_number": (
        run_on_lines(
            "evaluate", predictions=[MOOD_RECORD], gold=['{"id": "a", "labels": 5}']
        ),
        2,
    ),
    "gold_labels_string": (
        run_on_lines(
            "evaluate",
            predictions=[MOOD_RECORD],
            gold=['{"id": "a", "labels": "Other"}'],
        ),
        2,
        "list",
    ),
    "predictions_labels_null": (
        run_on_lines(
            "evaluate", predictions=['{"id": "a", "labels": null}'], gold=[MOOD_RECORD]
        ),
        2,
    ),
    "annotators_number": (
        run_on_lines(
            "agreement", annotations=['{"id": "a", "annotators": 5}'], gold=[MOOD_RECORD]
        ),
        2,
    ),
    "annotators_labels_numbers": (
        run_on_lines(
            "agreement",
            annotations=['{"id": "a", "annotators": [5, 5, 5]}'],
            gold=[MOOD_RECORD],
        ),
        2,
    ),
    "gold_labels_empty": (
        run_on_lines(
            "evaluate", predictions=[MOOD_RECORD], gold=['{"id": "a", "labels": []}']
        ),
        2,
        r"gold\.jsonl:1: label list is empty",
    ),
    "gold_labels_duplicate": (
        run_on_lines(
            "evaluate",
            predictions=[MOOD_RECORD],
            gold=['{"id": "a", "labels": ["Mood", "Mood"]}'],
        ),
        2,
        r"gold\.jsonl:1: duplicate labels in \[Mood, Mood\]$",
    ),
    "predictions_labels_other_not_sole": (
        run_on_lines(
            "evaluate",
            predictions=['{"id": "a", "labels": ["Other", "Mood"]}'],
            gold=[MOOD_RECORD],
        ),
        2,
        r"predictions\.jsonl:1: Other must be the sole label, got \[Other, Mood\]$",
    ),
    "annotations_labels_duplicate": (
        run_on_lines(
            "agreement",
            annotations=['{"id": "a", "annotators": [["Mood"], ["Mood", "Mood"], []]}'],
            gold=[MOOD_RECORD],
        ),
        2,
        r"annotations\.jsonl:1: duplicate labels in \[Mood, Mood\]$",
    ),
    "train_kind_flag_unknown": (
        train_with_flags("--kind", "forest"), 1, "^error: unknown model kind 'forest'$"
    ),
    "train_loss_flag_unknown": (
        train_with_flags("--loss", "hinge"), 1, "^error: unknown loss kind 'hinge'$"
    ),
    "lexicon_keywords_not_list": (train_with(lexicon={"Mood": {"keywords": 5}}), 2),
    "config_use_mwes_string": (train_with(config={"use_mwes": "false"}), 1),
    "config_svd_k_string": (train_with(config={"svd_k": "abc"}), 1, "svd_k"),
    "config_svd_k_fraction": (train_with(config={"svd_k": 7.9}), 1, "svd_k"),
    "config_epochs_list": (train_with(config={"epochs": [3]}), 1, "epochs"),
    "train_seed_negative": (train_with(config={"seed": -1}), 1, "seed"),
    "train_cosine_epochs_zero": (
        train_with(config={"kind": "cosine", "epochs": 0}), 1, "epochs"
    ),
    "train_cosine_loss_unknown": (
        train_with(config={"kind": "cosine", "loss": "hinge"}), 1, "hinge"
    ),
    "train_batch_size_zero": (
        train_with(config={"kind": "mlp", "batch_size": 0}), 1, "^error: batch_size"
    ),
    "lexicon_keyword_hyphen": (
        train_with_lexicon_edit(
            lambda lex: lex["Mood"]["keywords"].append("self-harm")
        ),
        1,
        "self-harm",
    ),
    "lexicon_keyphrase_digit": (
        train_with_lexicon_edit(
            lambda lex: lex["Mood"]["keyphrases"].append("low mood2")
        ),
        1,
        "mood2",
    ),
    "lexicon_keyphrase_one_word": (
        train_with_lexicon_edit(lambda lex: lex["Mood"]["keyphrases"].append("low")),
        1,
        "keyphrase 'low' of Mood has fewer than 2 words",
    ),
    "lexicon_keyphrase_empty": (
        train_with_lexicon_edit(lambda lex: lex["Mood"]["keyphrases"].append("")),
        1,
        "keyphrase '' of Mood has fewer than 2 words",
    ),
    "bundle_lexicon_keyphrase_one_word": (
        corrupt_bundle(
            "mlp",
            edit_manifest(lambda m: m["lexicon"]["Mood"]["keyphrases"].append("low")),
        ),
        2,
        r"manifest\.json: lexicon: keyphrase 'low' of Mood",
    ),
    "config_invalid_utf8": (
        train_with_bytes(config=b'{"seed": 3, "kind": "ml\xffp"}'),
        1,
        r"config\.json: invalid UTF-8",
    ),
    "config_deeply_nested": (
        train_with_bytes(config=b"[" * 200_000), 1, r"config\.json: .*nested"
    ),
    "lexicon_invalid_utf8": (
        train_with_bytes(lexicon=b'{"Mood": {"keywords": ["sad\xff"]}}'),
        2,
        r"lexicon\.json: invalid UTF-8",
    ),
    "lexicon_deeply_nested": (
        train_with_bytes(lexicon=b"[" * 200_000), 2, r"lexicon\.json: .*nested"
    ),
    "bundle_manifest_deeply_nested": (
        corrupt_bundle("mlp", write_manifest(b"[" * 200_000)),
        2,
        r"manifest\.json: .*nested",
    ),
    "config_synth_count_string": (
        synth_with({"paragraphs_per_domain": "x"}), 1, "paragraphs_per_domain"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_input_fails_loudly(name, tmp_path, corpus_files, bundles, capsys):
    make_argv, expected_code, *message = CASES[name]
    argv = make_argv(tmp_path, corpus_files, bundles)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected_code, captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert all(re.search(pattern, lines[0]) for pattern in message), lines[0]
    assert "Traceback" not in captured.err
    assert captured.out == ""
