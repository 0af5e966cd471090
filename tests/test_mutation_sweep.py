"""Seeded mutations of every CLI input keep the exit-code contract.

A valid config, lexicon, corpus, gold, predictions, annotations file and
bundle manifest and vocabulary are each mutated several ways: a flipped
bit, truncation, an inserted 0xff byte, a UTF-8 BOM, deep nesting, and one
JSON value swapped for null, NaN, -1, 2**64+1 or []. For every mutant the
CLI, run in-process, must return 0, 1, 2 or 3, and a non-zero exit must
write exactly one "error:" line and no traceback. The corpus is tiny and
the model a cosine one, so the whole sweep takes a few seconds.
"""

import json
import random
import shutil

import pytest

from riskdomains.cli import main
from riskdomains.corpus import load_gold
from riskdomains.evaluation import write_annotations

SEEDS = (0, 1, 2)
SWAP_VALUES = (None, float("nan"), -1, 2**64 + 1, [])
NESTING = 100_000


def flip_bit(raw, rng):
    i = rng.randrange(len(raw))
    return raw[:i] + bytes([raw[i] ^ (1 << rng.randrange(8))]) + raw[i + 1 :]


def truncate(raw, rng):
    return raw[: rng.randrange(len(raw))]


def insert_ff(raw, rng):
    i = rng.randrange(len(raw) + 1)
    return raw[:i] + b"\xff" + raw[i:]


def add_bom(raw, rng):
    return b"\xef\xbb\xbf" + raw


def nest_deeply(raw, rng):
    return b"[" * NESTING + raw + b"]" * NESTING


BYTE_MUTATIONS = (flip_bit, truncate, insert_ff, add_bom, nest_deeply)


def value_paths(value, path=()):
    """The path of every value below the root of a parsed JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from value_paths(child, path + (key,))


def swap_value(obj, rng, new):
    paths = list(value_paths(obj))
    if not paths:
        return new
    *parents, last = rng.choice(paths)
    target = obj
    for key in parents:
        target = target[key]
    target[last] = new
    return obj


def swap_json(raw, rng, new):
    return json.dumps(swap_value(json.loads(raw), rng, new)).encode()


def swap_json_line(raw, rng, new):
    lines = raw.splitlines()
    i = rng.randrange(len(lines))
    lines[i] = swap_json(lines[i], rng, new)
    return b"\n".join(lines) + b"\n"


def swap_text_line(raw, rng, new):
    lines = raw.splitlines()
    lines[rng.randrange(len(lines))] = json.dumps(new).encode()
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid files of every input kind, and a bundle trained from them."""
    root = tmp_path_factory.mktemp("valid")
    data = root / "data"
    assert main([
        "synth", "--seed", "7", "--out", str(data), "--paragraphs-per-domain", "20",
        "--multilabel-per-domain", "3", "--other-paragraphs", "10",
    ]) == 0
    files = {
        "corpus": data / "corpus.jsonl",
        "lexicon": data / "lexicon.json",
        "gold": data / "gold.jsonl",
        "config": root / "config.json",
        "bundle": root / "bundle",
        "predictions": root / "predictions.jsonl",
        "annotations": root / "annotations.jsonl",
    }
    files["config"].write_text(json.dumps({
        "kind": "cosine", "svd_k": 5, "seed": 3, "alpha": 2.2, "epochs": 1,
        "batch_size": 16, "loss": "bce", "use_mwes": True,
        "corpus": str(files["corpus"]), "lexicon": str(files["lexicon"]),
        "out": str(files["bundle"]),
    }))
    assert main(["train", "--config", str(files["config"])]) == 0
    assert main([
        "classify", "--bundle", str(files["bundle"]), "--corpus",
        str(files["corpus"]), "--out", str(files["predictions"]),
    ]) == 0
    gold = load_gold(files["gold"])
    write_annotations(
        files["annotations"], {pid: [labels] * 3 for pid, labels in gold.items()}
    )
    return files


def put(tmp_path, name, raw):
    path = tmp_path / name
    path.write_bytes(raw)
    return str(path)


def bundle_with(tmp_path, valid, name, raw):
    bundle = tmp_path / "bundle"
    shutil.copytree(valid["bundle"], bundle)
    (bundle / name).write_bytes(raw)
    return ["classify", "--bundle", str(bundle), "--corpus", str(valid["corpus"])]


# Per input kind: the valid file, how to swap one of its values, and the
# command line that reads the mutated bytes.
INPUTS = {
    "config": (
        lambda v: v["config"], swap_json,
        lambda t, v, raw: ["train", "--config", put(t, "config.json", raw),
                           "--out", str(t / "out")],
    ),
    "lexicon": (
        lambda v: v["lexicon"], swap_json,
        lambda t, v, raw: ["train", "--config", str(v["config"]),
                           "--lexicon", put(t, "lexicon.json", raw),
                           "--out", str(t / "out")],
    ),
    "corpus": (
        lambda v: v["corpus"], swap_json_line,
        lambda t, v, raw: ["classify", "--bundle", str(v["bundle"]),
                           "--corpus", put(t, "corpus.jsonl", raw)],
    ),
    "gold": (
        lambda v: v["gold"], swap_json_line,
        lambda t, v, raw: ["evaluate", "--predictions", str(v["predictions"]),
                           "--gold", put(t, "gold.jsonl", raw)],
    ),
    "predictions": (
        lambda v: v["predictions"], swap_json_line,
        lambda t, v, raw: ["evaluate", "--predictions", put(t, "p.jsonl", raw),
                           "--gold", str(v["gold"])],
    ),
    "annotations": (
        lambda v: v["annotations"], swap_json_line,
        lambda t, v, raw: ["agreement", "--annotations", put(t, "a.jsonl", raw),
                           "--gold", str(v["gold"])],
    ),
    "manifest": (
        lambda v: v["bundle"] / "manifest.json", swap_json,
        lambda t, v, raw: bundle_with(t, v, "manifest.json", raw),
    ),
    "vocabulary": (
        lambda v: v["bundle"] / "vocabulary.txt", swap_text_line,
        lambda t, v, raw: bundle_with(t, v, "vocabulary.txt", raw),
    ),
}


def mutants(raw, swap, rng):
    for mutate in BYTE_MUTATIONS:
        yield mutate.__name__, mutate(raw, rng)
    for new in SWAP_VALUES:
        yield f"swap {new!r}", swap(raw, rng, new)


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_mutated_input_keeps_exit_contract(kind, valid, tmp_path_factory, capsys):
    source, swap, argv_for = INPUTS[kind]
    raw = source(valid).read_bytes()
    work = tmp_path_factory.mktemp(kind)
    (work / "valid").mkdir()
    assert main(argv_for(work / "valid", valid, raw)) == 0, "the valid input fails"
    for seed in SEEDS:
        rng = random.Random(f"{kind}:{seed}")
        for i, (name, mutant) in enumerate(mutants(raw, swap, rng)):
            run = work / f"{seed}-{i}"
            run.mkdir()
            capsys.readouterr()
            code = main(argv_for(run, valid, mutant))
            err = capsys.readouterr().err
            label = f"{kind} seed {seed}: {name}"
            assert code in (0, 1, 2, 3), label
            assert "Traceback" not in err, label
            if code != 0:
                errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
                assert len(errors) == 1, (label, err)
