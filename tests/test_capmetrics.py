from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from densevoc.capmetrics import IdfTable, cider_pair, exact_match, meteor_lite, stem
from densevoc.core import Caption, tokenize

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "caption_pairs.json").read_text())


def _cap(text: str) -> Caption:
    return Caption.from_text(text)


def test_meteor_single_identical_token() -> None:
    assert meteor_lite(_cap("dog"), _cap("dog")) == pytest.approx(0.5, abs=1e-12)


def test_meteor_identical_trigram() -> None:
    value = meteor_lite(_cap("a dog runs"), _cap("a dog runs"))
    assert value == pytest.approx(1 - 0.5 * (1 / 3) ** 3, abs=1e-12)


def test_meteor_no_matches() -> None:
    assert meteor_lite(_cap("cat"), _cap("dog")) == 0.0


def test_meteor_empty_caption_is_zero() -> None:
    assert meteor_lite(_cap(""), _cap("dog")) == 0.0
    assert meteor_lite(_cap("dog"), _cap("")) == 0.0


def test_meteor_self_comparison_closed_form(rng) -> None:
    vocab = ["car", "dog", "tree", "red", "runs", "fast", "walks"]
    for _ in range(100):
        n = int(rng.integers(1, 8))
        tokens = [vocab[int(rng.integers(len(vocab)))] for _ in range(n)]
        cap = Caption(raw=" ".join(tokens))
        expected = 1 - 0.5 * (1 / n) ** 3
        assert meteor_lite(cap, cap) == pytest.approx(expected, abs=1e-12)


def test_meteor_matches_frozen_bruteforce_corpus() -> None:
    for pair in FIXTURE["pairs"]:
        value = meteor_lite(_cap(pair["pred"]), _cap(pair["ref"]))
        assert value == pytest.approx(pair["meteor"], abs=1e-9), (pair["pred"], pair["ref"])


def test_cider_matches_frozen_bruteforce_corpus() -> None:
    idf = IdfTable.build([tokenize(doc) for doc in FIXTURE["idf_corpus"]])
    for pair in FIXTURE["pairs"]:
        value = cider_pair(_cap(pair["pred"]), _cap(pair["ref"]), idf)
        assert value == pytest.approx(pair["cider"], abs=1e-9), (pair["pred"], pair["ref"])


def test_cider_three_document_example() -> None:
    example = FIXTURE["three_doc_example"]
    idf = IdfTable.build([tokenize(doc) for doc in example["corpus"]])
    value = cider_pair(_cap(example["pred"]), _cap(example["ref"]), idf)
    assert value == pytest.approx(example["cider"], abs=1e-9)


def test_cider_disjoint_vocabulary_zero() -> None:
    idf = IdfTable.build([("dog",), ("cat",)])
    assert cider_pair(_cap("dog dog"), _cap("cat cat"), idf) == 0.0


def test_cider_identical_long_caption_scores_one() -> None:
    cap = _cap("a small bird crosses the wide river")
    idf = IdfTable.build([cap.tokens, ("something", "entirely", "different", "here")])
    assert cider_pair(cap, cap, idf) == pytest.approx(1.0, abs=1e-12)


def test_cider_symmetric(rng) -> None:
    vocab = ["a", "dog", "red", "car", "runs", "sits"]
    docs = [tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(5)) for _ in range(8)]
    idf = IdfTable.build(docs)
    for _ in range(50):
        x = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 7))))
        y = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 7))))
        assert cider_pair(x, y, idf) == pytest.approx(cider_pair(y, x, idf), abs=1e-12)


def test_bounds_fuzz(rng) -> None:
    vocab = ["a", "b", "c", "dog", "dogs", "run", "running", "red"]
    docs = [tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(6)) for _ in range(10)]
    idf = IdfTable.build(docs)
    for _ in range(1000):
        x = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(0, 10))))
        y = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(0, 10))))
        m = meteor_lite(x, y)
        c = cider_pair(x, y, idf)
        assert 0.0 <= m <= 1.0
        assert 0.0 <= c <= 1.0


def test_meteor_matches_bruteforce_on_random_pairs(rng) -> None:
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "caption_reference", Path(__file__).parent.parent / "tools" / "make_caption_fixture.py"
    )
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)

    vocab = ["a", "dog", "dogs", "run", "running", "red", "cat"]
    for _ in range(200):
        x = " ".join(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 8))))
        y = " ".join(vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 8))))
        assert meteor_lite(tokenize(x), tokenize(y)) == pytest.approx(
            reference.meteor_bruteforce(x, y), abs=1e-12
        ), (x, y)


def test_idf_nonnegative_and_unseen_maximal() -> None:
    idf = IdfTable.build([("dog", "runs"), ("dog", "sits"), ("cat",)])
    assert idf.idf(("dog",)) == pytest.approx(math.log(3 / 2))
    assert idf.idf(("cat",)) == pytest.approx(math.log(3))
    assert idf.idf(("zebra",)) == pytest.approx(math.log(3))
    assert idf.idf(("dog", "runs")) >= 0.0


def test_stemmer_examples() -> None:
    assert stem("dogs") == "dog"
    assert stem("running") == "run"
    assert stem("flies") == "fly"
    assert stem("caresses") == "caress"
    assert stem("the") == "the"  # too short to strip
    assert stem("quickly") == "quick"


def test_exact_match() -> None:
    assert exact_match(_cap("A dog!"), _cap("a dog")) == 1.0
    assert exact_match(_cap("a dog"), _cap("a cat")) == 0.0
