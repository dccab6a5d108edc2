from __future__ import annotations

import builtins
import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

from densevoc.capmetrics import (
    IdfTable,
    _ChunkSearch,
    _forced_alignment,
    cider_pair,
    exact_match,
    meteor_lite,
    stem,
)
from densevoc.core import Caption, ValidationError, tokenize
from conftest import OVER_BUDGET_PAIR
from oracles import ChunkSearchOracle, cider_oracle, meteor_oracle

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "caption_pairs.json"
FIXTURE = json.loads(FIXTURE_PATH.read_text())
FIXTURE_TOOL = Path(__file__).parent.parent / "tools" / "make_caption_fixture.py"


def _cap(text: str) -> tuple[str, ...]:
    return tokenize(text)


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
        cap = tokenize(" ".join(tokens))
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
    idf = IdfTable.build([cap, ("something", "entirely", "different", "here")])
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


def _fixture_tool():
    spec = importlib.util.spec_from_file_location("caption_reference", FIXTURE_TOOL)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


def test_fixture_tool_reproduces_committed_fixture() -> None:
    reference = _fixture_tool()
    assert reference.render(reference.build_fixture()) == FIXTURE_PATH.read_text()


def test_meteor_matches_bruteforce_on_random_pairs(rng) -> None:
    reference = _fixture_tool()
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
    assert stem("seed") == "seed"  # "se" would be too short
    assert stem("quickly") == "quick"


def test_exact_match() -> None:
    assert exact_match(_cap("A dog!"), _cap("a dog")) == 1.0
    assert exact_match(_cap("a dog"), _cap("a cat")) == 0.0


# Repeated tokens and stem collisions (walk/walked/walking, dog/dogs, fly/flies).
_COLLIDING_VOCAB = ["a", "the", "red", "dog", "dogs", "walk", "walked", "walking", "fly", "flies"]


def _random_caption(rng, max_len=14) -> tuple[str, ...]:
    n = int(rng.integers(0, max_len + 1))
    return tuple(_COLLIDING_VOCAB[int(rng.integers(len(_COLLIDING_VOCAB)))] for _ in range(n))


def test_chunk_search_equals_counter_oracle(rng) -> None:
    over_budget = dict.fromkeys((1, 3, 20, 20000), 0)
    for _ in range(300):
        x, y = _random_caption(rng), _random_caption(rng)
        for budget in over_budget:
            search, oracle = _ChunkSearch(x, y, budget), ChunkSearchOracle(x, y, budget)
            assert (search.n_exact, search.n_stem) == (oracle.n_exact, oracle.n_stem), (x, y)
            assert search.run() == oracle.run(), (x, y, budget)
            assert search.nodes == oracle.nodes, (x, y, budget)
            over_budget[budget] += oracle.nodes > budget
        assert meteor_lite(x, y) == meteor_oracle(x, y), (x, y)
    # The small budgets run out, so the upper-bound branch is compared too.
    assert over_budget[1] > 0 and over_budget[3] > 0 and over_budget[20] > 0


def test_cider_equals_per_call_oracle(rng) -> None:
    docs = [_random_caption(rng, 8) for _ in range(12)]
    built = IdfTable.build([tokenize(" ".join(d)) for d in docs])
    direct = IdfTable(n_docs=built.n_docs, df=dict(built.df))
    for _ in range(300):
        x = _random_caption(rng, 8)
        inside = docs[int(rng.integers(len(docs)))]
        outside = _random_caption(rng, 8)
        for ref in (inside, outside):
            expected = cider_oracle(x, ref, built)
            assert cider_pair(x, ref, built) == expected, (x, ref)
            assert cider_pair(tokenize(" ".join(x)), tokenize(" ".join(ref)), built) == expected
            assert cider_pair(x, ref, direct) == expected, (x, ref)


# Distinct stems except dog/dogs and walk/walked, so sampled pairs without
# repeats take either branch.
_FORCED_VOCAB = ["a", "the", "red", "man", "car", "runs", "street", "fly", "dog", "dogs", "walk", "walked"]


def _distinct_caption(rng, max_len=8) -> tuple[str, ...]:
    order = rng.permutation(len(_FORCED_VOCAB))[: int(rng.integers(1, max_len + 1))]
    return tuple(_FORCED_VOCAB[k] for k in order)


def _search_counts(x, y) -> tuple[int, int]:
    search = _ChunkSearch(x, y)
    matches = search.n_exact + search.n_stem
    return matches, search.run() if matches else 0


def test_meteor_forced_alignment_equals_oracle(rng) -> None:
    forced = 0
    for _ in range(400):
        x, y = _distinct_caption(rng), _distinct_caption(rng)
        counts = _forced_alignment(x, y)
        if counts is not None:
            forced += 1
            assert counts == _search_counts(x, y), (x, y)
        assert meteor_lite(x, y) == meteor_oracle(x, y), (x, y)
    # Both branches are taken: residue stems collide in some pairs only.
    assert 0 < forced < 400


@pytest.mark.parametrize(
    "x, y",
    [
        (("a", "dog", "walks"), ("dog", "dogs", "a")),  # matched dog's stem in the reference residue
        (("walked", "a", "dog"), ("walked", "walk", "dog")),  # matched walked's stem in the reference residue
        (("the", "red", "car"), ("a", "red", "car", "the")),
        (("fly",), ("dog",)),
    ],
)
def test_meteor_forced_when_only_matched_tokens_share_stems(x, y) -> None:
    counts = _forced_alignment(x, y)
    assert counts is not None and counts == _search_counts(x, y)
    assert meteor_lite(x, y) == meteor_oracle(x, y)


@pytest.mark.parametrize(
    "x, y",
    [
        (("a", "dog", "a"), ("a", "dog")),  # repeated prediction token
        (("a", "dog"), ("dog", "a", "dog")),  # repeated reference token
        (("dog", "runs"), ("dogs", "runs")),  # residue stems collide
        (("the", "walk"), ("walked", "the", "red")),  # walk/walked in the residues
    ],
)
def test_meteor_near_misses_fall_back_to_search(x, y) -> None:
    assert _forced_alignment(x, y) is None
    assert meteor_lite(x, y) == meteor_oracle(x, y)


def test_meteor_reports_pairs_past_the_search_budget() -> None:
    x, y = OVER_BUDGET_PAIR
    search = _ChunkSearch(x, y)
    search.run()
    assert search.nodes > search.budget
    over_budget: list = []
    assert meteor_lite(x, y, over_budget=over_budget) == meteor_oracle(x, y)
    assert over_budget == [(x, y)]
    # Pairs within the budget, searched or forced, are not reported.
    meteor_lite(("a", "dog", "a"), ("a", "dog"), over_budget=over_budget)
    meteor_lite(x[:5], y[:5], over_budget=over_budget)
    assert over_budget == [(x, y)]


def test_cider_on_an_empty_idf_table() -> None:
    empty = IdfTable(n_docs=0, df={})
    assert empty.idf(("dog",)) == 0.0
    for x, y in ((("a", "dog"), ("a", "dog")), (("dog",), ("cat", "dog")), ((), ("dog",))):
        assert cider_pair(x, y, empty) == cider_oracle(x, y, empty) == 0.0


def test_cider_ignores_df_entries_no_caption_uses(rng) -> None:
    docs = [_random_caption(rng, 8) for _ in range(6)]
    built = IdfTable.build(docs)
    unused = {("zebra",): 2, ("zebra", "crosses"): 1, ("a", "zebra", "crosses", "the"): 5}
    padded = IdfTable(n_docs=built.n_docs, df={**unused, **built.df})
    for _ in range(100):
        x, y = _random_caption(rng, 8), docs[int(rng.integers(len(docs)))]
        assert cider_pair(x, y, padded) == cider_oracle(x, y, padded) == cider_oracle(x, y, built), (x, y)


def test_cider_does_not_change_with_a_compensated_builtin_sum(monkeypatch) -> None:
    # Python 3.12 made the builtin sum() of floats compensated; CIDEr adds left to right on every Python.
    import oracles
    from densevoc import capmetrics

    def compensated_sum(values, start=0):
        values = list(values)
        if all(isinstance(v, int) for v in values):
            return builtins.sum(values, start)
        return math.fsum([start, *values])

    rng = random.Random(0)
    words = "a the red blue dog cat runs jumps over small big car on".split()
    captions = [tuple(rng.choice(words) for _ in range(rng.randint(3, 10))) for _ in range(60)]
    pairs = [(p, r) for p in captions[20:] for r in captions[:20]]

    def scores() -> list[float]:
        idf = IdfTable.build(captions[:20])
        return [cider_pair(p, r, idf) for p, r in pairs]

    expected = scores()
    for module in (capmetrics, oracles):  # the oracle stays a reference on every Python too
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert scores() == expected
    assert [cider_oracle(p, r, IdfTable.build(captions[:20])) for p, r in pairs] == expected


def test_caption_metrics_reject_a_bare_string() -> None:
    # A string is a sequence of characters; scoring it would compare letters, not words.
    idf = IdfTable.build([("a", "dog")])
    calls = [
        lambda: meteor_lite("a dog", ("a", "god")),
        lambda: meteor_lite(("a", "dog"), "a god"),
        lambda: cider_pair("a dog", ("a", "dog"), idf),
        lambda: cider_pair(("a", "dog"), "a dog", idf),
        lambda: exact_match("a dog", ("a", "dog")),
        lambda: exact_match(("a", "dog"), "a dog"),
        lambda: IdfTable.build([("a", "dog"), "a dog"]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="token sequences"):
            call()
    assert meteor_lite(["a", "dog"], ("a", "dog")) == meteor_lite(("a", "dog"), ("a", "dog"))


def test_caption_metrics_reject_a_caption_with_a_pointer_to_tokenize() -> None:
    idf = IdfTable.build([("a", "dog")])
    caption = Caption("a dog")
    calls = [
        lambda: meteor_lite(caption, ("a", "dog")),
        lambda: cider_pair(("a", "dog"), caption, idf),
        lambda: exact_match(caption, ("a", "dog")),
        lambda: IdfTable.build([caption]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"got Caption\(raw='a dog'.*\); tokenize it first"):
            call()
