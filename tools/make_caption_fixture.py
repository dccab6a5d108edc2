#!/usr/bin/env python3
"""Brute-force reference scorer for the caption-pair fixture corpus.

Written independently of the library: plain-loop implementations that
enumerate every stagewise-maximum alignment for the unigram metric and build
the consensus n-gram cosine with explicit dictionaries. Output values are
frozen into tests/fixtures/caption_pairs.json; the library must reproduce
them to 1e-9.

Run from the repository root:  python tools/make_caption_fixture.py
"""

import itertools
import json
import math
import re
import unicodedata
from collections import Counter
from pathlib import Path

VOWELS = set("aeiou")


def toks(text):
    return re.sub(r"[\W_]+", " ", unicodedata.normalize("NFC", text).lower()).split()


def stem_word(word):
    # Same documented suffix rules as the library, written out independently.
    if len(word) <= 3:
        return word
    rules = [
        ("sses", "ss", False),
        ("ies", "y", False),
        ("ss", "ss", False),
        ("s", "", False),
        ("ing", "", True),
        ("ed", "", True),
        ("ly", "", False),
    ]
    for suffix, repl, undouble in rules:
        if word.endswith(suffix):
            out = word[: len(word) - len(suffix)] + repl
            if len(out) < 3:
                return word
            if undouble and len(out) >= 2 and out[-1] == out[-2] and out[-1] not in VOWELS:
                out = out[:-1]
            return out
    return word


def enumerate_stage(class_positions):
    """All maximum matchings for one stage.

    class_positions: list of (pred_positions, ref_positions, quota) per
    equivalence class. Yields lists of (pred_idx, ref_idx) pairs.
    """
    per_class = []
    for pred_pos, ref_pos, quota in class_positions:
        options = []
        for chosen_pred in itertools.combinations(pred_pos, quota):
            for chosen_ref in itertools.permutations(ref_pos, quota):
                options.append(list(zip(chosen_pred, chosen_ref)))
        per_class.append(options)
    for combo in itertools.product(*per_class):
        yield [pair for part in combo for pair in part]


def count_chunks(pairs):
    pairs = sorted(pairs)
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def meteor_bruteforce(pred_text, ref_text):
    pred = toks(pred_text)
    ref = toks(ref_text)
    if not pred or not ref:
        return 0.0

    exact_classes = []
    for token in sorted(set(pred) & set(ref)):
        pred_pos = [i for i, t in enumerate(pred) if t == token]
        ref_pos = [j for j, t in enumerate(ref) if t == token]
        exact_classes.append((pred_pos, ref_pos, min(len(pred_pos), len(ref_pos))))

    best_chunks = None
    total_matches = None
    for stage1 in enumerate_stage(exact_classes):
        used_pred = {i for i, _ in stage1}
        used_ref = {j for _, j in stage1}
        res_pred = [i for i in range(len(pred)) if i not in used_pred]
        res_ref = [j for j in range(len(ref)) if j not in used_ref]
        stem_classes = []
        stems_here = sorted(
            {stem_word(pred[i]) for i in res_pred} & {stem_word(ref[j]) for j in res_ref}
        )
        for s in stems_here:
            pred_pos = [i for i in res_pred if stem_word(pred[i]) == s]
            ref_pos = [j for j in res_ref if stem_word(ref[j]) == s]
            stem_classes.append((pred_pos, ref_pos, min(len(pred_pos), len(ref_pos))))
        for stage2 in enumerate_stage(stem_classes):
            alignment = stage1 + stage2
            if total_matches is None:
                total_matches = len(alignment)
            assert total_matches == len(alignment), "match count should not vary"
            chunks = count_chunks(alignment)
            if best_chunks is None or chunks < best_chunks:
                best_chunks = chunks

    if not total_matches:
        return 0.0
    precision = total_matches / len(pred)
    recall = total_matches / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (best_chunks / total_matches) ** 3
    return f_mean * (1.0 - penalty)


def ngram_counts(tokens, n):
    out = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        out[g] = out.get(g, 0) + 1
    return out


def build_df(doc_texts):
    df = Counter()
    for text in doc_texts:
        tokens = toks(text)
        grams = set()
        for n in range(1, 5):
            grams.update(ngram_counts(tokens, n))
        df.update(grams)
    return df, len(doc_texts)


def sum_left_to_right(values):
    """A float sum in input order; the builtin sum() compensates floats from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def cider_bruteforce(pred_text, ref_text, doc_texts):
    df, n_docs = build_df(doc_texts)

    def idf(gram):
        return math.log(n_docs / max(df.get(gram, 0), 1))

    pred = toks(pred_text)
    ref = toks(ref_text)
    sims = []
    for n in range(1, 5):
        pvec = {g: c * idf(g) for g, c in ngram_counts(pred, n).items()}
        rvec = {g: c * idf(g) for g, c in ngram_counts(ref, n).items()}
        norm_p = math.sqrt(sum_left_to_right(v * v for v in pvec.values()))
        norm_r = math.sqrt(sum_left_to_right(v * v for v in rvec.values()))
        if norm_p == 0.0 or norm_r == 0.0:
            sims.append(0.0)
            continue
        dot = 0.0
        for g, v in pvec.items():
            if g in rvec:
                dot += v * rvec[g]
        sims.append(dot / (norm_p * norm_r))
    penalty = math.exp(-((len(pred) - len(ref)) ** 2) / (2.0 * 6.0**2))
    return min(1.0, sum_left_to_right(sims) / 4.0 * penalty)


PAIRS = [
    ("dog", "dog"),
    ("a dog runs", "a dog runs"),
    ("cat", "dog"),
    ("a red car", "a blue car"),
    ("the quick brown fox", "the quick brown fox jumps"),
    ("a man rides a horse", "a horse rides a man"),
    ("the dog runs fast", "the dogs run fast"),
    ("a a b b", "b b a a"),
    ("a cat sits on the mat", "the cat sat on a mat"),
    ("children playing in the park", "a child plays in a park"),
    ("red red red", "red"),
    ("a big blue bus", "a big blue bus stops here"),
    ("man walking dog", "a man walks his dog"),
    ("the bird flies", "birds fly"),
    ("she sells sea shells", "sea shells she sells"),
    ("one two three four five", "one two three four five"),
    ("one two three four five", "five four three two one"),
    ("a", "a"),
    ("a b", "b a"),
    ("hello world", "goodbye world"),
    ("running runner runs", "run runner running"),
    ("the the the cat", "the cat the"),
    ("a black and white cat", "a white and black dog"),
    ("boxes of apples", "a box of apples"),
    ("The dog, quickly, RUNS!", "the dog runs quickly"),
]

# "car" and "a" appear in two of three documents, so the shared unigrams of
# the example pair keep positive weight and the cosine is non-degenerate.
THREE_DOC_CORPUS = [
    "a red car drives down the road",
    "a blue car parked outside",
    "the dog sleeps on the porch",
]


def build_fixture():
    """The fixture document: brute-force scores of every pair and the example."""
    idf_corpus = sorted({ref for _, ref in PAIRS})
    records = []
    for pred, ref in PAIRS:
        records.append(
            {
                "pred": pred,
                "ref": ref,
                "meteor": meteor_bruteforce(pred, ref),
                "cider": cider_bruteforce(pred, ref, idf_corpus),
            }
        )
    return {
        "idf_corpus": idf_corpus,
        "pairs": records,
        "three_doc_example": {
            "corpus": THREE_DOC_CORPUS,
            "pred": "a red car",
            "ref": "a blue car",
            "cider": cider_bruteforce("a red car", "a blue car", THREE_DOC_CORPUS),
        },
    }


def render(fixture):
    """The fixture file's exact text."""
    return json.dumps(fixture, indent=2) + "\n"


def main():
    fixture = build_fixture()
    out = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "caption_pairs.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render(fixture))
    records = fixture["pairs"]
    print(f"wrote {out} ({len(records)} pairs)")
    for rec in records:
        print(f"  meteor={rec['meteor']:.6f} cider={rec['cider']:.6f}  {rec['pred']!r} / {rec['ref']!r}")


if __name__ == "__main__":
    main()
