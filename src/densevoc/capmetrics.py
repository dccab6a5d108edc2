"""Per-pair caption similarity scoring.

Ships a self-contained METEOR variant (exact + stem matching stages, no
synonym or paraphrase stage) and a per-pair consensus n-gram cosine with
corpus IDF. Both are normalized to [0, 1]; the conventional x10 consensus
scale is dropped so downstream averages stay bounded, which means absolute
values are not comparable to evaluations using the conventional scaling.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Caption, tokenize

__all__ = [
    "tokenize",
    "stem",
    "meteor_lite",
    "IdfTable",
    "cider_pair",
    "exact_match",
]

_VOWELS = set("aeiou")

# Suffix-stripping rules, first match wins: (suffix, replacement, undouble).
_STEM_RULES = (
    ("sses", "ss", False),
    ("ies", "y", False),
    ("ss", "ss", False),
    ("s", "", False),
    ("ing", "", True),
    ("ed", "", True),
    ("ly", "", False),
)


def stem(token: str) -> str:
    """Tiny deterministic suffix-stripping stemmer for the METEOR stem stage."""
    if len(token) <= 3:
        return token
    for suffix, replacement, undouble in _STEM_RULES:
        if token.endswith(suffix):
            stemmed = token[: len(token) - len(suffix)] + replacement
            if len(stemmed) < 3:
                return token
            if undouble and len(stemmed) >= 2 and stemmed[-1] == stemmed[-2] and stemmed[-1] not in _VOWELS:
                stemmed = stemmed[:-1]
            return stemmed
    return token


def _match_counts(pred: Sequence[str], ref: Sequence[str]) -> tuple[Counter, Counter, int, int]:
    """Exact-stage quotas per token and stem-stage quotas per stem."""
    pc, rc = Counter(pred), Counter(ref)
    exact = Counter({t: min(pc[t], rc[t]) for t in pc if t in rc})
    exact = +exact
    pred_left = Counter({t: pc[t] - exact[t] for t in pc})
    ref_left = Counter({t: rc[t] - exact[t] for t in rc})
    pred_stem_left = Counter()
    ref_stem_left = Counter()
    for t, c in pred_left.items():
        pred_stem_left[stem(t)] += c
    for t, c in ref_left.items():
        ref_stem_left[stem(t)] += c
    stems = Counter(
        {s: min(pred_stem_left[s], ref_stem_left[s]) for s in pred_stem_left if s in ref_stem_left}
    )
    stems = +stems
    return exact, stems, sum(exact.values()), sum(stems.values())


class _ChunkSearch:
    """Exact minimum-chunk alignment search over stagewise-maximum matchings.

    Depth-first over prediction positions with memoization and a node budget.
    Every branch is count-checked so remaining quotas stay satisfiable, which
    keeps each dive completable; move ordering prefers chunk continuation so
    the first completed dive is already a good alignment. Beyond the budget,
    exploration stops after the first finite branch, making the result an
    upper bound on the minimum (the score stays valid either way since chunks
    never exceed matches).
    """

    def __init__(self, pred: Sequence[str], ref: Sequence[str], budget: int = 20000):
        self.pred = pred
        self.ref = ref
        self.budget = budget
        self.nodes = 0
        exact, stems, self.n_exact, self.n_stem = _match_counts(pred, ref)
        self.exact_quota = exact
        self.stem_quota = stems
        self.ref_tokens = list(ref)
        self.ref_stems = [stem(t) for t in ref]
        self.pred_stems = [stem(t) for t in pred]
        # Suffix counts for feasibility checks.
        n = len(pred)
        self.suffix_tok: list[Counter] = [Counter() for _ in range(n + 1)]
        self.suffix_stem: list[Counter] = [Counter() for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            self.suffix_tok[i] = self.suffix_tok[i + 1].copy()
            self.suffix_tok[i][pred[i]] += 1
            self.suffix_stem[i] = self.suffix_stem[i + 1].copy()
            self.suffix_stem[i][self.pred_stems[i]] += 1
        self.memo: dict = {}

    def _stem_capacity_ok(self, i: int, s: str, exact_rem: Counter, demand: int) -> bool:
        """Suffix i.. can still host ``demand`` stem-s matches after exact reservations."""
        reserved = sum(exact_rem[u] for u in self.suffix_tok[i] if stem(u) == s)
        return demand <= self.suffix_stem[i][s] - reserved

    def run(self) -> int:
        if self.n_exact + self.n_stem == 0:
            return 0
        result = self._go(0, 0, -2, Counter(self.exact_quota), Counter(self.stem_quota))
        if not math.isfinite(result):
            return self.n_exact + self.n_stem  # worst legal chunk count
        return int(result)

    def _go(self, i: int, used: int, prev: int, exact_rem: Counter, stem_rem: Counter) -> float:
        # prev: ref index matched by pred position i-1, or -2 when i-1 unmatched.
        if i == len(self.pred):
            return 0.0 if not +exact_rem and not +stem_rem else math.inf
        key = (
            i,
            used,
            prev,
            tuple(sorted((+exact_rem).items())),
            tuple(sorted((+stem_rem).items())),
        )
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.nodes += 1
        over_budget = self.nodes > self.budget
        t = self.pred[i]
        s = self.pred_stems[i]
        candidates: list[tuple[int, int, bool]] = []  # (order, ref_idx, is_exact)
        if exact_rem[t] > 0:
            exact_rem[t] -= 1
            exact_ok = exact_rem[t] <= self.suffix_tok[i + 1][t] and self._stem_capacity_ok(
                i + 1, s, exact_rem, stem_rem[s]
            )
            exact_rem[t] += 1
            if exact_ok:
                for j, u in enumerate(self.ref_tokens):
                    if u == t and not used >> j & 1:
                        cont = j == prev + 1
                        candidates.append((0 if cont else 2, j, True))
        if stem_rem[s] > 0 and exact_rem[t] <= self.suffix_tok[i + 1][t] and self._stem_capacity_ok(
            i + 1, s, exact_rem, stem_rem[s] - 1
        ):
            # A stem match must leave enough unused same-token refs for exact quotas.
            unused_by_token = Counter()
            for j, u in enumerate(self.ref_tokens):
                if not used >> j & 1:
                    unused_by_token[u] += 1
            for j, u in enumerate(self.ref_tokens):
                if self.ref_stems[j] == s and u != t and not used >> j & 1:
                    if unused_by_token[u] - 1 < exact_rem[u]:
                        continue
                    cont = j == prev + 1
                    candidates.append((1 if cont else 3, j, False))
        candidates.sort()
        best = math.inf
        for _, j, is_exact in candidates:
            cost = 0 if j == prev + 1 else 1
            if is_exact:
                exact_rem[t] -= 1
            else:
                stem_rem[s] -= 1
            sub = cost + self._go(i + 1, used | 1 << j, j, exact_rem, stem_rem)
            if is_exact:
                exact_rem[t] += 1
            else:
                stem_rem[s] += 1
            best = min(best, sub)
            if over_budget and math.isfinite(best):
                break  # keep the first completed (continuation-preferring) dive
        if exact_rem[t] <= self.suffix_tok[i + 1][t] and self._stem_capacity_ok(
            i + 1, s, exact_rem, stem_rem[s]
        ):
            best = min(best, self._go(i + 1, used, -2, exact_rem, stem_rem))
        if not over_budget:
            self.memo[key] = best
        return best


def _tokens(caption: Caption | Sequence[str]) -> tuple[str, ...]:
    if isinstance(caption, Caption):
        return caption.tokens
    return tuple(caption)


def meteor_lite(pred: Caption | Sequence[str], ref: Caption | Sequence[str]) -> float:
    """Unigram-alignment caption score in [0, 1].

    Alignment maximizes matches (exact stage first, stems on the residue)
    and then minimizes chunks. With m matches, P = m/|pred|, R = m/|ref|,
    F = 10PR / (R + 9P), penalty = 0.5 (chunks/m)^3, score = F (1 - penalty).
    Empty captions and match-free pairs score 0.
    """
    p, r = _tokens(pred), _tokens(ref)
    if not p or not r:
        return 0.0
    _, _, n_exact, n_stem = _match_counts(p, r)
    matches = n_exact + n_stem
    if matches == 0:
        return 0.0
    chunks = _ChunkSearch(p, r).run()
    precision = matches / len(p)
    recall = matches / len(r)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


@dataclass
class IdfTable:
    """Corpus n-gram document frequencies; one caption = one document."""

    n_docs: int
    df: dict[tuple[str, ...], int]
    max_n: int = 4

    @classmethod
    def build(cls, documents: Iterable[Caption | Sequence[str]], max_n: int = 4) -> "IdfTable":
        df: Counter = Counter()
        n_docs = 0
        for doc in documents:
            tokens = _tokens(doc)
            n_docs += 1
            seen: set = set()
            for n in range(1, max_n + 1):
                seen.update(_ngrams(tokens, n))
            df.update(seen)
        return cls(n_docs=n_docs, df=dict(df), max_n=max_n)

    def idf(self, gram: tuple[str, ...]) -> float:
        """log(N / df); unseen n-grams take the maximum weight log(N)."""
        if self.n_docs < 1:
            return 0.0
        return math.log(self.n_docs / max(self.df.get(gram, 0), 1))


def cider_pair(
    pred: Caption | Sequence[str],
    ref: Caption | Sequence[str],
    idf: IdfTable,
    sigma: float = 6.0,
) -> float:
    """Mean TF-IDF n-gram cosine over n = 1..4, Gaussian length penalty.

    Normalized to [0, 1] (no x10 scale). A level with an all-zero vector on
    either side contributes 0.
    """
    p, r = _tokens(pred), _tokens(ref)
    sims = []
    for n in range(1, idf.max_n + 1):
        pv = {g: c * idf.idf(g) for g, c in _ngrams(p, n).items()}
        rv = {g: c * idf.idf(g) for g, c in _ngrams(r, n).items()}
        norm_p = math.sqrt(sum(v * v for v in pv.values()))
        norm_r = math.sqrt(sum(v * v for v in rv.values()))
        if norm_p == 0.0 or norm_r == 0.0:
            sims.append(0.0)
            continue
        dot = sum(v * rv[g] for g, v in pv.items() if g in rv)
        sims.append(dot / (norm_p * norm_r))
    penalty = math.exp(-((len(p) - len(r)) ** 2) / (2.0 * sigma**2))
    return min(1.0, sum(sims) / len(sims) * penalty)


def exact_match(pred: Caption | Sequence[str], ref: Caption | Sequence[str]) -> float:
    """1.0 when token sequences are identical, else 0.0."""
    return 1.0 if _tokens(pred) == _tokens(ref) else 0.0
