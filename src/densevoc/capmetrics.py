"""Per-pair caption similarity scoring.

Ships a self-contained METEOR variant (exact + stem matching stages, no
synonym or paraphrase stage) and a per-pair consensus n-gram cosine with
corpus IDF. Both are normalized to [0, 1]; the conventional x10 consensus
scale is dropped so downstream averages stay bounded, which means absolute
values are not comparable to evaluations using the conventional scaling.
Every metric takes captions as token sequences, such as ``tokenize`` returns.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import ValidationError, tokenize

__all__ = [
    "tokenize",
    "stem",
    "meteor_lite",
    "IdfTable",
    "cider_pair",
    "exact_match",
]

# CIDEr-D's n-gram orders 1..4 and length-penalty width (Vedantam et al., CVPR 2015).
CIDER_MAX_N = 4
CIDER_SIGMA = 6.0

# Search nodes after which the METEOR chunk search keeps its first complete alignment.
METEOR_NODE_BUDGET = 20000

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


@functools.lru_cache(maxsize=1 << 16)
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


class _ChunkSearch:
    """Exact minimum-chunk alignment search over stagewise-maximum matchings.

    Depth-first over prediction positions with memoization and a node budget.
    Every branch is count-checked so remaining quotas stay satisfiable, which
    keeps each dive completable; move ordering prefers chunk continuation so
    the first completed dive is already a good alignment. Beyond the budget,
    exploration stops after the first finite branch, making the result an
    upper bound on the minimum (the score stays valid either way since chunks
    never exceed matches).

    The state is integer: tokens and stems are numbered per pair, the exact
    quotas (per token) and stem quotas (per stem) are int lists, and ``used``
    is a bitmask of matched reference positions. The memo is keyed without the
    stem quotas: per stem they are the stem's quota minus its matched
    reference positions in ``used`` plus the exact matches of its tokens, so
    ``used`` and the exact quotas determine them.
    """

    def __init__(self, pred: Sequence[str], ref: Sequence[str], budget: int = METEOR_NODE_BUDGET):
        self.budget = budget
        self.nodes = 0
        self.memo: dict = {}
        tok_id: dict[str, int] = {}
        for t in (*pred, *ref):
            tok_id.setdefault(t, len(tok_id))
        stem_id: dict[str, int] = {}
        tok_stem = [stem_id.setdefault(stem(t), len(stem_id)) for t in tok_id]
        self.pred = [tok_id[t] for t in pred]
        self.pred_stems = [tok_stem[t] for t in self.pred]
        self.ref_tokens = [tok_id[u] for u in ref]
        n_tok, n_stem = len(tok_id), len(stem_id)

        # Match counts: exact quotas first, stem quotas on the residue.
        pc, rc = [0] * n_tok, [0] * n_tok
        for t in self.pred:
            pc[t] += 1
        for u in self.ref_tokens:
            rc[u] += 1
        exact = [min(a, b) for a, b in zip(pc, rc)]
        pred_left, ref_left = [0] * n_stem, [0] * n_stem
        for t, s in enumerate(tok_stem):
            pred_left[s] += pc[t] - exact[t]
            ref_left[s] += rc[t] - exact[t]
        self.exact_quota = exact
        self.stem_quota = [min(a, b) for a, b in zip(pred_left, ref_left)]
        self.n_exact, self.n_stem = sum(exact), sum(self.stem_quota)

        # Tokens with an exact quota, per stem: the exact reservations a
        # stem stage must leave room for.
        self.stem_tokens: list[list[int]] = [[] for _ in range(n_stem)]
        for t, s in enumerate(tok_stem):
            if exact[t]:
                self.stem_tokens[s].append(t)
        # Reference positions per token and per stem, and per-token bitmasks.
        self.ref_of_tok: list[list[int]] = [[] for _ in range(n_tok)]
        self.ref_of_stem: list[list[int]] = [[] for _ in range(n_stem)]
        self.ref_mask = [0] * n_tok
        for j, u in enumerate(self.ref_tokens):
            self.ref_of_tok[u].append(j)
            self.ref_of_stem[tok_stem[u]].append(j)
            self.ref_mask[u] |= 1 << j
        # Suffix counts: occurrences of position i's token and stem after i.
        n = len(self.pred)
        self.tok_after = [0] * n
        self.stem_after = [0] * n
        tok_seen, stem_seen = [0] * n_tok, [0] * n_stem
        for i in range(n - 1, -1, -1):
            t, s = self.pred[i], self.pred_stems[i]
            self.tok_after[i], self.stem_after[i] = tok_seen[t], stem_seen[s]
            tok_seen[t] += 1
            stem_seen[s] += 1

    def _stem_capacity_ok(self, i: int, exact_rem: list[int], demand: int) -> bool:
        """Whether the positions after i can host ``demand`` matches of i's stem.

        The exact quotas of the stem's tokens are reserved first. Every
        remaining exact quota fits in the positions after i (each branch
        checks this for the token it moves past), so all of them are
        reserved in that suffix.
        """
        reserved = sum(exact_rem[u] for u in self.stem_tokens[self.pred_stems[i]])
        return demand <= self.stem_after[i] - reserved

    def run(self) -> int:
        if self.n_exact + self.n_stem == 0:
            return 0
        result = self._go(0, 0, -2, list(self.exact_quota), list(self.stem_quota))
        if not math.isfinite(result):
            return self.n_exact + self.n_stem  # worst legal chunk count
        return int(result)

    def _go(self, i: int, used: int, prev: int, exact_rem: list[int], stem_rem: list[int]) -> float:
        # prev: ref index matched by pred position i-1, or -2 when i-1 unmatched.
        if i == len(self.pred):
            return 0.0 if not any(exact_rem) and not any(stem_rem) else math.inf
        key = (i, used, prev, tuple(exact_rem))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.nodes += 1
        over_budget = self.nodes > self.budget
        t = self.pred[i]
        s = self.pred_stems[i]
        t_after = self.tok_after[i]
        candidates: list[tuple[int, int, bool]] = []  # (order, ref_idx, is_exact)
        if exact_rem[t] > 0:
            exact_rem[t] -= 1
            exact_ok = exact_rem[t] <= t_after and self._stem_capacity_ok(i, exact_rem, stem_rem[s])
            exact_rem[t] += 1
            if exact_ok:
                for j in self.ref_of_tok[t]:
                    if not used >> j & 1:
                        cont = j == prev + 1
                        candidates.append((0 if cont else 2, j, True))
        if stem_rem[s] > 0 and exact_rem[t] <= t_after and self._stem_capacity_ok(
            i, exact_rem, stem_rem[s] - 1
        ):
            # A stem match must leave enough unused same-token refs for exact quotas.
            for j in self.ref_of_stem[s]:
                u = self.ref_tokens[j]
                if u != t and not used >> j & 1:
                    if (self.ref_mask[u] & ~used).bit_count() - 1 < exact_rem[u]:
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
        if exact_rem[t] <= t_after and self._stem_capacity_ok(i, exact_rem, stem_rem[s]):
            best = min(best, self._go(i + 1, used, -2, exact_rem, stem_rem))
        if not over_budget:
            self.memo[key] = best
        return best


def _tokens(tokens: Sequence[str]) -> tuple[str, ...]:
    """A caption's token sequence as a tuple; a string (characters, not words) or a ``Caption`` is a ValidationError."""
    if isinstance(tokens, str) or not hasattr(tokens, "__iter__"):
        raise ValidationError(f"caption metrics take token sequences, got {tokens!r}; tokenize it first")
    return tuple(tokens)


def _forced_alignment(p: tuple[str, ...], r: tuple[str, ...]) -> tuple[int, int] | None:
    """(matches, chunks) when the alignment is forced, else None.

    It is forced when no token repeats within either side and no stem links
    an unmatched prediction token to an unmatched reference token: every
    shared token is then an exact match with one reference position, and the
    stem stage matches nothing. A chunk starts at each match that does not
    continue the previous prediction position's match in the reference.
    """
    ref_pos = {u: j for j, u in enumerate(r)}
    pred_set = set(p)
    if len(ref_pos) < len(r) or len(pred_set) < len(p):
        return None
    pred_rest = {stem(t) for t in p if t not in ref_pos}
    if pred_rest and not pred_rest.isdisjoint(stem(u) for u in r if u not in pred_set):
        return None
    matches = chunks = 0
    prev = -2
    for t in p:
        j = ref_pos.get(t, -2)
        if j >= 0:
            matches += 1
            chunks += j != prev + 1
        prev = j
    return matches, chunks


def meteor_lite(pred: Sequence[str], ref: Sequence[str], *, over_budget: list | None = None) -> float:
    """Unigram-alignment caption score in [0, 1].

    Alignment maximizes matches (exact stage first, stems on the residue)
    and then minimizes chunks. With m matches, P = m/|pred|, R = m/|ref|,
    F = 10PR / (R + 9P), penalty = 0.5 (chunks/m)^3, score = F (1 - penalty).
    Empty captions and match-free pairs score 0. A forced alignment is
    counted directly; any other goes to the chunk search, and a pair whose
    search runs past its node budget is appended to ``over_budget`` if given.
    """
    p, r = _tokens(pred), _tokens(ref)
    if not p or not r:
        return 0.0
    forced = _forced_alignment(p, r)
    if forced is not None:
        matches, chunks = forced
    else:
        search = _ChunkSearch(p, r)
        matches = search.n_exact + search.n_stem
        chunks = search.run() if matches else 0
        if over_budget is not None and search.nodes > METEOR_NODE_BUDGET:
            over_budget.append((p, r))
    if matches == 0:
        return 0.0
    precision = matches / len(p)
    recall = matches / len(r)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


def _ngrams(tokens: tuple[str, ...], n: int) -> dict[tuple[str, ...], int]:
    """n-gram counts in first-occurrence order, as ``Counter`` keeps them."""
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens) - n + 1):
        gram = tokens[i : i + n]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


@dataclass
class IdfTable:
    """Corpus n-gram document frequencies; one caption = one document.

    The IDF weight of every n-gram in ``df``, and the weight of unseen ones,
    is computed once at construction. ``build`` also keeps every corpus
    document's TF-IDF vectors and norms, so a pair scored against a corpus
    caption computes only its prediction side; other references are
    vectorized on each call.
    """

    n_docs: int
    df: dict[tuple[str, ...], int]
    _weights: dict[tuple[str, ...], float] = field(init=False, repr=False, compare=False)
    _unseen: float = field(init=False, repr=False, compare=False)
    _refs: dict[tuple[str, ...], list[tuple[dict, float]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_docs < 1:
            self._weights, self._unseen = {}, 0.0
        else:
            self._weights = {g: math.log(self.n_docs / max(c, 1)) for g, c in self.df.items()}
            self._unseen = math.log(self.n_docs)

    @classmethod
    def build(cls, documents: Iterable[Sequence[str]]) -> "IdfTable":
        df: Counter = Counter()
        docs = []
        for doc in documents:
            tokens = _tokens(doc)
            docs.append(tokens)
            seen: set = set()
            for n in range(1, CIDER_MAX_N + 1):
                seen.update(_ngrams(tokens, n))
            df.update(seen)
        table = cls(n_docs=len(docs), df=dict(df))
        for tokens in docs:
            if tokens not in table._refs:
                table._refs[tokens] = table._vectors(tokens)
        return table

    def idf(self, gram: tuple[str, ...]) -> float:
        """log(N / df); unseen n-grams take the maximum weight log(N)."""
        return self._weights.get(gram, self._unseen)

    def _vectors(self, tokens: tuple[str, ...]) -> list[tuple[dict, float]]:
        """(TF-IDF vector, its L2 norm) for n = 1..CIDER_MAX_N."""
        weights, unseen = self._weights, self._unseen
        out = []
        for n in range(1, CIDER_MAX_N + 1):
            vec = {g: c * weights.get(g, unseen) for g, c in _ngrams(tokens, n).items()}
            norm2 = 0.0
            for v in vec.values():
                norm2 += v * v
            out.append((vec, math.sqrt(norm2)))
        return out


def cider_pair(pred: Sequence[str], ref: Sequence[str], idf: IdfTable) -> float:
    """Mean TF-IDF n-gram cosine over n = 1..CIDER_MAX_N, Gaussian length penalty of width CIDER_SIGMA.

    Normalized to [0, 1] (no x10 scale). A level with an all-zero vector on
    either side contributes 0. Sums add left to right, not with the builtin
    sum(), which compensates float sums from Python 3.12 on.
    """
    p, r = _tokens(pred), _tokens(ref)
    refs = idf._refs.get(r) or idf._vectors(r)
    total = 0.0
    for (pv, norm_p), (rv, norm_r) in zip(idf._vectors(p), refs):
        if norm_p == 0.0 or norm_r == 0.0:
            continue
        dot = 0.0
        for g, v in pv.items():
            if g in rv:
                dot += v * rv[g]
        total += dot / (norm_p * norm_r)
    penalty = math.exp(-((len(p) - len(r)) ** 2) / (2.0 * CIDER_SIGMA**2))
    return min(1.0, total / CIDER_MAX_N * penalty)


def exact_match(pred: Sequence[str], ref: Sequence[str]) -> float:
    """1.0 when token sequences are identical, else 0.0."""
    return 1.0 if _tokens(pred) == _tokens(ref) else 0.0
