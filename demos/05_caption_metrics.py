"""Caption similarity scoring: the METEOR variant and the consensus cosine.

Both metrics are normalized to [0, 1]. The consensus metric drops the
conventional x10 factor, so values are not comparable to tools that keep it.
Every metric takes captions as token sequences; ``tokenize`` makes them.
"""

from densevoc import IdfTable, cider_pair, meteor_lite, tokenize
from densevoc.capmetrics import stem

pred = tokenize("a red car drives past the tree")
ref = tokenize("the red car moves past a tree")
print("tokens:", pred)

# Unigram alignment with exact and stem stages, maximizing matches and then
# minimizing chunks; the chunk penalty rewards contiguous agreement.
print("meteor:", meteor_lite(pred, ref))
print("meteor self:", meteor_lite(ref, ref))  # not 1.0: the chunk penalty never vanishes

# The stem stage lets inflected forms match.
print("stems:", [stem(t) for t in ("dogs", "running", "flies", "moved")])

# The consensus metric weights n-grams by corpus IDF: rare n-grams dominate,
# and n-grams present in every document contribute nothing. One ground-truth
# caption counts as one document.
corpus = [
    tokenize("a red car drives down the road"),
    tokenize("a blue car parked outside"),
    tokenize("the dog sleeps on the porch"),
]
idf = IdfTable.build(corpus)
print("cider:", cider_pair(tokenize("a red car"), tokenize("a blue car"), idf))

# A bare string is rejected rather than scored letter by letter.
try:
    meteor_lite("a dog", "a god")
except ValueError as exc:
    print("rejected:", exc)
