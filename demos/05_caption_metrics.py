"""Caption similarity scoring: the METEOR variant and the consensus cosine.

Both metrics are normalized to [0, 1]. The consensus metric drops the
conventional x10 factor, so values are not comparable to tools that keep it.
"""

from densevoc import Caption, IdfTable, cider_pair, meteor_lite
from densevoc.capmetrics import stem

pred = Caption.from_text("a red car drives past the tree")
ref = Caption.from_text("the red car moves past a tree")

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
    Caption.from_text("a red car drives down the road").tokens,
    Caption.from_text("a blue car parked outside").tokens,
    Caption.from_text("the dog sleeps on the porch").tokens,
]
idf = IdfTable.build(corpus)
print("cider:", cider_pair(Caption.from_text("a red car"), Caption.from_text("a blue car"), idf))
