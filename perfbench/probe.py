"""Host-speed probe: a fixed piece of work in the style of densevoc's hot paths.

The reference host's vCPUs change speed with other tenants' load, by up to
2.4x, in phases of seconds to minutes, and CPU time grows as much as wall
time. The probe measures that speed next to each operation: pure-Python IoU
over attribute-holding boxes, small numpy arrays, ``linear_sum_assignment``,
``Counter`` token matching and JSON round trips, on data fixed here. It
imports nothing from densevoc, so its work is the same on every commit. One
pass takes about 0.1 s on the reference host at full speed.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment

WORDS = ("a", "red", "car", "moves", "past", "the", "tree", "blue", "bus", "waits", "near", "gate")
FRAMES, OBJECTS, CAPTION_PAIRS, RECORDS = 340, 8, 3800, 3800


class _Box:
    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1, y1, x2, y2):
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2

    @property
    def area(self):
        return (self.x2 - self.x1) * (self.y2 - self.y1)


def _iou(a: _Box, b: _Box) -> float:
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = a.area + b.area - inter
    return inter / union if union > 0.0 else 0.0


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20230620)

        def boxes():
            xy = rng.uniform(0, 200, size=(OBJECTS, 2))
            wh = rng.uniform(25, 60, size=(OBJECTS, 2))
            return [_Box(float(x), float(y), float(x + w), float(y + h)) for (x, y), (w, h) in zip(xy, wh)]

        self.frames = [(boxes(), boxes()) for _ in range(FRAMES)]
        self.pairs = [
            tuple(tuple(WORDS[int(k)] for k in rng.integers(len(WORDS), size=7)) for _ in range(2))
            for _ in range(CAPTION_PAIRS)
        ]
        self.records = [{"frame": f, "box": [1.5 * f, 2.0, 30.25, 41.0], "score": 0.5} for f in range(RECORDS)]

    def work(self) -> float:
        total = 0.0
        for gts, preds in self.frames:
            sim = np.array([[_iou(g, p) for p in preds] for g in gts])
            rows, cols = linear_sum_assignment(-sim)
            total += float(sim[rows, cols].sum())
        for pred, ref in self.pairs:
            for n in (1, 2):
                pc = Counter(pred[k : k + n] for k in range(len(pred) - n + 1))
                rc = Counter(ref[k : k + n] for k in range(len(ref) - n + 1))
                total += sum(min(c, rc[t]) for t, c in pc.items() if t in rc) / len(pred)
        total += len(json.loads(json.dumps(self.records)))
        return total

    def seconds(self) -> float:
        """Duration of one pass, without pauses to collect the caller's heap."""
        gc.disable()
        try:
            start = time.perf_counter()
            self.work()
            return time.perf_counter() - start
        finally:
            gc.enable()
