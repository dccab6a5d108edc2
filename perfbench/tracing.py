"""Layer tracing by wrapping densevoc's functions where callers look them up.

Each wrapped binding records calls and inclusive seconds; a wrapper called
while another wrapped call is running adds its duration to the caller's child
time, so a layer's self time is its inclusive time minus its wrapped
children. The wrappers live in the benchmark, so ``src/`` needs no hooks.

A layer that the program stops calling reads 0 calls and 0 seconds; the work
it did then shows in its caller's self time (for example, vectorised IoU
inside ``chota`` moves ``core.iou.s`` into ``metrics.chota.self_s``).
"""

from __future__ import annotations

import os
import time


def _caption_key(caption):
    return tuple(getattr(caption, "tokens", caption))


class Layer:
    __slots__ = ("calls", "total", "child", "bytes", "distinct")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.bytes = 0
        self.distinct = None


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._child_time = []  # one accumulator per wrapped call in flight

    def wrap(self, module, attr: str, name: str, path_arg: int | None = None, pairs: bool = False):
        """Replace ``module.attr`` with a timing wrapper recorded as ``name``.

        ``path_arg`` names the positional argument holding a file path whose
        size after the call counts as bytes moved; ``pairs`` records the
        distinct (pred, ref) caption arguments.
        """
        layer = self.layers.setdefault(name, Layer())
        fn = getattr(module, attr, None)
        if fn is None:
            return  # binding gone: the layer reads 0 calls
        if pairs:
            layer.distinct = set()
        stack = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layer.child += stack.pop()
                layer.calls += 1
                layer.total += elapsed
                if stack:
                    stack[-1] += elapsed
                if path_arg is not None:
                    layer.bytes += os.path.getsize(args[path_arg])
                if pairs:
                    layer.distinct.add((_caption_key(args[0]), _caption_key(args[1])))

        setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {
            name: {
                "calls": layer.calls,
                "s": layer.total,
                "self_s": layer.total - layer.child,
                "bytes": layer.bytes,
                "distinct": None if layer.distinct is None else len(layer.distinct),
            }
            for name, layer in self.layers.items()
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced densevoc binding at the module where it is looked up."""
    from densevoc import formats, metrics, synth

    tracer.wrap(formats, "load_dataset", "formats.load_dataset", path_arg=0)
    tracer.wrap(formats, "save_dataset", "formats.save_dataset", path_arg=1)
    tracer.wrap(formats, "write_json", "formats.write_json")
    tracer.wrap(synth, "generate", "synth.generate")
    tracer.wrap(metrics, "chota", "metrics.chota")
    tracer.wrap(metrics, "ap_m", "metrics.ap_m")
    tracer.wrap(metrics, "average_precision", "metrics.average_precision")
    tracer.wrap(metrics, "linear_sum_assignment", "metrics.linear_sum_assignment")
    # core.iou and the caption scorers as bound inside densevoc.metrics.
    tracer.wrap(metrics, "iou", "core.iou")
    tracer.wrap(metrics, "meteor_lite", "capmetrics.meteor_lite", pairs=True)
    tracer.wrap(metrics, "cider_pair", "capmetrics.cider_pair")
