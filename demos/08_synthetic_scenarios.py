"""The deterministic scenario generator behind the fixtures and benchmarks.

Ground truth is linear motion on a fixed canvas with templated captions;
predictions are the ground truth pushed through configurable corruptions.
Same seed, same bytes.
"""

import json
import tempfile
from pathlib import Path

from densevoc import SynthConfig, generate
from densevoc.formats import save_dataset

cfg = SynthConfig(
    seed=42,
    num_videos=2,
    frames_per_video=10,
    objects_per_video=3,
    box_jitter_sigma=1.5,
    drop_rate=0.1,
    false_positive_rate=0.1,
    id_switch_rate=0.1,
    caption_corruption_rate=0.3,
)
gts, preds = generate(cfg)

# Each video is a table: per-track ids and captions, per-box frames, corner
# rows and scores; track t owns box rows offsets[t]:offsets[t + 1].
gt = gts[0]
print(f"video {gt.video_id}: {gt.num_frames} frames, {len(gt.track_ids)} tracks")
for t, (track_id, caption) in enumerate(zip(gt.track_ids, gt.track_captions)):
    start, end = gt.offsets[t], gt.offsets[t + 1]
    x1, y1 = gt.corners[start, :2]
    print(f"  track {track_id}: {end - start} boxes, starts ({x1:.0f},{y1:.0f}), caption {caption!r}")

pred = preds[0]
print(f"prediction: {len(pred.track_ids)} tracks "
      f"(identity switches split or relabel, false positives add singletons)")

# Reproducibility: generating twice yields byte-identical files.
with tempfile.TemporaryDirectory() as tmp:
    a, b = Path(tmp, "a.json"), Path(tmp, "b.json")
    save_dataset(generate(cfg)[1], a)
    save_dataset(generate(cfg)[1], b)
    print("byte-identical across runs:", a.read_bytes() == b.read_bytes())

# The same generator is exposed on the command line:
print("\nCLI equivalent:")
print("  densevoc synth --seed 42 --num-videos 2 --frames 10 --objects 3 \\")
print("      --box-jitter 1.5 --drop-rate 0.1 --fp-rate 0.1 --id-switch-rate 0.1 \\")
print("      --caption-corruption-rate 0.3 --out-gt gt.json --out-pred pred.json")
print("  densevoc eval-chota gt.json pred.json --out report.json")
