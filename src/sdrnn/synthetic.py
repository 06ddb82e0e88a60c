"""Deterministic synthetic keyword-spotting stand-in: four classes of
frequency-sweep tones rendered as one-second WAV clips at 16 kHz.

Classes: "up" (rising chirp), "down" (falling chirp), "dip" (fall then
rise), "peak" (rise then fall). Per-clip frequency endpoints and amplitude
jitter come from a seeded generator, so a given (out_dir, seed, counts)
triple always produces byte-identical files and manifest.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio_frontend import save_wav, write_manifest

CLASSES = ("up", "down", "dip", "peak")
SAMPLE_RATE = 16000


def _sweep_freqs(kind: str, f_lo: float, f_hi: float, t: np.ndarray) -> np.ndarray:
    ramp = t / t[-1]
    if kind == "up":
        return f_lo + (f_hi - f_lo) * ramp
    if kind == "down":
        return f_hi - (f_hi - f_lo) * ramp
    if kind == "dip":
        return f_hi - (f_hi - f_lo) * (1.0 - np.abs(2.0 * ramp - 1.0))
    if kind == "peak":
        return f_lo + (f_hi - f_lo) * (1.0 - np.abs(2.0 * ramp - 1.0))
    raise ValueError(f"unknown class {kind!r}")


def render_clip(kind: str, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    f_lo = rng.uniform(300.0, 500.0)
    f_hi = rng.uniform(2500.0, 4000.0)
    freqs = _sweep_freqs(kind, f_lo, f_hi, t)
    phase = 2.0 * np.pi * np.cumsum(freqs) / SAMPLE_RATE
    amp = rng.uniform(0.4, 0.7)
    noise = rng.normal(0.0, 0.004, size=t.size)
    return amp * np.sin(phase) + noise


def generate_dataset(out_dir, n_train: int = 200, n_test: int = 100, seed: int = 7) -> Path:
    """Write WAV clips plus a `manifest.csv`; returns the manifest path."""
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for split, count in (("train", n_train), ("test", n_test)):
        per_class = count // len(CLASSES)
        extra = count - per_class * len(CLASSES)
        for ci, kind in enumerate(CLASSES):
            n = per_class + (1 if ci < extra else 0)
            for k in range(n):
                name = f"{split}_{kind}_{k:03d}.wav"
                samples = render_clip(kind, rng)
                save_wav(wav_dir / name, samples, SAMPLE_RATE)
                rows.append({"path": f"wav/{name}", "label": kind, "split": split})
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest
