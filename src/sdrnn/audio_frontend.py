"""WAV ingestion and mel-spectrogram features.

Pipeline: 16-bit PCM mono WAV -> magnitude STFT (periodic Hann window, FFT)
-> triangular mel filterbank on the HTK mel scale, each filter normalized to
unit weight sum -> log(power + log_floor) -> per-feature min-max
normalization to [0, 1] with statistics computed on the training split only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import wave
from dataclasses import asdict, dataclass

import numpy as np

from .containers import FeatureSequence
from .errors import ConfigError, DataError, _finite_positive, reading


@dataclass
class AudioClip:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int


@dataclass(frozen=True)
class MelConfig:
    sample_rate: int = 16000
    n_fft: int = 512
    hop_length: int = 160
    n_mels: int = 40
    f_min: float = 20.0
    f_max: float = 8000.0
    log_floor: float = 1e-6

    def __post_init__(self):
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ConfigError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.f_max > self.sample_rate / 2:
            raise ConfigError("f_max must not exceed the Nyquist frequency")
        if not 0 <= self.f_min < self.f_max:
            raise ConfigError("need 0 <= f_min < f_max")
        if self.hop_length < 1 or self.n_mels < 1:
            raise ConfigError("hop_length and n_mels must be positive")
        if not _finite_positive(self.log_floor):
            raise ConfigError(f"log_floor must be a finite positive number, not {self.log_floor!r}")

    @property
    def frame_period(self) -> float:
        return self.hop_length / self.sample_rate

    def digest(self) -> str:
        return hashlib.sha1(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:16]


def load_wav(path) -> AudioClip:
    """Read a 16-bit PCM mono WAV file into normalized float samples."""
    try:
        with wave.open(str(path), "rb") as fh:
            n_channels, sampwidth, rate, n_frames = fh.getparams()[:4]
            raw = fh.readframes(n_frames)
    # wave's chunk skip raises a bare RuntimeError past the end of the file
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise DataError(f"{path}: malformed WAV file ({exc!r})") from exc
    if n_channels != 1:
        raise DataError(f"{path}: expected mono audio, got {n_channels} channels")
    if sampwidth != 2:
        raise DataError(f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    if len(raw) % 2:
        raise DataError(f"{path}: data chunk ends inside a sample ({len(raw)} bytes)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples=samples, sample_rate=rate)


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM mono."""
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges(cfg: MelConfig) -> np.ndarray:
    """The n_mels + 2 filter edges in Hz, equally spaced in mel: filter k spans k to k + 2."""
    return mel_to_hz(np.linspace(hz_to_mel(cfg.f_min), hz_to_mel(cfg.f_max), cfg.n_mels + 2))


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular filters [n_mels, n_fft//2 + 1]; each row sums to 1. Built
    once per config and shared by every clip, so the array is read-only."""
    n_bins = cfg.n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.n_fft
    edges = _mel_edges(cfg)
    bank = np.zeros((cfg.n_mels, n_bins))
    for k in range(cfg.n_mels):
        lo, mid, hi = edges[k], edges[k + 1], edges[k + 2]
        up = (fft_freqs - lo) / (mid - lo)
        down = (hi - fft_freqs) / (hi - mid)
        bank[k] = np.maximum(0.0, np.minimum(up, down))
        total = bank[k].sum()
        if total <= 0:
            raise ConfigError(
                f"mel filter {k} is empty; n_fft {cfg.n_fft} too small for {cfg.n_mels} bins")
        bank[k] /= total
    bank.flags.writeable = False
    return bank


def filter_center_freqs(cfg: MelConfig) -> np.ndarray:
    return _mel_edges(cfg)[1:-1]


def hann_window(n: int) -> np.ndarray:
    # periodic form, suited for spectral analysis with overlapping frames
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(samples: np.ndarray, n_fft: int, hop_length: int) -> np.ndarray:
    """Magnitude STFT [n_frames, n_fft//2 + 1]; frames lie fully inside the signal."""
    if samples.size < n_fft:
        raise DataError(f"clip of {samples.size} samples shorter than n_fft {n_fft}")
    frames = np.lib.stride_tricks.sliding_window_view(samples, n_fft)[::hop_length]
    return np.abs(np.fft.rfft(frames * hann_window(n_fft), axis=1))


def mel_spectrogram(clip: AudioClip, cfg: MelConfig) -> FeatureSequence:
    """Log mel power features, before normalization (apply_norm)."""
    if clip.sample_rate != cfg.sample_rate:
        raise DataError(
            f"clip sample rate {clip.sample_rate} != configured {cfg.sample_rate}")
    mag = stft_magnitude(clip.samples, cfg.n_fft, cfg.hop_length)
    power = mag ** 2
    mel = power @ mel_filterbank(cfg).T
    return FeatureSequence(np.log(mel + cfg.log_floor), frame_period=cfg.frame_period)


def compute_norm_stats(feature_list: list[np.ndarray]) -> dict:
    """Per-feature min/max over every frame of the training split."""
    if not feature_list:
        raise DataError("cannot compute normalization statistics from an empty split")
    stacked = np.concatenate([np.asarray(f) for f in feature_list], axis=0)
    return {"min": stacked.min(axis=0).tolist(), "max": stacked.max(axis=0).tolist()}


def apply_norm(feats: np.ndarray, stats: dict) -> np.ndarray:
    lo = np.asarray(stats["min"])
    hi = np.asarray(stats["max"])
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.clip((feats - lo) / span, 0.0, 1.0)


# Dataset manifests are plain text tables: a `path,label,split` header line
# followed by one row per clip. Paths are relative to the manifest location.

def read_manifest(path) -> list[dict]:
    rows = []
    with reading(path), open(path) as fh:
        header = fh.readline().strip()
        if header != "path,label,split":
            raise DataError(f"{path}: manifest must start with 'path,label,split'")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{path}:{ln}: expected 3 fields, got {len(parts)}")
            rows.append({"path": parts[0], "label": parts[1], "split": parts[2]})
    return rows


def write_manifest(path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("path,label,split\n")
        for row in rows:
            fh.write(f"{row['path']},{row['label']},{row['split']}\n")


def file_digest(path) -> str:
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def cache_key(wav_path, cfg: MelConfig) -> str:
    return f"{file_digest(wav_path)}-{cfg.digest()}"
