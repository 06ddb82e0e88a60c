import math

import numpy as np
import pytest

from sdrnn.audio_frontend import (AudioClip, MelConfig, apply_norm, cache_key,
                                  compute_norm_stats, filter_center_freqs,
                                  hann_window, hz_to_mel, load_wav,
                                  mel_filterbank, mel_spectrogram, mel_to_hz,
                                  read_manifest, save_wav, stft_magnitude,
                                  write_manifest)
from sdrnn.errors import ConfigError, DataError

CFG = MelConfig()


class TestWavIO:
    def test_silent_file(self, tmp_path):
        path = tmp_path / "silent.wav"
        save_wav(path, np.zeros(16000), 16000)
        clip = load_wav(path)
        assert clip.sample_rate == 16000
        assert np.all(clip.samples == 0.0)

    def test_full_scale_square_wave(self, tmp_path):
        path = tmp_path / "square.wav"
        square = np.where(np.arange(256) % 2 == 0, 1.0, -1.0)
        save_wav(path, square, 16000)
        clip = load_wav(path)
        # 16-bit PCM full scale: +/-32767 over 32768
        expected = np.where(np.arange(256) % 2 == 0, 32767 / 32768, -32767 / 32768)
        np.testing.assert_allclose(clip.samples, expected, rtol=0)

    def test_stereo_rejected(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(DataError):
            load_wav(path)

    def test_8bit_rejected(self, tmp_path):
        import wave

        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(b"\x80" * 100)
        with pytest.raises(DataError):
            load_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"definitely not a wav file")
        with pytest.raises(DataError):
            load_wav(path)

    def test_data_chunk_ending_inside_a_sample_rejected(self, tmp_path):
        path = tmp_path / "odd.wav"
        save_wav(path, np.zeros(100), 16000)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match="inside a sample"):
            load_wav(path)

    def test_chunk_length_past_end_of_file_rejected(self, tmp_path):
        # a chunk before the data chunk claims more bytes than the file
        # holds: wave's chunk skip fails with a bare RuntimeError
        path = tmp_path / "skip.wav"
        save_wav(path, np.zeros(100), 16000)
        data = path.read_bytes()
        chunk = b"LIST" + (10 ** 6).to_bytes(4, "little") + b"abcd"
        path.write_bytes(data[:36] + chunk + data[36:])
        with pytest.raises(DataError, match="malformed WAV"):
            load_wav(path)


class TestFft:
    def test_impulse_flat_spectrum(self):
        # the transform of a unit impulse is all ones
        x = np.zeros(256)
        x[0] = 1.0
        spectrum = np.fft.rfft(x)
        np.testing.assert_allclose(spectrum, np.ones(129), atol=1e-12)

    @pytest.mark.parametrize("n", [16, 256, 1024, 4096])
    def test_round_trip_identity(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        back = np.fft.irfft(np.fft.rfft(x), n=n)
        assert np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-10

    def test_parseval_pre_mel(self):
        # sum of squared STFT magnitudes over the full spectrum equals
        # n_fft times the windowed-frame energy
        rng = np.random.default_rng(7)
        samples = rng.normal(size=4000)
        n_fft, hop = 512, 160
        mag = stft_magnitude(samples, n_fft, hop)
        window = hann_window(n_fft)
        for fr in range(mag.shape[0]):
            frame = samples[fr * hop:fr * hop + n_fft] * window
            full_power = mag[fr, 0] ** 2 + mag[fr, -1] ** 2 + 2 * (mag[fr, 1:-1] ** 2).sum()
            energy = n_fft * (frame ** 2).sum()
            assert abs(full_power - energy) / energy < 1e-6

    @pytest.mark.parametrize("n_samples, n_fft, hop", [
        (512, 512, 160), (4000, 512, 160), (1000, 64, 100), (100, 16, 1)],
        ids=["one-frame", "remainder", "hop-past-window", "hop-1"])
    def test_frames_match_an_index_gather(self, n_samples, n_fft, hop):
        # frame r is samples[r * hop : r * hop + n_fft], the last one whole:
        # bit-identical to gathering through a [frames, n_fft] index matrix
        samples = np.random.default_rng(n_samples).normal(size=n_samples)
        n_frames = 1 + (n_samples - n_fft) // hop
        idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
        want = np.abs(np.fft.rfft(samples[idx] * hann_window(n_fft), axis=1))
        np.testing.assert_array_equal(stft_magnitude(samples, n_fft, hop), want)

    def test_short_clip_rejected(self):
        with pytest.raises(DataError):
            stft_magnitude(np.zeros(100), 512, 160)


class TestMelFilterbank:
    def test_rows_nonnegative_and_sum_to_one(self):
        bank = mel_filterbank(CFG)
        assert bank.shape == (CFG.n_mels, CFG.n_fft // 2 + 1)
        assert np.all(bank >= 0.0)
        np.testing.assert_allclose(bank.sum(axis=1), 1.0, rtol=1e-12)

    def test_built_once_per_config_and_read_only(self):
        # every clip of a config shares one bank, which no caller can
        # change; the features equal those of a freshly built bank
        bank = mel_filterbank(CFG)
        assert mel_filterbank(MelConfig()) is bank
        assert mel_filterbank(MelConfig(n_mels=20)).shape == (20, CFG.n_fft // 2 + 1)
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        fresh = mel_filterbank.__wrapped__(CFG)
        np.testing.assert_array_equal(fresh, bank)
        samples = np.random.default_rng(3).uniform(-0.5, 0.5, size=4000)
        power = stft_magnitude(samples, CFG.n_fft, CFG.hop_length) ** 2
        feats = mel_spectrogram(AudioClip(samples, CFG.sample_rate), CFG)
        np.testing.assert_array_equal(feats.data, np.log(power @ fresh.T + CFG.log_floor))

    def test_mel_scale_round_trip(self):
        freqs = np.linspace(20, 8000, 50)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 5, 20, 39])
    def test_sine_at_center_frequency_hits_bin(self, k):
        # filterbank geometry: a pure tone at filter k's center frequency
        # puts its energy argmax in mel bin k
        centers = filter_center_freqs(CFG)
        t = np.arange(16000) / CFG.sample_rate
        clip = AudioClip(0.5 * np.sin(2 * np.pi * centers[k] * t), CFG.sample_rate)
        feats = mel_spectrogram(clip, CFG)
        mean_energy = feats.data.mean(axis=0)
        assert mean_energy.argmax() == k

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            MelConfig(sample_rate=16000, f_max=9000)


class TestMelSpectrogram:
    def test_silence_normalizes_to_zero(self):
        clip = AudioClip(np.zeros(16000), CFG.sample_rate)
        raw = mel_spectrogram(clip, CFG)
        # silence gives constant log floor features
        np.testing.assert_allclose(raw.data, np.log(CFG.log_floor), rtol=1e-9)
        stats = {"min": list(np.log(CFG.log_floor) * np.ones(CFG.n_mels)),
                 "max": list(np.ones(CFG.n_mels))}
        normed = apply_norm(raw.data, stats)
        assert np.all(normed == 0.0)

    def test_frame_period_and_shape(self):
        clip = AudioClip(np.zeros(16000), CFG.sample_rate)
        feats = mel_spectrogram(clip, CFG)
        assert feats.frame_period == pytest.approx(0.01)
        assert feats.data.shape == (1 + (16000 - CFG.n_fft) // CFG.hop_length, CFG.n_mels)

    def test_determinism_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "x.wav"
        save_wav(path, rng.uniform(-0.5, 0.5, size=16000), 16000)
        a = mel_spectrogram(load_wav(path), CFG).data
        b = mel_spectrogram(load_wav(path), CFG).data
        np.testing.assert_array_equal(a, b)

    def test_norm_stats_clip_to_unit_interval(self):
        rng = np.random.default_rng(4)
        train = [rng.normal(size=(50, CFG.n_mels)) for _ in range(3)]
        stats = compute_norm_stats(train)
        normed = apply_norm(rng.normal(size=(70, CFG.n_mels)) * 3, stats)
        assert normed.min() >= 0.0 and normed.max() <= 1.0
        # training data itself spans the full range
        spans = apply_norm(np.concatenate(train), stats)
        assert spans.min() == 0.0 and spans.max() == 1.0


class TestManifestAndCache:
    def test_manifest_round_trip(self, tmp_path):
        rows = [{"path": "wav/a.wav", "label": "up", "split": "train"},
                {"path": "wav/b.wav", "label": "down", "split": "test"}]
        path = tmp_path / "manifest.csv"
        write_manifest(path, rows)
        assert read_manifest(path) == rows

    def test_manifest_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("file,klass\nx,y\n")
        with pytest.raises(DataError):
            read_manifest(path)

    def test_cache_key_tracks_file_and_config(self, tmp_path):
        p1 = tmp_path / "a.wav"
        save_wav(p1, np.zeros(1600), 16000)
        k1 = cache_key(p1, CFG)
        assert k1 == cache_key(p1, CFG)
        save_wav(p1, np.ones(1600) * 0.5, 16000)
        assert cache_key(p1, CFG) != k1
        assert cache_key(p1, MelConfig(n_mels=30)) != cache_key(p1, CFG)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: MelConfig(n_fft=500), ConfigError, "power of two", id="n_fft"),
    pytest.param(lambda: MelConfig(f_min=8000.0), ConfigError, "f_min", id="f_min"),
    pytest.param(lambda: MelConfig(hop_length=0), ConfigError, "hop_length", id="hop_length"),
    pytest.param(lambda: MelConfig(log_floor=0.0), ConfigError, "log_floor", id="log_floor"),
    pytest.param(lambda: MelConfig(log_floor=math.inf), ConfigError, "log_floor",
                 id="log_floor-inf"),
    pytest.param(lambda: mel_filterbank(MelConfig(n_fft=64, n_mels=40)), ConfigError, "empty",
                 id="empty-filter"),
    pytest.param(lambda: mel_spectrogram(AudioClip(np.zeros(16000), 8000), CFG), DataError,
                 "sample rate", id="sample-rate"),
    pytest.param(lambda: compute_norm_stats([]), DataError, "empty split", id="empty-split"),
])
def test_input_check(call, error, match):
    with pytest.raises(error, match=match):
        call()
