"""Garbled copies of valid files: every loader either loads the copy or
raises DataError, never another exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrnn.audio_frontend import load_wav, read_manifest, save_wav, write_manifest
from sdrnn.containers import SpikeRaster, load_raster, save_raster
from sdrnn.convert import TimingConfig, compile_network, load_network, save_network
from sdrnn.errors import DataError
from sdrnn.lprnn import init_model, load_model, save_model

LOADERS = {"model.npz": load_model, "net.npz": load_network, "raster.txt": load_raster,
           "manifest.csv": read_manifest, "clip.wav": load_wav}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    """A directory holding one small valid file per loader."""
    root = tmp_path_factory.mktemp("valid")
    model = init_model(3, (4, 4), 2, (0.6, 0.7, 0.8), t_ann=0.01, seed=5)
    model.norm_stats = {"min": [0.0] * 3, "max": [1.0] * 3}
    model.label_names = ["a", "b"]
    save_model(model, root / "model.npz")
    save_network(compile_network(model, TimingConfig(t_ann=0.01, t_snn=0.001), f=5e4),
                 root / "net.npz")
    save_raster(SpikeRaster([1, 3, 3, 8], [0, 2, 1, 0], 10, 3, 0.001), root / "raster.txt")
    write_manifest(root / "manifest.csv", [{"path": "a.wav", "label": "yes", "split": "train"},
                                           {"path": "b.wav", "label": "no", "split": "test"}])
    save_wav(root / "clip.wav", np.sin(np.arange(600) / 7.0) * 0.5, 16000)
    return root


def garble(data: bytes, how: str, at: int, byte: int) -> bytes:
    """data cut before, flipped at (xor byte) or with byte inserted at
    position `at`."""
    if how == "truncate":
        return data[:at]
    if how == "flip":
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    return data[:at] + bytes([byte]) + data[at:]


def load_or_data_error(root, name: str, data: bytes):
    path = root / f"garbled-{name}"
    path.write_bytes(data)
    try:
        LOADERS[name](path)
    except DataError:
        pass


@pytest.mark.parametrize("name", LOADERS)
@given(how=st.sampled_from(["truncate", "flip", "insert"]),
       where=st.floats(0.0, 1.0, exclude_max=True), byte=st.integers(1, 255))
@settings(max_examples=150, deadline=None)
def test_garbled_file_loads_or_is_data_error(valid_dir, name, how, where, byte):
    data = (valid_dir / name).read_bytes()
    load_or_data_error(valid_dir, name, garble(data, how, int(where * len(data)), byte))


@pytest.mark.parametrize("name", ["model.npz", "net.npz"])
def test_garbled_archive_directory_loads_or_is_data_error(valid_dir, name):
    # every byte of the zip directory (the archive's last entries) flipped
    # in its low bit (an entry's encryption flag among them) and in bit 6
    # (the version an entry needs among them), and in the whole byte
    data = (valid_dir / name).read_bytes()
    end = data.rindex(b"PK\x05\x06")  # the end record gives the directory's offset
    for at in range(int.from_bytes(data[end + 16:end + 20], "little"), len(data)):
        for byte in (1, 64, 255):
            load_or_data_error(valid_dir, name, garble(data, "flip", at, byte))


@pytest.mark.parametrize("name", ["model.npz", "net.npz"])
def test_every_truncation_of_an_archive_is_data_error(valid_dir, name):
    # a zip archive ends with its directory, so no cut of it loads
    data = (valid_dir / name).read_bytes()
    path = valid_dir / f"cut-{name}"
    for at in range(0, len(data), max(1, len(data) // 97)):
        path.write_bytes(data[:at])
        with pytest.raises(DataError):
            LOADERS[name](path)
