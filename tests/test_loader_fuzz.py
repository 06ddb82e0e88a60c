"""Garbled copies of valid files: every loader either loads the copy or
raises DataError, never another exception. A model or network whose
metadata holds a value of another kind, or a model whose pruning mask is
replaced by an arbitrary array, either is a DataError or runs. A model or
network with an entry that its writer never writes is a DataError."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sdrnn.audio_frontend import load_wav, read_manifest, save_wav, write_manifest
from sdrnn.convert import TimingConfig, compile_network, load_network, save_network
from sdrnn.errors import DataError, SdrnnError
from sdrnn.lprnn import forward_batch, init_model, load_model, magnitude_prune, save_model
from sdrnn.snn_sim import simulate_batch

LOADERS = {"model.npz": load_model, "net.npz": load_network, "manifest.csv": read_manifest,
           "clip.wav": load_wav}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    """A directory holding one small valid file per loader."""
    root = tmp_path_factory.mktemp("valid")
    model = init_model(3, (4, 4), 2, (0.6, 0.7, 0.8), t_ann=0.01, seed=5)
    model.norm_stats = {"min": [0.0] * 3, "max": [1.0] * 3}
    model.label_names = ["a", "b"]
    save_model(model, root / "model.npz")
    save_model(magnitude_prune(model, 0.5), root / "pruned.npz")
    save_network(compile_network(model, TimingConfig(t_ann=0.01, t_snn=0.001), f=5e4),
                 root / "net.npz")
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


#: JSON values of every kind: numbers (nan and infinities among them),
#: strings, null, booleans, and lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def metadata_paths(meta: dict) -> list[tuple]:
    """The place of every value of a model's or network's metadata: each
    top-level key, each config key, each layer entry and each key of each
    layer."""
    return ([(key,) for key in meta] + [("config", key) for key in meta.get("config", {})]
            + [("layers", li) for li in range(len(meta["layers"]))]
            + [("layers", li, key) for li, lmeta in enumerate(meta["layers"]) for key in lmeta])


def edited_copy(valid_dir, name: str, data) -> object:
    """The file `name` with one drawn metadata value replaced by a drawn JSON
    value, loaded; None if the loader raised DataError."""
    with np.load(valid_dir / name) as archive:
        arrays = dict(archive)
    meta = json.loads(bytes(arrays["meta"]).decode())
    *parents, key = data.draw(st.sampled_from(metadata_paths(meta)))
    target = meta
    for parent in parents:
        target = target[parent]
    target[key] = data.draw(JSON_VALUES)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = valid_dir / f"edited-{name}"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    try:
        return LOADERS[name](path)
    except DataError:
        return None


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_network_metadata_value_replaced_is_data_error_or_runs(valid_dir, data):
    net = edited_copy(valid_dir, "net.npz", data)
    if net is None:
        return
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(2, 3, 3))
    for mode in ("reference", "fixed"):
        try:
            simulate_batch(net, x, mode)
        except SdrnnError:
            pass


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_model_metadata_value_replaced_is_data_error_or_runs(valid_dir, data):
    model = edited_copy(valid_dir, "model.npz", data)
    if model is None:
        return
    try:
        forward_batch(model, np.random.default_rng(0).uniform(0.0, 1.0, size=(2, 3, 3)))
    except SdrnnError:
        pass


def any_array(shape=None):
    """Arrays of every scalar dtype (nan and infinities among the floats),
    of strings and of bytes, of up to three small dimensions or of shape."""
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    dtypes = (hnp.scalar_dtypes() | hnp.unicode_string_dtypes(max_len=4)
              | hnp.byte_string_dtypes(max_len=4))
    return hnp.arrays(dtypes, shapes if shape is None else shapes | st.just(shape))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mask_replaced_is_data_error_or_holds_the_invariant(valid_dir, data):
    # a mask of another shape ended the first forward pass in a ValueError,
    # and one of 0.5s or with a nonzero weight under a 0 loaded; a mask is
    # also drawn for a layer without w_rec, and as a 0/1 array of its
    # weight's shape. A weight or bias is drawn the same way: a NaN weight
    # loaded, and a string weight or a complex bias ended the first pass in
    # a UFuncTypeError
    with np.load(valid_dir / "pruned.npz") as archive:
        arrays = dict(archive)
    n_layers = sum(1 for key in arrays if key.endswith("_w_in"))
    li = data.draw(st.integers(0, n_layers - 1))
    name = data.draw(st.sampled_from(["mask_in", "mask_rec", "w_in", "w_rec", "bias"]))
    # a mask takes its weight's shape
    shape = arrays.get(f"l{li}_{name.replace('mask', 'w')}", np.zeros((2, 2))).shape
    zero_one = hnp.arrays(st.sampled_from([np.float64, np.int8]), shape,
                          elements=st.sampled_from([0, 1]))
    arrays[f"l{li}_{name}"] = data.draw(any_array(shape) | zero_one)
    path = valid_dir / "edited-pruned.npz"
    np.savez(path, **arrays)
    try:
        model = load_model(path)
    except DataError:
        return
    for layer in model.layers:
        for w in (layer.w_in, layer.w_rec, layer.bias):
            if w is not None:
                assert w.dtype.kind in "iuf" and np.isfinite(w).all()
        for w, mask in ((layer.w_in, layer.mask_in), (layer.w_rec, layer.mask_rec)):
            if mask is not None:
                assert mask.shape == w.shape and np.isin(mask, (0, 1)).all()
                assert (w[mask == 0] == 0).all()
    # a finite weight may still take the pass beyond the float range
    with np.errstate(over="ignore", invalid="ignore"):
        forward_batch(model, np.random.default_rng(0).uniform(0.0, 1.0, size=(2, 3, 3)))


#: The layer arrays and the extra entries that each file's writer may write
LAYER_ARRAYS = {"model.npz": ("w_in", "bias", "w_rec", "mask_in", "mask_rec"),
                "net.npz": ("w_in", "w_rec", "bias", "enc_w")}
EXTRA_ENTRIES = {"model.npz": (), "net.npz": ("source_model",)}


def written_names(name: str, n_layers: int) -> set[str]:
    """Every entry that the writer of the file name, of n_layers layers, may
    write."""
    return {"meta", *EXTRA_ENTRIES[name], *(f"l{li}_{array}" for li in range(n_layers)
                                            for array in LAYER_ARRAYS[name])}


#: Entry names: arbitrary ones, and those of a layer array with an index
#: past the layers or a suffix, as files once held (l0_w_in_q, l0_w_in_scale)
ENTRY_NAMES = st.text("abcdilmnq_0123456789.-", min_size=1, max_size=12) | st.builds(
    "l{}_{}{}".format, st.integers(0, 12),
    st.sampled_from(sorted(set(LAYER_ARRAYS["model.npz"] + LAYER_ARRAYS["net.npz"]))),
    st.sampled_from(["", "_q", "_scale", "x"]))


@pytest.mark.parametrize("name", ["model.npz", "net.npz"])
@given(entry=ENTRY_NAMES, value=any_array())
@settings(max_examples=100, deadline=None)
def test_archive_with_an_entry_its_writer_never_writes_is_data_error(valid_dir, name, entry,
                                                                     value):
    with np.load(valid_dir / name) as archive:
        arrays = dict(archive)
    n_layers = len(json.loads(bytes(arrays["meta"]).decode())["layers"])
    assume(entry not in written_names(name, n_layers))
    path = valid_dir / f"added-{name}"
    np.savez(path, **arrays, **{entry: value})
    with pytest.raises(DataError, match=re.escape(f"{entry!r} is no entry of")):
        LOADERS[name](path)
