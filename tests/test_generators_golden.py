"""Golden digests of the benchmark and dataset generators.

The fidelity tests and the benchmark draw their models, probe signals and
WAV clips from `benchmarks` and `synthetic`, whose shapes and scales are
constants of those modules. Each case hashes what a fixed seed draws and
compares it with the digest the generators gave when the table was
written, so a changed constant (or a changed order of draws) fails here
instead of moving error bounds elsewhere. A change that alters the
generators on purpose rewrites the table and says why in CHANGES.md.
"""

import numpy as np

from sdrnn.benchmarks import make_random_model, make_smooth_input
from sdrnn.synthetic import generate_dataset

from test_engine_golden import Hasher

#: SHA-256 of the weights and biases of the first two models that
#: make_random_model draws from default_rng(44)
GOLDEN_MODELS = "6428cb878deae3c64981781a8c9c05b82aa9193f9017e1aa69cfe3a5108b6b5a"
#: SHA-256 of make_smooth_input(default_rng(5), 30, 8)
GOLDEN_SMOOTH = "4dc08f476b543916769f27c74ff441e16161534c89cb92194fcf2c13f135e665"
#: SHA-256 of the manifest and WAV bytes of generate_dataset(n_train=4,
#: n_test=4, seed=3)
GOLDEN_DATASET = "ccaadf288dbf272ba7a1269ff65262803b025d4096f2e1e9a1ffd8862d7001c2"


def test_random_models_digest():
    rng = np.random.default_rng(44)
    h = Hasher()
    for _ in range(2):
        for layer in make_random_model(rng).layers:
            h.add(layer.w_in, layer.w_rec, layer.bias)
    assert h.hexdigest() == GOLDEN_MODELS


def test_smooth_input_digest():
    h = Hasher()
    h.add(make_smooth_input(np.random.default_rng(5), 30, 8))
    assert h.hexdigest() == GOLDEN_SMOOTH


def test_synthetic_dataset_digest(tmp_path):
    manifest = generate_dataset(tmp_path, n_train=4, n_test=4, seed=3)
    h = Hasher()
    h.add(manifest.read_bytes())
    for path in sorted((tmp_path / "wav").iterdir()):
        h.add(path.name, path.read_bytes())
    assert h.hexdigest() == GOLDEN_DATASET
