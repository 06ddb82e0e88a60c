"""Golden digests of lpRNN training.

Each case trains a fresh model with the CLI's layer shapes (40 mel bands,
24x3 hidden, 4 classes, batches of 16 with a short last one) and hashes the
trained weights and the logits of the final keep=False pass over the
training set. The frame counts cover both BLAS kernels of the per-sample
input products: at 30 frames OpenBLAS takes its small-matrix kernel, at 60
its general one. A change that is meant to leave the training arithmetic
alone must leave both digests as they are; one that changes it on purpose
rewrites the table and says why in CHANGES.md. The products are float
sums, so another BLAS build may round them otherwise.
"""

import numpy as np
import pytest

from sdrnn.lprnn import TrainConfig, forward_batch, init_model, magnitude_prune, train

from test_engine_golden import Hasher

#: frames -> (SHA-256 of the trained weights, of the final logits)
GOLDEN = {
    60: ("cdc7a21739add128b44be18a7c8d3a4374450da8eb1c159d62c4f0a18aa46dc2",
         "2620c2b9e10e3753f97b45620dcf29d6ef33eab1eb0d97edf6a17e60956af2ec"),
    30: ("bd4ea06d08b07441a9c8309b2c6647a438d3f91bb62a7a54c1f25c9fdfdbd747",
         "5601985fd4f8f690c7374b3d67a1f9d625827c950734c0b0aee58a1cf0ab4f37"),
}


#: SHA-256 of the weights and masks after pruning the 30-frame model to half
#: and fine-tuning it, and of the final logits. The loop-oracle tests
#: compare with np.array_equal, which takes a -0.0 for a +0.0; these bytes
#: do not.
GOLDEN_PRUNED = ("fe23a3dd128914a3a660bd03faa20f530657cb25195952dc57b109ea9dcd4e52",
                 "22c550b437bc95e4797d11d2cd7f4d7d0fb1c8702562f2fe6414103d6d01beaf")


def dataset(frames: int):
    rng = np.random.default_rng([14, frames])
    labels = np.arange(40) % 4
    x = rng.normal(size=(40, frames, 40)) + 0.1 * labels[:, None, None]
    return {"train": (x, labels)}


def trained(frames: int):
    data = dataset(frames)
    model = init_model(40, (24, 24, 24), 4, (0.6,) * 4, t_ann=0.01, seed=0)
    model = train(model, data, TrainConfig(epochs=6, lr=0.01, batch_size=16, seed=0))
    logits, _ = forward_batch(model, data["train"][0])
    return model, logits


@pytest.mark.parametrize("frames", sorted(GOLDEN))
def test_training_digest(frames):
    model, logits = trained(frames)
    weights = Hasher()
    for layer in model.layers:
        weights.add(layer.w_in, layer.w_rec, layer.bias)
    scores = Hasher()
    scores.add(logits)
    assert (weights.hexdigest(), scores.hexdigest()) == GOLDEN[frames]


def test_pruned_fine_tuning_digest():
    # the CLI's --prune-sparsity 0.5 --prune-finetune-epochs 3 on the
    # 30-frame model: a masked weight keeps its sign of zero and never moves
    model, _ = trained(30)
    data = dataset(30)
    model = train(magnitude_prune(model, 0.5), data,
                  TrainConfig(epochs=3, lr=0.01, batch_size=16, seed=1))
    logits, _ = forward_batch(model, data["train"][0])
    weights = Hasher()
    for layer in model.layers:
        weights.add(layer.w_in, layer.w_rec, layer.bias, layer.mask_in, layer.mask_rec)
    scores = Hasher()
    scores.add(logits)
    assert (weights.hexdigest(), scores.hexdigest()) == GOLDEN_PRUNED
