"""sdrnn: train low-pass RNNs with 3-bit quantization-aware BPTT, compile
them into sigma-delta spiking networks, and simulate those networks under
fixed-point neuromorphic constraints."""

from .containers import FeatureSequence, SpikeRaster
from .convert import (CompileConfig, SnnNetwork, TimingConfig, alpha_to_tau,
                      compile_network, load_network, map_bias, map_weights,
                      rescale_tau, save_network, select_scale_factor)
from .errors import ConfigError, DataError, NumericError, SdrnnError
from .lprnn import (LpRnnLayer, LpRnnModel, TrainConfig, bptt_grads, cell_forward,
                    clamped_relu, forward_sequence, init_model, load_model,
                    magnitude_prune, save_model, ste_quantize, train)
from .numerics import STATE_LIMIT
from .sigma_delta import NeuronParams, NeuronState, encode_analog, neuron_step, reconstruct
from .snn_sim import (SimulationResult, compare_activations, readout, simulate,
                      simulate_batch)

__version__ = "0.1.0"
