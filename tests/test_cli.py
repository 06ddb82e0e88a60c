import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrnn.audio_frontend import (MelConfig, apply_norm, compute_norm_stats, read_manifest,
                                  save_wav, write_manifest)
from sdrnn import cli
from sdrnn.cli import _load_split, build_parser, main
from sdrnn.convert import load_network
from sdrnn.errors import ConfigError, DataError
from sdrnn.lprnn import (TrainConfig, init_model, load_model, magnitude_prune, save_model,
                         train)
from sdrnn.synthetic import CLASSES, generate_dataset

from test_loader_fuzz import JSON_VALUES, any_array


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny synthetic dataset + features + trained model shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    manifest = generate_dataset(root / "data", n_train=16, n_test=8, seed=3)
    features = root / "cache"
    assert main(["features", "--manifest", str(manifest),
                 "--features", str(features)]) == 0
    model = root / "run" / "model.npz"
    assert main(["train", "--features", str(features), "--out", str(model),
                 "--hidden", "8", "8", "--alpha", "0.6", "0.6", "0.6",
                 "--epochs", "4", "--lr", "0.02", "--seed", "1"]) == 0
    net = root / "run" / "net.npz"
    assert main(["convert", "--model", str(model), "--out", str(net),
                 "--t-snn", "0.001", "--features", str(features),
                 "--probes", "2"]) == 0
    return {"root": root, "manifest": manifest, "features": features,
            "model": model, "net": net}


def tiny_train(workspace, out, epochs: bool = True) -> list[str]:
    """A train command that runs in well under a second on the workspace,
    with --epochs 1 unless epochs is False."""
    args = ["train", "--features", str(workspace["features"]), "--out", str(out),
            "--hidden", "2", "2", "--alpha", "0.5", "0.5", "0.5"]
    return args + ["--epochs", "1"] if epochs else args


def with_metadata(src, dst, meta) -> None:
    """The .npz file src, saved at dst with meta as its metadata."""
    with np.load(src) as data:
        arrays = dict(data)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


def evaluate_net(workspace, out) -> list[str]:
    return ["evaluate", "--input", str(workspace["net"]), "--features",
            str(workspace["features"]), "--mode", "reference", "--out", str(out)]


class TestFeatures:
    def test_rerun_hits_cache(self, workspace, capsys):
        code = main(["features", "--manifest", str(workspace["manifest"]),
                     "--features", str(workspace["features"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "(24 cache hits)" in out

    def test_empty_manifest_succeeds(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        write_manifest(manifest, [])
        code = main(["features", "--manifest", str(manifest),
                     "--features", str(tmp_path / "cache")])
        assert code == 0
        index = json.loads((tmp_path / "cache" / "features_index.json").read_text())
        assert index["entries"] == []

    def test_corrupted_wav_reports_and_fails(self, tmp_path, capsys):
        wav_dir = tmp_path / "wav"
        wav_dir.mkdir()
        (wav_dir / "bad.wav").write_bytes(b"not audio")
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [{"path": "wav/bad.wav", "label": "up",
                                   "split": "train"}])
        code = main(["features", "--manifest", str(manifest),
                     "--features", str(tmp_path / "cache")])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.wav" in err

    def test_wav_ending_inside_a_sample_is_data_error(self, tmp_path, capsys):
        wav = tmp_path / "odd.wav"
        save_wav(wav, np.zeros(1000), 16000)
        wav.write_bytes(wav.read_bytes()[:-1])
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [{"path": "odd.wav", "label": "up", "split": "train"}])
        assert main(["features", "--manifest", str(manifest),
                     "--features", str(tmp_path / "cache")]) == 3
        err = capsys.readouterr().err
        assert "odd.wav" in err and "Traceback" not in err

    def test_missing_file_is_data_error(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        write_manifest(manifest, [{"path": "wav/ghost.wav", "label": "up",
                                   "split": "train"}])
        assert main(["features", "--manifest", str(manifest),
                     "--features", str(tmp_path / "cache")]) == 3

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        assert main(["features", "--manifest", str(tmp_path / "missing.csv"),
                     "--features", str(tmp_path / "cache")]) == 3
        assert "missing.csv" in capsys.readouterr().err

    def test_worker_count_leaves_the_cache_alone(self, workspace, tmp_path):
        # the pool sends clips in chunks; any worker count writes the same files
        caches = [tmp_path / f"w{workers}" for workers in (1, 2)]
        for workers, cache in zip((1, 2), caches):
            assert main(["features", "--manifest", str(workspace["manifest"]),
                         "--features", str(cache), "--workers", str(workers)]) == 0
        names = sorted(p.name for p in caches[0].iterdir() if p.suffix == ".npz")
        assert len(names) == 24
        assert names == sorted(p.name for p in caches[1].iterdir() if p.suffix == ".npz")
        for name in names + ["features_index.json"]:
            assert (caches[0] / name).read_bytes() == (caches[1] / name).read_bytes(), name

    def test_norm_stats_are_those_of_every_training_frame(self, workspace, tmp_path,
                                                          capsys):
        # each training job returns its clip's min and max, read back from
        # the archive on a cache hit; the index equals the one computed from
        # every frame, cold and warm
        cache = tmp_path / "cache"
        args = ["features", "--manifest", str(workspace["manifest"]), "--features", str(cache)]
        assert main(args) == 0
        index = (cache / "features_index.json").read_bytes()
        entries = json.loads(index)["entries"]
        frames = []
        for entry in entries:
            if entry["split"] == "train":
                with np.load(cache / f"{entry['key']}.npz") as data:
                    frames.append(data["data"])
        assert json.loads(index)["norm_stats"] == compute_norm_stats(frames)
        (cache / "features_index.json").unlink()
        assert main(args) == 0
        assert "(24 cache hits)" in capsys.readouterr().out
        assert (cache / "features_index.json").read_bytes() == index
        broken = cache / f"{next(e['key'] for e in entries if e['split'] == 'train')}.npz"
        broken.write_bytes(b"garbage")
        assert main(args) == 3
        err = capsys.readouterr().err
        assert broken.name in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [lambda a: a.astype(str), lambda a: a[:, :-1],
                                      lambda a: a[:0], lambda a: a[:, 0],
                                      lambda a: np.where(a > a.mean(), np.nan, a),
                                      lambda a: np.where(a > a.mean(), np.inf, a)],
                             ids=["strings", "narrow", "no-frames", "1-d", "nan", "inf"])
    def test_malformed_cached_training_archive_is_data_error(self, workspace, tmp_path,
                                                             capsys, edit):
        # a cache hit's data went into the norm_stats unchecked: strings and
        # a narrow clip ended features in a traceback, and NaN or inf data
        # wrote NaN into the index's norm_stats
        cache = tmp_path / "cache"
        shutil.copytree(workspace["features"], cache)
        entries = json.loads((cache / "features_index.json").read_text())["entries"]
        path = cache / f"{next(e['key'] for e in entries if e['split'] == 'train')}.npz"
        with np.load(path) as data:
            arrays = dict(data)
        np.savez(path, **{**arrays, "data": edit(arrays["data"])})
        assert main(["features", "--manifest", str(workspace["manifest"]),
                     "--features", str(cache)]) == 3
        err = capsys.readouterr().err
        assert path.name in err and "Traceback" not in err

    def test_corrupt_cached_test_archive_is_data_error(self, workspace, tmp_path, capsys):
        # only a training clip's cached archive was read back, so garbage in
        # a test clip's archive was a cache hit and features exited 0
        cache = tmp_path / "cache"
        shutil.copytree(workspace["features"], cache)
        entries = json.loads((cache / "features_index.json").read_text())["entries"]
        broken = cache / f"{next(e['key'] for e in entries if e['split'] == 'test')}.npz"
        broken.write_bytes(b"garbage")
        assert main(["features", "--manifest", str(workspace["manifest"]),
                     "--features", str(cache)]) == 3
        err = capsys.readouterr().err
        assert broken.name in err and "Traceback" not in err

    @staticmethod
    def pools_made(workspace, tmp_path, monkeypatch, workers: int, cpus: int):
        """The (size, chunk size) of each pool that features --workers
        starts on a machine of cpus CPUs, from a stand-in pool that runs the
        jobs in-process, and the worker count that its config records."""
        made = []

        class Pool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                made.append((self.max_workers, chunksize))
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        cache = tmp_path / "cache"
        shutil.copytree(workspace["features"], cache)
        assert main(["features", "--manifest", str(workspace["manifest"]),
                     "--features", str(cache), "--workers", str(workers)]) == 0
        return made, json.loads((cache / "features.config.json").read_text())["workers"]

    @pytest.mark.parametrize("workers, pool", [(1, None), (3, (3, 2)), (64, (24, 1))])
    def test_pool_has_no_more_workers_than_clips(self, workspace, tmp_path, monkeypatch,
                                                 workers, pool):
        # the pool starts every worker at once: --workers 64 forked 64
        # processes for 24 clips
        made, used = self.pools_made(workspace, tmp_path, monkeypatch, workers, cpus=64)
        assert made == ([] if pool is None else [pool])
        assert used == (1 if pool is None else pool[0])

    @pytest.mark.parametrize("cpus", [2, None])
    def test_pool_has_no_more_workers_than_cpus(self, workspace, tmp_path, monkeypatch, cpus):
        # --workers 500 forked a process per clip whatever the machine; a
        # machine whose CPU count is unknown runs the clips in-process
        made, used = self.pools_made(workspace, tmp_path, monkeypatch, 500, cpus)
        assert made == ([(2, 3)] if cpus else [])
        assert used == (cpus or 1)

    def test_cache_directory_is_the_one_given(self, workspace, tmp_path, monkeypatch):
        # SDRNN_CACHE_DIR used to send the archives and the index elsewhere,
        # so that train --features on the directory given found no index
        monkeypatch.setenv("SDRNN_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert main(["features", "--manifest", str(workspace["manifest"]),
                     "--features", str(tmp_path / "cache")]) == 0
        assert (tmp_path / "cache" / "features_index.json").exists()
        assert not (tmp_path / "elsewhere").exists()


class TestTrainCommand:
    def test_artifacts_written(self, workspace):
        assert workspace["model"].exists()
        config = json.loads(Path(str(workspace["model"]) + ".config.json").read_text())
        assert config["command"] == "train" and config["epochs"] == 4

    def test_config_file_overrides_defaults(self, workspace, tmp_path):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "hidden": [6, 6],
                                        "alpha": [0.5, 0.5, 0.5]}))
        out = tmp_path / "m.npz"
        assert main(["train", "--features", str(workspace["features"]),
                     "--out", str(out), "--config", str(cfg_path)]) == 0
        resolved = json.loads(Path(str(out) + ".config.json").read_text())
        assert resolved["epochs"] == 1 and resolved["hidden"] == [6, 6]

    def test_written_config_replays_to_itself(self, workspace, tmp_path):
        # the config train writes holds no ceiling, and passed back with
        # --config it resolves to the same config
        first, again = tmp_path / "a.npz", tmp_path / "b.npz"
        assert main(tiny_train(workspace, first)) == 0
        written = json.loads(Path(str(first) + ".config.json").read_text())
        assert "clamp" not in written
        assert main(["train", "--features", str(workspace["features"]), "--out", str(again),
                     "--config", str(first) + ".config.json"]) == 0
        replayed = json.loads(Path(str(again) + ".config.json").read_text())
        assert replayed == {**written, "out": str(again)}

    def test_explicit_flag_at_default_beats_config_file(self, workspace, tmp_path):
        # --lr 0.01 is the parser default, but given on the command line it wins
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"lr": 0.5, "epochs": 1, "hidden": [4, 4],
                                        "alpha": [0.5, 0.5, 0.5]}))
        out = tmp_path / "m.npz"
        assert main(["train", "--features", str(workspace["features"]), "--out", str(out),
                     "--lr", "0.01", "--config", str(cfg_path)]) == 0
        resolved = json.loads(Path(str(out) + ".config.json").read_text())
        assert resolved["lr"] == 0.01 and resolved["epochs"] == 1

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_unreadable_config_file_is_config_error(self, workspace, tmp_path, capsys,
                                                    content):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        assert main(["train", "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "m.npz"), "--config", str(cfg_path)]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_val_split_is_loaded_and_checked(self, workspace, tmp_path):
        # the shared workspace has no val split and trains (see the fixture);
        # relabel its test clips as val: a clean split trains, a NaN in one
        # of its feature files is a data error
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index_path = features / "features_index.json"
        index = json.loads(index_path.read_text())
        assert not any(e["split"] == "val" for e in index["entries"])
        for entry in index["entries"]:
            if entry["split"] == "test":
                entry["split"] = "val"
        index_path.write_text(json.dumps(index))
        args = ["train", "--features", str(features), "--out", str(tmp_path / "m.npz"),
                "--hidden", "4", "4", "--alpha", "0.5", "0.5", "0.5", "--epochs", "1"]
        assert main(args) == 0
        key = next(e["key"] for e in index["entries"] if e["split"] == "val")
        with np.load(features / f"{key}.npz") as data:
            arrays = dict(data)
        arrays["data"][2, 1] = np.nan
        np.savez(features / f"{key}.npz", **arrays)
        assert main(args) == 3

    @pytest.mark.parametrize("command, key, value", [
        ("train", "nonsense", 1), ("train", "nonsense", None), ("train", "config", "x.json"),
        ("train", "clamp", 1.0), ("train", "tau_u", 2.0),
        ("convert", "tau_u", 2.0), ("convert", "tau_mem", 1.0), ("convert", "weight_gain", 1),
        ("convert", "weight_limit", 255), ("convert", "tau_u_override", None),
        ("convert", "tau_i_override", 50.0), ("convert", "decay_rounding", "round"),
        ("train", "f_search_evals", 3)])
    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys, command, key,
                                         value):
        # a config file holds only what the command writes: not its own
        # name, not train's --clamp or convert's compiler constants, which
        # were options, even at the value they always took (null for a tau
        # override), and f_search_evals only in a convert config
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "out.npz"
        args = (tiny_train(workspace, out) if command == "train"
                else ["convert", "--model", str(workspace["model"]), "--out", str(out),
                      "--f", "5e4"])
        assert main(args + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: unknown config key {key!r}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, recorded", [("train", "convert"), ("convert", "train"),
                                                   ("train", None), ("train", ["train"])])
    def test_config_of_another_command_rejected(self, workspace, tmp_path, capsys, command,
                                                recorded):
        # a config's command, when it names one, is the command being run
        cfg_path = tmp_path / "other.json"
        cfg_path.write_text(json.dumps({"command": recorded}))
        out = tmp_path / "out.npz"
        args = (tiny_train(workspace, out) if command == "train"
                else ["convert", "--model", str(workspace["model"]), "--out", str(out),
                      "--f", "5e4"])
        assert main(args + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: command is {recorded!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_pruned_fine_tuning_is_train_prune_train(self, workspace, tmp_path):
        # --prune-finetune-epochs trains the pruned model again at seed + 1
        out = tmp_path / "m.npz"
        assert main(tiny_train(workspace, out) + ["--prune-sparsity", "0.5",
                                                  "--prune-finetune-epochs", "1"]) == 0
        x, labels, names, t_ann, stats = _load_split(workspace["features"], "train")
        model = init_model(x.shape[2], (2, 2), len(names), (0.5, 0.5, 0.5), t_ann=t_ann)
        model.norm_stats, model.label_names = stats, names
        dataset = {"train": (x, labels)}
        model = train(model, dataset, TrainConfig(epochs=1, lr=1e-2, seed=0))
        model = train(magnitude_prune(model, 0.5), dataset, TrainConfig(epochs=1, lr=1e-2, seed=1))
        save_model(model, tmp_path / "want.npz")
        assert out.read_bytes() == (tmp_path / "want.npz").read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--epochs", "-1"), ("--lr", "-1"),
        ("--prune-finetune-epochs", "-1"), ("--prune-sparsity", "-0.5"),
        ("--prune-sparsity", "nan"), ("--prune-sparsity", "1")])
    def test_size_or_step_out_of_range_is_config_error(self, workspace, tmp_path, capsys,
                                                       flag, value):
        # a batch size of 0 ended in a ValueError traceback; a negative
        # epoch count wrote an untrained model and a negative lr a
        # gradient-ascended one; a negative or NaN sparsity wrote an
        # unpruned model, and 1 failed only after training
        out = tmp_path / "m.npz"
        assert main(tiny_train(workspace, out) + [flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("epochs", 1.5), ("lr", "x"), ("batch_size", True)])
    def test_size_or_step_from_config_file_is_checked(self, workspace, tmp_path, capsys, key,
                                                      value):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({key: value}))
        args = tiny_train(workspace, tmp_path / "m.npz", epochs=key != "epochs")
        assert main(args + ["--config", str(cfg_path)]) == 2
        assert key.replace("_", "-") in capsys.readouterr().err

    @pytest.mark.parametrize("widths", [["2", "0"], ["-2", "2"]])
    def test_layer_width_below_one_is_config_error(self, workspace, tmp_path, capsys, widths):
        # --hidden 2 0 ended in a ZeroDivisionError traceback, -2 2 in a ValueError one
        args = tiny_train(workspace, tmp_path / "m.npz") + ["--hidden", *widths]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "width" in err and "Traceback" not in err
        assert not (tmp_path / "m.npz").exists()

    def test_diverging_step_size_is_numeric_error(self, workspace, tmp_path, capsys):
        # a finite lr so large that the weights overflow float64
        assert main(tiny_train(workspace, tmp_path / "m.npz") + ["--lr", "1e308"]) == 4
        assert "diverged" in capsys.readouterr().err

    def test_sizes_that_do_not_fit_in_memory_are_config_error(self, workspace, tmp_path,
                                                               capsys, monkeypatch):
        # --hidden 100000 2 ended in a MemoryError traceback, exit 1; the
        # allocation fails here by hand, since a real one would take the memory
        def init_model(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.16 GiB for an array")
        monkeypatch.setattr("sdrnn.cli.init_model", init_model)
        assert main(tiny_train(workspace, tmp_path / "m.npz")) == 2
        err = capsys.readouterr().err
        assert "do not fit in memory" in err and "1.16 GiB" in err and "Traceback" not in err
        assert not (tmp_path / "m.npz").exists()


class TestConvertCommand:
    def test_report_written(self, workspace):
        report = Path(str(workspace["net"]) + ".report.txt").read_text()
        assert "scale factor" in report and "histogram" in report

    def test_report_lists_the_f_search(self, workspace):
        # the predicted peak, then each evaluation from the first f down to
        # the one chosen
        report = Path(str(workspace["net"]) + ".report.txt").read_text()
        net = load_network(workspace["net"])
        trace = net.notes["f_search_trace"]
        assert (f"predicted peak state / f P = {net.notes['f_search_predicted_peak']:.6g}, "
                f"{len(trace)} evaluation(s)") in report
        assert f"evaluation {len(trace)}: f {net.f:.6g}  peak/bound" in report

    @pytest.mark.parametrize("option, value", [
        ("safety_margin", "inf"), ("safety_margin", "nan"), ("safety_margin", "0"),
        ("safety_margin", "-1"), ("safety_margin", "x"), ("safety_margin", "1.5")])
    def test_invalid_compile_option_is_config_error(self, workspace, tmp_path, capsys,
                                                    option, value):
        # --safety-margin inf wrote a network that evaluate then rejected,
        # and nan, 0 and -1 were reported as an invalid scale factor; the
        # config file reaches options that argparse never sees
        out = tmp_path / "net.npz"
        args = ["convert", "--model", str(workspace["model"]), "--out", str(out), "--f", "5e4"]
        if value == "x":
            cfg_path = tmp_path / "convert.json"
            cfg_path.write_text(json.dumps({option: value}))
            args += ["--config", str(cfg_path)]
        else:
            args += [f"--{option.replace('_', '-')}", value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err
        assert not out.exists()

    def test_layer_stack_unlike_init_model_is_data_error(self, workspace, tmp_path, capsys):
        # a model whose layer 1 is a second input_lowpass layer loaded, and
        # convert compiled it into a second encoder without w_in, which
        # ended in an AttributeError in the engine
        with np.load(workspace["model"]) as data:
            arrays = {name: a for name, a in data.items() if name != "l1_w_rec"}
        meta = json.loads(bytes(arrays["meta"]).decode())
        assert [layer["kind"] for layer in meta["layers"]] == [
            "input_lowpass", "recurrent", "output"]
        meta["layers"][1]["kind"] = "input_lowpass"
        model = tmp_path / "model.npz"
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(model, **arrays)
        out = tmp_path / "net.npz"
        for args in (["convert", "--model", str(model), "--out", str(out), "--f", "5e4"],
                     ["convert", "--model", str(model), "--out", str(out), "--features",
                      str(workspace["features"]), "--probes", "2"],
                     ["evaluate", "--input", str(model), "--features", str(workspace["features"]),
                      "--mode", "ann", "--out", str(tmp_path / "x.json")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert "layer stack" in err and "Traceback" not in err
        assert not out.exists()

    def test_explicit_f_skips_probes(self, workspace, tmp_path):
        out = tmp_path / "net.npz"
        assert main(["convert", "--model", str(workspace["model"]),
                     "--out", str(out), "--t-snn", "0.001", "--f", "5e4"]) == 0

    def test_config_replay_compiles_same_network(self, workspace, tmp_path):
        # the recorded config holds the f the search selected, so a replay
        # compiles the same network without searching
        config = json.loads(Path(str(workspace["net"]) + ".config.json").read_text())
        searched = load_network(workspace["net"])
        assert config["f"] == searched.f
        assert config["f_search_evals"] == len(searched.notes["f_search_trace"]) >= 1
        out = tmp_path / "replay.npz"
        assert main(["convert", "--model", str(workspace["model"]), "--out", str(out),
                     "--config", str(workspace["net"]) + ".config.json"]) == 0
        replayed = load_network(out)
        assert replayed.f == searched.f
        assert replayed.notes["f_search_trace"] is None
        for a, b in zip(replayed.layers, searched.layers):
            for name in ("w_in", "w_rec", "bias", "enc_w"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert (a.w_fb, a.weight_exp) == (b.w_fb, b.weight_exp)
        assert json.loads(Path(str(out) + ".config.json").read_text())["f_search_evals"] == 0

    @pytest.mark.parametrize("key, value", [("tau_u", 3.0), ("tau_mem", 2.0),
                                            ("weight_gain", 64), ("weight_limit", 127),
                                            ("decay_rounding", "trunc"),
                                            ("decay_rounding", None), ("weight_gain", True)])
    def test_retired_option_with_another_value_is_config_error(self, workspace, tmp_path,
                                                               capsys, key, value):
        # the recorded config of the workspace network with one of the
        # compiler constants that were options, at a value it never took
        config = json.loads(Path(str(workspace["net"]) + ".config.json").read_text())
        cfg_path = tmp_path / "old.config.json"
        cfg_path.write_text(json.dumps({**config, key: value}))
        out = tmp_path / "net.npz"
        assert main(["convert", "--model", str(workspace["model"]), "--out", str(out),
                     "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_decay_rounding_is_no_longer_an_option(self, workspace, tmp_path, capsys):
        # the fixed-point decay always rounds: the flag is a configuration
        # error that names it, and no network is written
        out = tmp_path / "net.npz"
        assert main(["convert", "--model", str(workspace["model"]), "--out", str(out),
                     "--f", "5e4", "--decay-rounding", "round"]) == 2
        assert "unrecognized arguments: --decay-rounding" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("convert", "--probes", "0"), ("convert", "--probes", "-1"),
        ("compare", "--sample-index", "-1")])
    def test_count_out_of_range_is_config_error(self, tmp_path, capsys, command, flag, value):
        # --probes 0 and -1 exited 2 without naming the flag, after the
        # model and every archive of the split were read; none of the files
        # named here exists, so opening any of them would exit 3
        ghost, feats, out = (str(tmp_path / name) for name in ("ghost.npz", "none", "out"))
        args = {"convert": ["convert", "--model", ghost, "--features", feats, "--out", out],
                "compare": ["compare", "--net", ghost, "--features", feats, "--out-dir", out]}
        assert main(args[command] + [flag, value]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err

    def test_missing_probe_source_is_config_error(self, workspace, tmp_path):
        assert main(["convert", "--model", str(workspace["model"]),
                     "--out", str(tmp_path / "net.npz"),
                     "--t-snn", "0.001"]) == 2


class TestEvaluateCommand:
    def test_ann_metrics(self, workspace, tmp_path):
        out = tmp_path / "ann.json"
        assert main(["evaluate", "--input", str(workspace["model"]),
                     "--features", str(workspace["features"]),
                     "--split", "test", "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())
        assert metrics["mode"] == "ann"
        assert set(metrics["per_class_accuracy"]) == set(CLASSES)
        assert Path(str(out) + ".samples.csv").read_text().startswith(
            "index,label,prediction")

    def test_spiking_metrics_include_agreement_and_tracking(self, workspace, tmp_path):
        out = tmp_path / "snn.json"
        assert main(["evaluate", "--input", str(workspace["net"]),
                     "--features", str(workspace["features"]),
                     "--split", "test", "--mode", "fixed",
                     "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())
        assert 0.0 <= metrics["ann_agreement"] <= 1.0
        assert len(metrics["tracking_relative_mse_mean"]) == 3
        assert metrics["saturation_events"] == 0
        assert metrics["mean_spikes_per_sample"] > 0

    def test_deterministic_metrics(self, workspace, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["evaluate", "--input", str(workspace["net"]),
                         "--features", str(workspace["features"]),
                         "--split", "test", "--mode", "reference",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_nan_feature_is_data_error(self, workspace, tmp_path):
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index = json.loads((features / "features_index.json").read_text())
        key = next(e["key"] for e in index["entries"] if e["split"] == "test")
        with np.load(features / f"{key}.npz") as data:
            arrays = dict(data)
        arrays["data"][3, 0] = np.nan
        arrays["data"][4, 1] = np.inf
        np.savez(features / f"{key}.npz", **arrays)
        for artifact, mode in (("net", "reference"), ("net", "fixed"), ("model", "ann")):
            assert main(["evaluate", "--input", str(workspace[artifact]),
                         "--features", str(features), "--split", "test",
                         "--mode", mode, "--out", str(tmp_path / f"{mode}.json")]) == 3

    def test_huge_finite_features_evaluate_in_fixed_mode(self, workspace, tmp_path, capsys):
        # normalization clips features of 1e300 to the top of their range
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index = json.loads((features / "features_index.json").read_text())
        key = next(e["key"] for e in index["entries"] if e["split"] == "test")
        with np.load(features / f"{key}.npz") as data:
            arrays = dict(data)
        arrays["data"][2:6] = 1e300
        np.savez(features / f"{key}.npz", **arrays)
        assert main(["evaluate", "--input", str(workspace["net"]), "--features", str(features),
                     "--split", "test", "--mode", "fixed",
                     "--out", str(tmp_path / "x.json")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["reference", "fixed"])
    def test_huge_encoder_drive(self, workspace, tmp_path, capsys, mode):
        # encoder weights that the compiler did not emit do not load; the
        # engine's own handling of a huge drive is tested in test_snn_sim
        with np.load(workspace["net"]) as data:
            arrays = dict(data)
        arrays["l0_enc_w"] = np.full_like(arrays["l0_enc_w"], 1e290)
        net = tmp_path / "net.npz"
        np.savez(net, **arrays)
        assert main(["evaluate", "--input", str(net), "--features", str(workspace["features"]),
                     "--mode", mode, "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "layer 0: enc_w" in err.split(str(net), 1)[1]

    @pytest.mark.parametrize("damage", ["garbage", "truncated_net", "truncated_model"])
    def test_corrupt_input_is_data_error(self, workspace, tmp_path, capsys, damage):
        bad = tmp_path / "bad.npz"
        if damage == "garbage":
            bad.write_bytes(b"\x93NUMPY not really an array" * 10)
        else:
            payload = workspace[damage.split("_")[1]].read_bytes()
            bad.write_bytes(payload[:len(payload) // 2])
        assert main(["evaluate", "--input", str(bad), "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert f"data error: {bad}" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [1.0, 2.0, True])
    def test_model_file_with_the_retired_ceiling(self, workspace, tmp_path, capsys, value):
        # model files written while the ceiling was an option hold it; at
        # any value, 1.0 too, convert and evaluate exit 3 naming the key
        with np.load(workspace["model"]) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        model = tmp_path / "old.npz"
        with_metadata(workspace["model"], model, {**meta, "clamp_ceiling": value})
        assert main(["convert", "--model", str(model), "--out", str(tmp_path / "net.npz"),
                     "--f", "5e4"]) == 3
        assert main(["evaluate", "--input", str(model), "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err.count("'clamp_ceiling' is no key of a model file") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "net.npz").exists() and not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("section, key", [("config", "safety_margin"), ("file", "notes")])
    def test_network_without_a_key_of_its_writer_is_data_error(self, workspace, tmp_path,
                                                                capsys, section, key):
        # a config of {} loaded as margin 0.5, and a file without notes as
        # one with none; evaluate exits 3 naming the key
        with np.load(workspace["net"]) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        del (meta["config"] if section == "config" else meta)[key]
        net = tmp_path / "net.npz"
        with_metadata(workspace["net"], net, meta)
        assert main(["evaluate", "--input", str(net), "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert f"lacks its '{key}' key" in err and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @staticmethod
    def evaluate_with_meta(workspace, tmp_path, section, key, value) -> int:
        """Exit code of evaluate on the workspace network with meta[section]
        (the config, or layer 1) given key: value."""
        with np.load(workspace["net"]) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        (meta["config"] if section == "config" else meta["layers"][1])[key] = value
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        net = tmp_path / "net.npz"
        np.savez(net, **arrays)
        return main(["evaluate", "--input", str(net), "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "x.json")])

    def test_network_with_retired_key_of_another_value_is_data_error(self, workspace,
                                                                     tmp_path, capsys):
        with np.load(workspace["net"]) as data:
            w_fb = json.loads(bytes(data["meta"]).decode())["layers"][1]["w_fb"]
        assert self.evaluate_with_meta(workspace, tmp_path, "layer", "threshold",
                                       w_fb + 1) == 3
        err = capsys.readouterr().err
        assert "'threshold' is no key of a network layer" in err and "Traceback" not in err

    @pytest.mark.parametrize("section, key", [("config", "weight_gain"), ("layer", "tau_mem")])
    def test_network_with_a_retired_key_of_true_is_data_error(self, workspace, tmp_path, capsys,
                                                              section, key):
        # true == 1 in Python, and a JSON true once loaded as the fixed value 1
        assert self.evaluate_with_meta(workspace, tmp_path, section, key, True) == 3
        err = capsys.readouterr().err
        assert f"'{key}' is no " in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["reference", "fixed"])
    def test_network_whose_size_disagrees_with_its_arrays_is_data_error(
            self, workspace, tmp_path, capsys, mode):
        with np.load(workspace["net"]) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["layers"][1]["size"] += 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        net = tmp_path / "net.npz"
        np.savez(net, **arrays)
        assert main(["evaluate", "--input", str(net), "--features", str(workspace["features"]),
                     "--mode", mode, "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert "layer 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        pytest.param("f", -50000.0, id="negative-f"),
        pytest.param("f", 0.0, id="zero-f"),
        pytest.param("f", float("inf"), id="infinite-f"),
        pytest.param("f", "abc", id="string-f"),
        pytest.param("rec_delay", "tau_s_fx", id="rec_delay-beyond-the-compiler"),
        pytest.param("weight_exp", "bit_length", id="weight_exp-beyond-tau_s"),
        pytest.param("t_ann", "abc", id="string-t_ann"),
        pytest.param("t_ann", 0.02, id="t_ann-unlike-the-source-model"),
        pytest.param("t_snn", None, id="null-t_snn"),
        pytest.param("t_snn", 0.0005, id="t_snn-the-taus-were-not-compiled-for"),
        pytest.param("layers", "x", id="layer-not-an-object"),
        pytest.param("w_fb", "doubled", id="w_fb-doubled")])
    @pytest.mark.parametrize("mode", ["reference", "fixed"])
    def test_network_value_the_compiler_never_emits_is_data_error(
            self, workspace, tmp_path, capsys, field, value, mode):
        # each file would load and run silently wrong, allocate a ring of
        # rec_delay steps, or end in a traceback inside the loader or the
        # engine
        with np.load(workspace["net"]) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        layer = meta["layers"][1]
        if field in ("f", "t_ann", "t_snn"):
            meta[field] = value
        elif field == "layers":
            meta["layers"][1] = value
        elif field == "w_fb":
            layer["w_fb"] *= 2
        elif field == "rec_delay":
            layer["rec_delay"] = max(1, layer["tau_s_fx"] - 1) + 1
        else:
            layer["weight_exp"] = layer["tau_s_fx"].bit_length()  # 2**e > tau_s_fx
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        net = tmp_path / "net.npz"
        np.savez(net, **arrays)
        assert main(["evaluate", "--input", str(net), "--features", str(workspace["features"]),
                     "--mode", mode, "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        named = {"f": "scale factor", "layers": "layer 1"}.get(field, field)
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("t_ann", "abc"), ("readout_fraction", None), ("bits", 2.5), ("quantize", "yes")])
    def test_model_metadata_of_another_type_is_data_error(self, workspace, tmp_path, capsys,
                                                          key, value):
        # each ended in a TypeError traceback, or (quantize) loaded and ran
        with np.load(workspace["model"]) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta[key] = value
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        model = tmp_path / "model.npz"
        np.savez(model, **arrays)
        assert main(["evaluate", "--input", str(model), "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("value, config", [("0", False), ("-5", False), (0, True)])
    def test_batch_below_one_is_config_error(self, workspace, tmp_path, capsys, value,
                                             config):
        args = evaluate_net(workspace, tmp_path / "x.json")
        if config:
            cfg_path = tmp_path / "eval.json"
            cfg_path.write_text(json.dumps({"batch": value}))
            args += ["--config", str(cfg_path)]
        else:
            args += ["--batch", value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "--batch" in err and "Traceback" not in err

    def test_corrupt_feature_index_is_data_error(self, workspace, tmp_path):
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index = features / "features_index.json"
        index.write_text(index.read_text()[:100])
        assert main(["evaluate", "--input", str(workspace["model"]),
                     "--features", str(features), "--out", str(tmp_path / "x.json")]) == 3

    @pytest.mark.parametrize("meta", [[1, "a"], 7, "sdrnn-net-v1", None],
                             ids=["list", "number", "string", "null"])
    def test_metadata_that_is_not_an_object_is_data_error(self, workspace, tmp_path, capsys,
                                                          meta):
        # evaluate ended in an AttributeError traceback on each of these
        for name in ("model", "net"):
            with_metadata(workspace[name], tmp_path / f"{name}.npz", meta)
        model, net = str(tmp_path / "model.npz"), str(tmp_path / "net.npz")
        features, out = str(workspace["features"]), str(tmp_path / "x.json")
        for args in (["evaluate", "--input", model, "--features", features, "--out", out],
                     ["evaluate", "--input", net, "--features", features, "--out", out],
                     ["convert", "--model", model, "--f", "5e4", "--out", out + ".npz"],
                     ["compare", "--net", net, "--features", features,
                      "--out-dir", str(tmp_path / "cmp")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert "metadata" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda index: {}, lambda index: [], lambda index: {**index, "entries": {}},
        lambda index: {**index, "entries": index["entries"] + [1]},
        lambda index: {**index, "entries": [{**e, "label": 3} for e in index["entries"]]},
        lambda index: {**index, "entries": [{k: e[k] for k in ("split", "label")}
                                            for e in index["entries"]]},
        lambda index: {**index, "norm_stats": [0.0]}],
        ids=["empty-object", "list", "entries-object", "entry-number", "label-number",
             "no-key", "norm-stats-list"])
    def test_malformed_feature_index_is_data_error(self, workspace, tmp_path, capsys, edit):
        # {} ended train in a KeyError traceback, and [] in a TypeError
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index = features / "features_index.json"
        index.write_text(json.dumps(edit(json.loads(index.read_text()))))
        for args in (tiny_train({**workspace, "features": features}, tmp_path / "m.npz"),
                     ["evaluate", "--input", str(workspace["model"]), "--features",
                      str(features), "--out", str(tmp_path / "x.json")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert "not a feature index" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda stats: {}, lambda stats: {"min": "a", "max": "b"},
        lambda stats: {k: v[:-1] for k, v in stats.items()},
        lambda stats: {**stats, "max": stats["max"][:-1]},
        lambda stats: {**stats, "min": [None] * len(stats["min"])}],
        ids=["empty", "strings", "too-narrow", "unequal-lengths", "nulls"])
    def test_malformed_norm_stats_is_data_error(self, workspace, tmp_path, capsys, edit):
        # {} ended train in a KeyError traceback, strings in a UFuncTypeError
        # and lists of the wrong width in a broadcasting ValueError
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index_path = features / "features_index.json"
        index = json.loads(index_path.read_text())
        index_path.write_text(json.dumps({**index, "norm_stats": edit(index["norm_stats"])}))
        for args in (tiny_train({**workspace, "features": features}, tmp_path / "m.npz"),
                     ["evaluate", "--input", str(workspace["model"]), "--features",
                      str(features), "--out", str(tmp_path / "x.json")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert "norm_stats" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda index: None, "no features_index.json"),
        (lambda index: {**index, "norm_stats": None}, "no normalization statistics")],
        ids=["no-index", "null-norm-stats"])
    def test_missing_index_or_norm_stats_is_data_error(self, workspace, tmp_path, capsys, edit,
                                                       message):
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index_path = features / "features_index.json"
        if (index := edit(json.loads(index_path.read_text()))) is None:
            index_path.unlink()
        else:
            index_path.write_text(json.dumps(index))
        for args in (tiny_train({**workspace, "features": features}, tmp_path / "m.npz"),
                     ["evaluate", "--input", str(workspace["model"]), "--features",
                      str(features), "--out", str(tmp_path / "x.json")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("name, edit", [
        ("frame_period", lambda a: np.array([0.01, 0.01])),
        ("frame_period", lambda a: np.array("0.01")),
        ("frame_period", lambda a: np.array(0.0)),
        ("frame_period", lambda a: a * 2),
        ("data", lambda a: a.astype(str)),
        ("data", lambda a: a[:, 0]),
        ("data", lambda a: a[:, :-1]),
        ("data", lambda a: np.where(a > a.mean(), np.inf, a))],
        ids=["period-pair", "period-string", "period-zero", "period-differs", "data-strings",
             "data-1d", "data-narrow", "data-inf"])
    def test_malformed_feature_archive_is_data_error(self, workspace, tmp_path, capsys, name,
                                                     edit):
        # a two-value frame_period and a string data array ended train in a
        # TypeError traceback; one archive per split is edited, the second
        # of its split, so that a frame_period unlike the first one's shows
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        entries = json.loads((features / "features_index.json").read_text())["entries"]
        for split in ("train", "test"):
            key = [e["key"] for e in entries if e["split"] == split][1]
            with np.load(features / f"{key}.npz") as data:
                arrays = dict(data)
            arrays[name] = edit(arrays[name])
            np.savez(features / f"{key}.npz", **arrays)
        for args in (tiny_train({**workspace, "features": features}, tmp_path / "m.npz"),
                     ["evaluate", "--input", str(workspace["model"]), "--features",
                      str(features), "--out", str(tmp_path / "x.json")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert {"data": "feature data"}.get(name, name) in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, name", [
        (lambda a: {"l1_mask_in": a["l1_mask_in"][:, :-1]}, "mask_in"),
        (lambda a: {"l1_mask_in": a["l1_mask_in"] * 0.5}, "mask_in"),
        (lambda a: {"l1_w_in": np.where(a["l1_mask_in"] == 0, 0.25, a["l1_w_in"])}, "mask_in"),
        (lambda a: {"l1_w_in": np.where(a["l1_mask_in"] == 1, np.nan, a["l1_w_in"])}, "w_in"),
        (lambda a: {"l0_w_in": a["l0_w_in"].astype(str)}, "w_in"),
        (lambda a: {"l1_bias": a["l1_bias"].astype(complex)}, "bias")],
        ids=["mask-shape", "mask-not-0-1", "weight-under-zero", "nan-weight", "string-weight",
             "complex-bias"])
    def test_model_that_breaks_a_layer_check_is_data_error(self, workspace, tmp_path, capsys,
                                                           edit, name):
        # a mask of another shape ended evaluate in a ValueError traceback,
        # the other two masks and a NaN weight evaluated with exit 0, and a
        # string weight or a complex bias ended in a UFuncTypeError
        pruned, model = tmp_path / "pruned.npz", tmp_path / "model.npz"
        assert main(tiny_train(workspace, pruned) + ["--prune-sparsity", "0.5"]) == 0
        with np.load(pruned) as data:
            arrays = dict(data)
        arrays.update(edit(arrays))
        np.savez(model, **arrays)
        for args in (["evaluate", "--input", str(model), "--features",
                      str(workspace["features"]), "--out", str(tmp_path / "x.json")],
                     ["convert", "--model", str(model), "--f", "5e4",
                      "--out", str(tmp_path / "net.npz")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert name in err and "Traceback" not in err

    def test_one_class_index_or_model_is_data_error(self, workspace, tmp_path, capsys):
        # on a manifest of `up` clips only, features and train exited 0, and
        # evaluate --mode ann of a one-class model ended in an IndexError at
        # the margin of the two highest scores
        rows = [{**row, "path": str(workspace["manifest"].parent / row["path"])}
                for row in read_manifest(workspace["manifest"]) if row["label"] == "up"]
        manifest, features = tmp_path / "up.csv", tmp_path / "features"
        write_manifest(manifest, rows)
        assert main(["features", "--manifest", str(manifest), "--features", str(features)]) == 0
        assert main(tiny_train({"features": features}, tmp_path / "m.npz")) == 3
        assert "at least two" in capsys.readouterr().err
        x, _, names, t_ann, stats = _load_split(features, "train")
        model = init_model(x.shape[2], (2, 2), 1, (0.5, 0.5, 0.5), t_ann=t_ann)
        model.norm_stats, model.label_names = stats, names
        save_model(model, tmp_path / "one.npz")
        for args in (["evaluate", "--input", str(tmp_path / "one.npz"), "--features",
                      str(features), "--mode", "ann", "--out", str(tmp_path / "x.json")],
                     ["convert", "--model", str(tmp_path / "one.npz"), "--f", "5e4",
                      "--out", str(tmp_path / "net.npz")]):
            assert main(args) == 3, args
            err = capsys.readouterr().err
            assert "at least two" in err and "Traceback" not in err

    def test_missing_split_is_data_error(self, workspace, tmp_path):
        assert main(["evaluate", "--input", str(workspace["model"]),
                     "--features", str(workspace["features"]),
                     "--split", "dev", "--out", str(tmp_path / "x.json")]) == 3

    def test_mode_mismatch_is_config_error(self, workspace, tmp_path):
        assert main(["evaluate", "--input", str(workspace["model"]),
                     "--features", str(workspace["features"]),
                     "--mode", "fixed", "--out", str(tmp_path / "x.json")]) == 2
        assert main(["evaluate", "--input", str(workspace["net"]),
                     "--features", str(workspace["features"]),
                     "--mode", "ann", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("what, edit", [
    ("number of classes",
     lambda index: {**index, "entries": [e for e in index["entries"] if e["label"] != "down"]}),
    ("class names", lambda index: {**index, "entries": [
        {**e, "label": "zz" if e["label"] == "down" else e["label"]} for e in index["entries"]]}),
    ("norm_stats", lambda index: {**index, "norm_stats": {
        **index["norm_stats"], "min": [v - 1 for v in index["norm_stats"]["min"]]}}),
    ("frame period", None)],
    ids=["class-missing", "class-renamed", "norm-stats", "frame-period"])
def test_inputs_unlike_the_models_are_data_error(workspace, tmp_path, capsys, what, edit):
    # an index without the class "down" ended evaluate in an IndexError
    # traceback, and one with a class renamed relabelled the samples silently
    features = tmp_path / "features"
    shutil.copytree(workspace["features"], features)
    index_path = features / "features_index.json"
    index = json.loads(index_path.read_text())
    if edit is not None:
        index_path.write_text(json.dumps(edit(index)))
    else:
        for entry in index["entries"]:
            with np.load(features / f"{entry['key']}.npz") as data:
                arrays = dict(data)
            np.savez(features / f"{entry['key']}.npz",
                     **{**arrays, "frame_period": arrays["frame_period"] * 2})
    model, net, feats = str(workspace["model"]), str(workspace["net"]), str(features)
    for args in (["evaluate", "--input", model, "--features", feats, "--out",
                  str(tmp_path / "x.json")],
                 ["evaluate", "--input", net, "--features", feats, "--out",
                  str(tmp_path / "x.json")],
                 ["compare", "--net", net, "--features", feats, "--out-dir",
                  str(tmp_path / "cmp")],
                 ["convert", "--model", model, "--features", feats, "--probes", "1",
                  "--out", str(tmp_path / "net.npz")]):
        assert main(args) == 3, args
        err = capsys.readouterr().err
        assert f"{what}: the feature index has" in err and "Traceback" not in err


@pytest.mark.parametrize("command, key, value", [
    ("convert", "probes", "x"), ("convert", "probes", 0), ("convert", "f", "x"),
    ("compare", "sample_index", "a"), ("compare", "sample_index", -1),
    ("train", "hidden", "8"), ("train", "alpha", 0.6), ("train", "prune_sparsity", "x"),
    ("train", "seed", "x"), ("train", "seed", -1), ("features", "workers", "x"),
    ("features", "workers", 0), ("features", "n_mels", "x")])
def test_config_file_value_that_the_option_rejects_is_config_error(workspace, tmp_path, capsys,
                                                                   command, key, value):
    # each ended in a TypeError traceback (seed -1 in a ValueError one):
    # config-file values went past the options' argparse types
    feats = str(workspace["features"])
    args = {
        "convert": ["convert", "--model", str(workspace["model"]), "--features", feats,
                    "--out", str(tmp_path / "net.npz")],
        "compare": ["compare", "--net", str(workspace["net"]), "--features", feats,
                    "--out-dir", str(tmp_path / "cmp")],
        "train": tiny_train(workspace, tmp_path / "m.npz"),
        "features": ["features", "--manifest", str(workspace["manifest"]),
                     "--features", str(tmp_path / "features")],
    }[command]
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert main(args + ["--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["features", "evaluate", "compare"])
def test_written_config_replays_to_itself(workspace, tmp_path, command):
    # the config a command writes, passed back with --config and the
    # required flags given again, resolves to the same config
    feats = str(workspace["features"])
    args, written = {
        "features": (["features", "--manifest", str(workspace["manifest"]), "--features",
                      str(tmp_path / "cache")], tmp_path / "cache" / "features.config.json"),
        "evaluate": (["evaluate", "--input", str(workspace["net"]), "--features", feats,
                      "--out", str(tmp_path / "x.json")], tmp_path / "x.json.config.json"),
        "compare": (["compare", "--net", str(workspace["net"]), "--features", feats,
                     "--out-dir", str(tmp_path / "cmp")], tmp_path / "cmp" / "compare.config.json"),
    }[command]
    assert main(args) == 0
    first = written.read_bytes()
    (tmp_path / "replayed.json").write_bytes(first)
    assert main(args + ["--config", str(tmp_path / "replayed.json")]) == 0
    assert written.read_bytes() == first


#: (command, option key) of each size and step option that the CLI bounds
SIZE_OPTIONS = [("train", "batch_size"), ("train", "epochs"), ("train", "lr"),
                ("train", "prune_finetune_epochs"), ("evaluate", "batch")]
#: zero, negatives, nan, infinities and huge numbers; an epoch count stays
#: small when positive, so that every example ends
ANY_NUMBER = st.integers() | st.floats() | st.sampled_from([0, -1, 10 ** 30, 1e308])
FEW_EPOCHS = st.integers(max_value=2) | st.floats() | st.sampled_from([0, -1, -10 ** 30])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_size_or_step_option_exits_with_a_documented_code(workspace, data):
    # each value on the command line or in a config file: exit 0, 2
    # (argparse's own errors among them), 3 or 4, never a traceback
    command, key = data.draw(st.sampled_from(SIZE_OPTIONS))
    value = data.draw(FEW_EPOCHS if "epochs" in key else ANY_NUMBER)
    root = workspace["root"] / "option-fuzz"
    root.mkdir(exist_ok=True)
    from_config = data.draw(st.booleans())
    args = (tiny_train(workspace, root / "m.npz", epochs=not (from_config and key == "epochs"))
            if command == "train" else evaluate_net(workspace, root / "x.json"))
    if from_config:
        (root / "cfg.json").write_text(json.dumps({key: value}))
        args += ["--config", str(root / "cfg.json")]
    else:
        args += [f"--{key.replace('_', '-')}", str(value)]
    if key == "prune_finetune_epochs":
        args += ["--prune-sparsity", "0.5"]
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4)


@pytest.fixture(scope="module")
def fuzz_dir(workspace, tmp_path_factory):
    """A copy of the workspace's features for the fuzz to overwrite the
    index of, and the commands' output directory."""
    root = tmp_path_factory.mktemp("file-fuzz")
    shutil.copytree(workspace["features"], root / "features")
    return root


#: (command, option) of every option that a config file may set, less the
#: output paths, which the fuzz must not point anywhere
CONFIG_OPTIONS = [(name, action.dest)
                  for name, command in build_parser()._subparsers._group_actions[0].choices.items()
                  for action in command._actions
                  if action.option_strings
                  and action.dest not in ("help", "config", "out", "out_dir")
                  and (name, action.dest) != ("features", "features")]
#: JSON values that an option might be given: null, booleans, integers
#: small enough that every example ends soon (an epoch count or a layer
#: width of 10**9 is a valid value), floats (nan and infinities among
#: them) and strings, and lists and objects of them
CONFIG_SCALARS = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
                  | st.text(max_size=6))
CONFIG_VALUES = (CONFIG_SCALARS | st.lists(CONFIG_SCALARS, max_size=4)
                 | st.dictionaries(st.text(max_size=6), CONFIG_SCALARS, max_size=2))


@given(target=st.sampled_from(["model", "net", "index", "config", "archive"]),
       value=JSON_VALUES, option=st.sampled_from(CONFIG_OPTIONS), option_value=CONFIG_VALUES,
       clip=st.integers(0, 10 ** 6), field=st.sampled_from(["data", "frame_period"]),
       array=any_array((3, MelConfig().n_mels)))
@settings(max_examples=250, deadline=None)
def test_arbitrary_metadata_or_index_exits_with_a_documented_code(workspace, fuzz_dir,
                                                                   target, value, option,
                                                                   option_value, clip, field,
                                                                   array):
    # a model's or a network's whole metadata, or the whole feature index,
    # replaced by an arbitrary JSON value, a config file that sets one
    # option of a command to one, or one clip archive's data or
    # frame_period replaced by an arbitrary array: every command that reads
    # it exits 0, 2, 3 or 4, and no exception escapes main
    features = fuzz_dir / "features"
    index = features / "features_index.json"
    index.write_text((workspace["features"] / "features_index.json").read_text())
    for archive in workspace["features"].glob("*.npz"):
        shutil.copyfile(archive, features / archive.name)
    files = {"model": workspace["model"], "net": workspace["net"]}
    if target == "index":
        index.write_text(json.dumps(value))
    elif target == "archive":
        entries = json.loads(index.read_text())["entries"]
        path = features / f"{entries[clip % len(entries)]['key']}.npz"
        with np.load(path) as data:
            arrays = dict(data)
        np.savez(path, **{**arrays, field: array})
    elif target != "config":
        files[target] = fuzz_dir / f"{target}.npz"
        with_metadata(workspace[target], files[target], value)
    model, net, feats = str(files["model"]), str(files["net"]), str(features)
    out, out_dir, out_npz = (str(fuzz_dir / name) for name in ("x.json", "cmp", "out.npz"))
    commands = {  # each command on the workspace, with what keeps it small
        "features": (["features", "--manifest", str(workspace["manifest"]), "--features", feats],
                     {}),
        "train": (["train", "--features", feats, "--out", out_npz],
                  {"hidden": [2, 2], "alpha": [0.5] * 3, "epochs": 1}),
        "convert": (["convert", "--model", model, "--out", out_npz], {"f": 5e4}),
        "evaluate": (["evaluate", "--input", net, "--features", feats, "--out", out], {}),
        "compare": (["compare", "--net", net, "--features", feats, "--out-dir", out_dir], {}),
    }
    if target == "config":
        command, key = option
        args, config = commands[command]
        (fuzz_dir / "cfg.json").write_text(json.dumps({**config, key: option_value}))
        assert main(args + ["--config", str(fuzz_dir / "cfg.json")]) in (0, 2, 3, 4), option
        return
    index_runs = [tiny_train({**workspace, "features": features}, out_npz),
                  ["evaluate", "--input", model, "--features", feats, "--out", out],
                  ["compare", "--net", net, "--features", feats, "--out-dir", out_dir],
                  ["convert", "--model", model, "--features", feats, "--probes", "1",
                   "--out", out_npz]]
    runs = {
        "model": [["evaluate", "--input", model, "--features", feats, "--out", out],
                  ["convert", "--model", model, "--f", "5e4", "--out", out_npz]],
        "net": [["evaluate", "--input", net, "--features", feats, "--out", out],
                ["compare", "--net", net, "--features", feats, "--out-dir", out_dir]],
        "index": index_runs,
        "archive": index_runs + [["evaluate", "--input", net, "--features", feats,
                                  "--out", out]],
    }
    for args in runs[target]:
        assert main(args) in (0, 2, 3, 4), args


@pytest.mark.parametrize("command, flags, code", [
    ("features", ["--n-fft", "500"], 2), ("features", ["--f-min", "8000"], 2),
    ("features", ["--hop-length", "0"], 2), ("features", ["--log-floor", "0"], 2),
    ("features", ["--log-floor", "inf"], 2),
    ("features", ["--n-fft", "64", "--n-mels", "40"], 2),
    ("features", ["--sample-rate", "8000", "--f-max", "4000"], 3),
    ("train", ["--alpha", "0.5", "0.5"], 2)],
    ids=["n_fft", "f_min", "hop_length", "log_floor", "log_floor-inf", "empty-filter",
         "sample-rate", "alpha-count"])
def test_input_check_exits_with_its_code(workspace, tmp_path, capsys, command, flags, code):
    # a filter bank that n_fft cannot fill is the configuration's fault, not
    # each file's, and exited 3; --log-floor inf wrote all-inf features and
    # an index that is not strict JSON, and exited 0
    argv = (["features", "--manifest", str(workspace["manifest"]),
             "--features", str(tmp_path / "cache")] if command == "features"
            else tiny_train(workspace, tmp_path / "m.npz"))
    assert main(argv + flags) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "cache" / "features_index.json").exists()


class TestCompareCommand:
    def test_outputs(self, workspace, tmp_path):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--net", str(workspace["net"]),
                     "--features", str(workspace["features"]),
                     "--sample-index", "1", "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "compare.json").read_text())
        assert len(report["per_layer"]) == 3
        lines = (out_dir / "traces.csv").read_text().splitlines()
        assert lines[0] == "frame,layer,unit,ann,snn"
        assert len(lines) > 100

    def test_bad_index_is_config_error(self, workspace, tmp_path):
        assert main(["compare", "--net", str(workspace["net"]),
                     "--features", str(workspace["features"]),
                     "--sample-index", "999",
                     "--out-dir", str(tmp_path / "cmp")]) == 2


class TestSyntheticDataset:
    def test_deterministic_generation(self, tmp_path):
        m1 = generate_dataset(tmp_path / "a", n_train=8, n_test=4, seed=5)
        m2 = generate_dataset(tmp_path / "b", n_train=8, n_test=4, seed=5)
        assert m1.read_text() == m2.read_text()
        w1 = sorted((tmp_path / "a" / "wav").iterdir())
        w2 = sorted((tmp_path / "b" / "wav").iterdir())
        assert [p.read_bytes() for p in w1] == [p.read_bytes() for p in w2]

    def test_balanced_classes(self, tmp_path):
        from sdrnn.audio_frontend import read_manifest

        manifest = generate_dataset(tmp_path / "c", n_train=20, n_test=8, seed=1)
        rows = read_manifest(manifest)
        train = [r for r in rows if r["split"] == "train"]
        counts = {c: sum(1 for r in train if r["label"] == c) for c in CLASSES}
        assert set(counts.values()) == {5}


def damaged_except(workspace, root, split, keep) -> Path:
    """A copy of the workspace's features in which every archive but the
    entries keep of split is deleted or, every other one, replaced by
    bytes that are no archive."""
    features = root / "features"
    shutil.copytree(workspace["features"], features)
    entries = json.loads((features / "features_index.json").read_text())["entries"]
    kept = {e["key"] for e in [e for e in entries if e["split"] == split][keep]}
    for k, entry in enumerate(e for e in entries if e["key"] not in kept):
        path = features / f"{entry['key']}.npz"
        if k % 2:
            path.unlink()
        else:
            path.write_bytes(b"garbage")
    return features


@pytest.mark.parametrize("command, split, keep, flags, written", [
    ("convert", "train", slice(2), ["--t-snn", "0.001", "--probes", "2"],
     ["net.npz", "net.npz.report.txt"]),
    ("compare", "test", slice(1, 2), ["--sample-index", "1"], ["compare.json", "traces.csv"])],
    ids=["convert", "compare"])
def test_convert_and_compare_read_only_the_clips_they_use(workspace, tmp_path, command, split,
                                                          keep, flags, written):
    # convert read, checked and stacked every archive of --probe-split, and
    # compare every archive of --split, to use two clips and one
    outputs = []
    for features in (workspace["features"], damaged_except(workspace, tmp_path, split, keep)):
        out = tmp_path / f"out{len(outputs)}"
        args = {"convert": ["convert", "--model", str(workspace["model"]),
                            "--out", str(out / "net.npz")],
                "compare": ["compare", "--net", str(workspace["net"]), "--out-dir", str(out)]}
        assert main(args[command] + ["--features", str(features), *flags]) == 0
        outputs.append([(out / name).read_bytes() for name in written])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, split, index", [("convert", "train", 1),
                                                   ("compare", "test", 1)],
                         ids=["convert", "compare"])
def test_nan_clip_among_those_read_is_data_error(workspace, tmp_path, capsys, command, split,
                                                 index):
    features = tmp_path / "features"
    shutil.copytree(workspace["features"], features)
    entries = json.loads((features / "features_index.json").read_text())["entries"]
    path = features / f"{[e for e in entries if e['split'] == split][index]['key']}.npz"
    with np.load(path) as data:
        arrays = dict(data)
    arrays["data"][2, 3] = np.nan
    np.savez(path, **arrays)
    args = {"convert": ["convert", "--model", str(workspace["model"]), "--features",
                        str(features), "--probes", "2", "--out", str(tmp_path / "net.npz")],
            "compare": ["compare", "--net", str(workspace["net"]), "--features", str(features),
                        "--sample-index", str(index), "--out-dir", str(tmp_path / "cmp")]}
    assert main(args[command]) == 3
    err = capsys.readouterr().err
    assert path.name in err and "NaN" in err and "Traceback" not in err


#: An entry that no writer writes, an array of a layer past the last, and
#: a quantizer scale as model files once held
STRAY_ENTRIES = {"junk": np.zeros(3), "l9_w_in": np.zeros((2, 2)),
                 "l0_w_in_scale": np.array(0.5)}


@pytest.mark.parametrize("entry", STRAY_ENTRIES)
@pytest.mark.parametrize("kind", ["model", "net", "clip"])
def test_archive_with_an_entry_its_writer_does_not_write_is_data_error(workspace, tmp_path,
                                                                       capsys, kind, entry):
    # each file loaded and ran without a word: the loaders read the entries
    # they knew by name and never looked at the others
    features, target = workspace["features"], tmp_path / f"{kind}.npz"
    if kind == "clip":
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        entries = json.loads((features / "features_index.json").read_text())["entries"]
        target = features / f"{[e for e in entries if e['split'] == 'test'][0]['key']}.npz"
    with np.load(workspace.get(kind, target)) as data:
        arrays = dict(data)
    np.savez(target, **arrays, **{entry: STRAY_ENTRIES[entry]})
    loader = {"model": load_model, "net": load_network,
              "clip": lambda path: cli._read_clip(path, arrays["data"].shape[1])}[kind]
    with pytest.raises(DataError, match=f"'{entry}' is no entry of"):
        loader(target)
    model_or_net = workspace["model"] if kind == "clip" else target
    assert main(["evaluate", "--input", str(model_or_net), "--features", str(features),
                 "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert f"'{entry}' is no entry of" in err and "Traceback" not in err


def test_load_split_trims_to_the_shortest_clip_it_reads(tmp_path):
    # clips of 5, 3 and 4 frames: a selection is trimmed to its own
    # shortest clip, not the split's
    rng = np.random.default_rng(0)
    clips = [rng.normal(size=(n, 2)) for n in (5, 3, 4)]
    stats = compute_norm_stats(clips)
    entries = [{"split": "train", "label": label, "key": f"c{k}", "path": f"c{k}.wav"}
               for k, label in enumerate(("up", "down", "up"))]
    for entry, clip in zip(entries, clips):
        np.savez(tmp_path / f"{entry['key']}.npz", data=clip, frame_period=0.01)
    (tmp_path / "features_index.json").write_text(
        json.dumps({"norm_stats": stats, "entries": entries}))
    for take, frames in ((slice(None), 3), (slice(1), 5), (slice(2, 3), 4), (slice(0, 3, 2), 4)):
        x, labels, names, period, _ = _load_split(tmp_path, "train", take=take)
        chosen = clips[take]
        assert x.shape == (len(chosen), frames, 2), take
        for row, clip in zip(x, chosen):
            np.testing.assert_array_equal(row, apply_norm(clip[:frames], stats))
        assert names == ["down", "up"] and period == 0.01
        assert labels.tolist() == [[1, 0, 1][k] for k in range(3)[take]]
    with pytest.raises(ConfigError, match="sample index 3 outside split 'train' of 3 samples"):
        _load_split(tmp_path, "train", take=slice(3, 4))


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "stdout", "usage: sdrnn"),
    (["convert", "--model", "m.npz", "--out", "n.npz", "--probes", "0"], 2, "stderr",
     "argument --probes")], ids=["help", "exit-code"])
def test_python_m_sdrnn_runs_the_cli(tmp_path, argv, code, stream, text):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "sdrnn", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert text in getattr(done, stream)
