import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from sdrnn.audio_frontend import save_wav, write_manifest
from sdrnn.cli import main
from sdrnn.convert import load_network
from sdrnn.synthetic import CLASSES, generate_dataset


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

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"nonsense": 1}))
        assert main(["train", "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "m.npz"),
                     "--config", str(cfg_path)]) == 2


class TestConvertCommand:
    def test_report_written(self, workspace):
        report = Path(str(workspace["net"]) + ".report.txt").read_text()
        assert "scale factor" in report and "histogram" in report

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

    @staticmethod
    def with_retired_options(workspace, tmp_path, **changes) -> Path:
        """The recorded config of the workspace network as the convert
        command wrote it while the compiler constants were options."""
        config = json.loads(Path(str(workspace["net"]) + ".config.json").read_text())
        config.update({"tau_u": 2.0, "tau_mem": 1.0, "weight_gain": 1, "weight_limit": 255,
                       **changes})
        path = tmp_path / "old.config.json"
        path.write_text(json.dumps(config))
        return path

    def test_config_with_retired_options_replays(self, workspace, tmp_path):
        out = tmp_path / "replay.npz"
        assert main(["convert", "--model", str(workspace["model"]), "--out", str(out),
                     "--config", str(self.with_retired_options(workspace, tmp_path))]) == 0
        replayed, searched = load_network(out), load_network(workspace["net"])
        assert (replayed.f, replayed.config) == (searched.f, searched.config)
        for a, b in zip(replayed.layers, searched.layers):
            for name in ("w_in", "w_rec", "bias", "enc_w"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert (a.w_fb, a.tau_s_fx, a.tau_u_fx) == (b.w_fb, b.tau_s_fx, b.tau_u_fx)

    @pytest.mark.parametrize("key, value", [("tau_u", 3.0), ("tau_mem", 2.0),
                                            ("weight_gain", 64), ("weight_limit", 127)])
    def test_retired_option_with_another_value_is_config_error(self, workspace, tmp_path,
                                                               capsys, key, value):
        config = self.with_retired_options(workspace, tmp_path, **{key: value})
        assert main(["convert", "--model", str(workspace["model"]),
                     "--out", str(tmp_path / "net.npz"), "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    def test_retired_option_is_unknown_to_other_commands(self, workspace, tmp_path):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"tau_u": 2.0}))
        assert main(["train", "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "m.npz"), "--config", str(cfg_path)]) == 2

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

    def test_network_with_retired_key_of_another_value_is_data_error(self, workspace,
                                                                     tmp_path, capsys):
        with np.load(workspace["net"]) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["layers"][1]["threshold"] = meta["layers"][1]["w_fb"] + 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        net = tmp_path / "net.npz"
        np.savez(net, **arrays)
        assert main(["evaluate", "--input", str(net), "--features", str(workspace["features"]),
                     "--out", str(tmp_path / "x.json")]) == 3
        assert "threshold" in capsys.readouterr().err

    def test_corrupt_feature_index_is_data_error(self, workspace, tmp_path):
        features = tmp_path / "features"
        shutil.copytree(workspace["features"], features)
        index = features / "features_index.json"
        index.write_text(index.read_text()[:100])
        assert main(["evaluate", "--input", str(workspace["model"]),
                     "--features", str(features), "--out", str(tmp_path / "x.json")]) == 3

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
