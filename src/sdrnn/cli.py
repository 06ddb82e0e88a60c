"""Command-line pipeline: features, train, convert, evaluate, compare.

Every command writes a resolved-config JSON next to its primary output so a
run can be replayed bit-for-bit. A --config file's values pass through the
same argparse types and choices as flags, and the flags given win. evaluate,
compare and convert read only features of the model's classes, frame period
and norm_stats. train and evaluate read every feature archive of their
split, convert only the first --probes of --probe-split, and compare only
the one at --sample-index. Exit codes: 0 success, 2 configuration error
(sizes that do not fit in memory among them), 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import audio_frontend as af
from .containers import FeatureSequence
from .convert import (NET_FORMAT, CompileConfig, TimingConfig,
                      compile_network, compile_report, load_network, predicted_peak,
                      # unused here; it stays because perfbench's tracer patches it in cli
                      probe_peak_state, save_network, select_scale_factor)
from .errors import (ConfigError, DataError, NumericError, _finite_positive, _real, npz_entries,
                     npz_file, npz_meta, reading)
from .lprnn import (MODEL_FORMAT, TrainConfig, forward_batch, forward_sequence,
                    init_model, load_model, magnitude_prune, save_model, train)
from .snn_sim import compare_activations, simulate, simulate_batch


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolved_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}


def _with_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser,
                      argv: list[str]) -> list[str]:
    """argv, parsed as args, with the values of its config file inserted as
    tokens after the command, so that the command's own argparse actions
    read them and the flags given after them win: a JSON list for an option
    that takes several values, one value otherwise; null keeps the option's
    default. The recorded command must name the command being run, and
    f_search_evals, which only convert records, is skipped in a convert
    config; any other key is unknown."""
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{args.config}: unreadable config file ({exc})") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"{args.config}: config file must hold a JSON object")
    command = parser._subparsers._group_actions[0].choices[args.command]
    options = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    inserted = []
    for key, value in overrides.items():
        if key == "command" and value != args.command:
            raise ConfigError(f"{args.config}: command is {value!r}, not the command being run, "
                              f"{args.command!r}")
        if key == "command" or (key, args.command) == ("f_search_evals", "convert"):
            continue
        if key not in options:
            raise ConfigError(f"{args.config}: unknown config key {key!r}")
        if value is None:
            continue
        flag, several = options[key].option_strings[-1], options[key].nargs == "+"
        if isinstance(value, list) != several:
            raise ConfigError(f"{args.config}: {key} takes {'a list' if several else 'one value'}"
                              f", not {value!r}")
        # a string as it is, any other JSON value (a number among them) as JSON
        tokens = [v if isinstance(v, str) else json.dumps(v)
                  for v in (value if several else [value])]
        tokens = [flag, *tokens] if several else [f"{flag}={tokens[0]}"]
        try:
            parser.parse_args([argv[0], *tokens, *argv[1:]])
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {key}: {exc}") from None
        inserted += tokens
    return [argv[0], *inserted, *argv[1:]]


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors, on the command line or in a config
    file, are a ConfigError."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _integer(least: int):
    """argparse type: an integer >= least."""
    def integer(text: str) -> int:
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, not {text!r}")
        return value
    return integer


def positive_number(text: str) -> float:
    """argparse type: a finite positive number."""
    if not _finite_positive(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, not {text!r}")
    return value


def _fraction(text: str) -> float:
    """argparse type: a number in [0, 1)."""
    if not 0 <= (value := float(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1), not {text!r}")
    return value


def _mel_config(args) -> af.MelConfig:
    return af.MelConfig(**{f.name: getattr(args, f.name) for f in fields(af.MelConfig)})


def _extent(data: np.ndarray) -> np.ndarray:
    """A clip's per-feature min and max as two rows: compute_norm_stats over
    these rows of each clip equals it over every frame of each."""
    return np.stack([data.min(axis=0), data.max(axis=0)])


#: The entries of a clip's feature archive, in the order written.
_CLIP_ENTRIES = ("data", "frame_period")


def _read_clip(path, width: int) -> tuple[np.ndarray, float]:
    """The data and frame period of one clip's feature archive: a 2-D array
    of finite numbers, at least one frame long and `width` wide, and one
    finite positive number, or a DataError; so is any other entry."""
    with npz_file(path) as data:
        raw, period = npz_entries(data, path, "a feature clip", _CLIP_ENTRIES)
    if not (raw.ndim == 2 and raw.shape[0] > 0 and raw.shape[1] == width
            and raw.dtype.kind in "iuf" and np.isfinite(raw).all()):
        raise DataError(f"{path}: feature data must be a 2-D array of finite numbers, at least "
                        f"one frame long and {width} wide, not {raw.dtype} {raw.shape} or with "
                        "NaN or inf values")
    period = float(period) if period.shape == () and period.dtype.kind in "iuf" else None
    if not _finite_positive(period):
        raise DataError(f"{path}: frame_period must be one finite positive number")
    return raw, period


def _feature_one(job) -> dict:
    """Write one clip's feature archive unless it is cached, in which case
    read it back as a check; for a training clip, also return its extent."""
    wav_path, key, cache_dir, mel_cfg, train = job
    out = Path(cache_dir) / f"{key}.npz"
    result = {"cached": out.exists(), "error": None, "extent": None}
    try:
        if result["cached"]:
            data = _read_clip(out, mel_cfg.n_mels)[0]
        else:
            feats = af.mel_spectrogram(af.load_wav(wav_path), mel_cfg)
            data = feats.data
            tmp = out.with_suffix(".tmp.npz")
            np.savez(tmp, **dict(zip(_CLIP_ENTRIES, (data, feats.frame_period), strict=True)))
            os.replace(tmp, out)
        if train:
            result["extent"] = _extent(data)
    except DataError as exc:
        result["error"] = str(exc)
    return result


def cmd_features(args) -> int:
    manifest_path = Path(args.manifest)
    rows = af.read_manifest(manifest_path)
    mel_cfg = _mel_config(args)
    cache_dir = Path(args.features)
    cache_dir.mkdir(parents=True, exist_ok=True)

    jobs, index = [], []
    for row in rows:
        wav_path = manifest_path.parent / row["path"]
        if not wav_path.exists():
            raise DataError(f"{wav_path}: listed in manifest but missing")
        key = af.cache_key(wav_path, mel_cfg)
        jobs.append((wav_path, key, cache_dir, mel_cfg, row["split"] == "train"))
        index.append({**row, "key": key})

    # the pool starts all its workers at once: no more than there are jobs or CPUs
    if (workers := max(1, min(args.workers, len(jobs), os.cpu_count() or 1))) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # about four chunks per worker: one IPC round trip per chunk
            chunk = max(1, len(jobs) // (4 * workers))
            results = list(pool.map(_feature_one, jobs, chunksize=chunk))
    else:
        results = [_feature_one(job) for job in jobs]

    failures = [(row["path"], res["error"]) for row, res in zip(rows, results)
                if res["error"]]
    hits = sum(1 for res in results if res["cached"])
    if failures:
        print(f"feature extraction failed for {len(failures)} file(s):", file=sys.stderr)
        for path, error in failures:
            print(f"  {path}: {error}", file=sys.stderr)
        raise DataError(f"{len(failures)} of {len(rows)} files failed")

    extents = [res["extent"] for res in results if res["extent"] is not None]
    stats = af.compute_norm_stats(extents) if extents else None
    payload = {"mel_config": asdict(mel_cfg), "mel_digest": mel_cfg.digest(),
               "norm_stats": stats, "entries": index}
    _write_json(cache_dir / "features_index.json", payload)
    _write_json(cache_dir / "features.config.json",
                {**_resolved_config(args), "workers": workers})
    print(f"features: {len(rows)} files ({hits} cache hits) -> {cache_dir}")
    return 0


def _load_split(features_dir: Path, split: str, optional: bool = False,
                take: slice = slice(None)):
    """Stacked features/labels of the entries of one split that take selects
    (all by default), trimmed to the shortest of those clips so they batch;
    None for an optional split not in the index. Only the selected archives
    are opened: train and evaluate read the whole split, convert the first
    --probes entries and compare the entry at --sample-index. A selection of
    no entry is a ConfigError that gives the split's size."""
    index_path = features_dir / "features_index.json"
    if not index_path.exists():
        raise DataError(f"{features_dir}: no features_index.json; run `features` first")
    with reading(index_path), open(index_path) as fh:
        index = json.load(fh)
    rows = index.get("entries") if isinstance(index, dict) else None
    if not (isinstance(rows, list)
            and all(isinstance(e, dict) and all(isinstance(e.get(k), str)
                                                for k in ("split", "label", "key"))
                    for e in rows)
            and isinstance(stats := index.get("norm_stats"), (dict, type(None)))):
        raise DataError(f"{index_path}: not a feature index (an object of entries with "
                        "string split, label and key, and a norm_stats object or null)")
    entries = [e for e in rows if e["split"] == split]
    if not entries:
        if optional:
            return None
        raise DataError(f"split {split!r} not present in the feature index")
    if stats is None:
        raise DataError("feature index has no normalization statistics "
                        "(manifest had no train split)")
    lo, hi = stats.get("min"), stats.get("max")
    if not (isinstance(lo, list) and isinstance(hi, list) and len(lo) == len(hi)
            and all(_real(v) and math.isfinite(v) for v in lo + hi)):
        raise DataError(f"{index_path}: norm_stats must hold min and max lists of finite "
                        "numbers of one length")
    if not (chosen := entries[take]):
        raise ConfigError(f"sample index {take.start} outside split {split!r} "
                          f"of {len(entries)} samples")
    label_names = sorted({e["label"] for e in rows})
    label_ids = {name: k for k, name in enumerate(label_names)}
    feats, labels, periods = [], [], []
    for entry in chosen:
        path = features_dir / f"{entry['key']}.npz"
        raw, period = _read_clip(path, len(lo))  # as wide as norm_stats
        if periods and period != periods[0]:
            raise DataError(f"{path}: frame_period {period} differs from the first clip's "
                            f"{periods[0]}; it must be the same in every clip")
        periods.append(period)
        feats.append(af.apply_norm(raw, stats))
        labels.append(label_ids[entry["label"]])
    t_min = min(f.shape[0] for f in feats)
    x = np.stack([f[:t_min] for f in feats])
    return x, np.array(labels, dtype=np.int64), label_names, periods[0], stats


def _model_split(model, features_dir: Path, split: str, take: slice = slice(None)):
    """_load_split's features, labels, class names and frame period, if they
    are the model's inputs: its classes, t_ann and norm_stats (a field that
    the model leaves None is not checked)."""
    x, labels, names, t_ann, stats = _load_split(features_dir, split, take=take)
    for what, ours, theirs in (("number of classes", len(names), model.n_classes),
                               ("class names", names, model.label_names),
                               ("frame period", t_ann, model.t_ann),
                               ("norm_stats", stats, model.norm_stats)):
        if theirs is not None and ours != theirs:
            raise DataError(f"{features_dir}: {what}: the feature index has {ours!r}, "
                            f"the model {theirs!r}")
    return x, labels, names, t_ann


def cmd_train(args) -> int:
    features_dir = Path(args.features)
    x_tr, y_tr, label_names, t_ann, stats = _load_split(features_dir, "train")
    if len(label_names) < 2:
        raise DataError(f"{features_dir}: the feature index has the labels {label_names}; "
                        "a classifier needs at least two")
    dataset = {"train": (x_tr, y_tr)}
    val = _load_split(features_dir, "val", optional=True)
    if val is not None:
        dataset["val"] = val[:2]

    model = init_model(n_features=x_tr.shape[2], hidden=tuple(args.hidden),
                       n_classes=len(label_names), alphas=tuple(args.alpha),
                       t_ann=t_ann, seed=args.seed, bits=args.bits,
                       readout_fraction=args.readout_fraction)
    model.norm_stats = stats
    model.label_names = label_names
    cfg = TrainConfig(epochs=args.epochs, lr=args.lr,
                      batch_size=args.batch_size, seed=args.seed)
    try:
        # weights that a large step size drove past the float range diverged
        with np.errstate(over="raise", invalid="raise"):
            model = train(model, dataset, cfg)
            if args.prune_sparsity > 0:
                model = magnitude_prune(model, args.prune_sparsity)
                if args.prune_finetune_epochs > 0:
                    fine = TrainConfig(epochs=args.prune_finetune_epochs, lr=args.lr,
                                       batch_size=args.batch_size, seed=args.seed + 1)
                    model = train(model, dataset, fine)
            logits, _ = forward_batch(model, x_tr)
    except FloatingPointError as exc:
        raise NumericError(f"training diverged ({exc})") from None
    acc = float((logits.argmax(axis=1) == y_tr).mean())

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    _write_json(str(out) + ".config.json", _resolved_config(args))
    print(f"train: model -> {out} (train accuracy {acc:.3f}, "
          f"classes {','.join(label_names)})")
    return 0


def cmd_convert(args) -> int:
    model = load_model(args.model)
    timing = TimingConfig(t_ann=model.t_ann, t_snn=args.t_snn)
    cfg = CompileConfig(safety_margin=args.safety_margin)
    if args.f is not None:
        f, trace, predicted = args.f, None, None
    else:
        if args.features is None:
            raise ConfigError("need --features (and a manifest with a train "
                              "split) to select f, or pass --f explicitly")
        x, _, _, t_ann = _model_split(model, Path(args.features), args.probe_split,
                                      slice(args.probes))
        probes = [FeatureSequence(clip, t_ann) for clip in x]
        predicted = predicted_peak(model, probes)
        f, trace = select_scale_factor(model, probes, timing, cfg, return_trace=True,
                                       predicted=predicted)
    net = compile_network(model, timing, f, cfg)
    net.notes.update(f_search_trace=trace, f_search_predicted_peak=predicted)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_network(net, out)
    report = compile_report(net)
    with open(str(out) + ".report.txt", "w") as fh:
        fh.write(report)
    # the f used, so that a replay of this file compiles the same network
    _write_json(str(out) + ".config.json",
                {**_resolved_config(args), "f": f, "f_search_evals": len(trace or ())})
    print(f"convert: f = {f:.6g}, network -> {out}")
    return 0


def _per_class_accuracy(pred, labels, label_names):
    out = {}
    for k, name in enumerate(label_names):
        mask = labels == k
        out[name] = float((pred[mask] == k).mean()) if mask.any() else None
    return out


def cmd_evaluate(args) -> int:
    with npz_file(args.input) as data:
        fmt = npz_meta(data, args.input, MODEL_FORMAT, NET_FORMAT)["format"]
    kind = "model" if fmt == MODEL_FORMAT else "net"
    mode = args.mode
    if mode == "auto":
        mode = "ann" if kind == "model" else "reference"
    if kind == "model" and mode != "ann":
        raise ConfigError("a model file evaluates in --mode ann; convert it "
                          "to a network for spiking modes")
    if kind == "net" and mode == "ann":
        raise ConfigError("a network file evaluates in --mode reference or fixed")

    net = load_network(args.input) if kind == "net" else None
    model = load_model(args.input) if net is None else net.source_model
    x, labels, label_names, _ = _model_split(model, Path(args.features), args.split)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []

    if kind == "model":
        logits, _ = forward_batch(model, x)
        pred = logits.argmax(axis=1)
        margins = np.sort(logits, axis=1)[:, -1] - np.sort(logits, axis=1)[:, -2]
        metrics = {
            "mode": "ann",
            "n_samples": int(len(labels)),
            "accuracy": float((pred == labels).mean()),
            "per_class_accuracy": _per_class_accuracy(pred, labels, label_names),
            "mean_margin": float(margins.mean()),
        }
        for k in range(len(labels)):
            rows.append((k, label_names[labels[k]], label_names[pred[k]],
                         f"{margins[k]:.6f}", ""))
    else:
        ann_pred = np.zeros(len(labels), dtype=np.int64)
        preds = np.zeros(len(labels), dtype=np.int64)
        spikes = np.zeros(len(labels))
        tracking = []
        sat_total = 0
        for lo in range(0, len(labels), args.batch):
            chunk = x[lo:lo + args.batch]
            part = slice(lo, lo + chunk.shape[0])
            result = simulate_batch(net, chunk, mode=mode)
            sat_total += result.saturation_total
            preds[part] = result.scores.argmax(axis=1)
            spikes[part] = result.spikes_per_sample
            ann_logits, cache = forward_batch(model, chunk, keep=True)
            ann_pred[part] = ann_logits.argmax(axis=1)
            report = compare_activations([np.swapaxes(ys, 0, 1) for ys in cache["ys"]],
                                         result, net)
            tracking += zip(*(e["relative_mse"] for e in report["per_layer"]))
        tracking = np.array(tracking)
        agreement = float((preds == ann_pred).mean())
        metrics = {
            "mode": mode,
            "n_samples": int(len(labels)),
            "accuracy": float((preds == labels).mean()),
            "ann_accuracy": float((ann_pred == labels).mean()),
            "ann_agreement": agreement,
            "per_class_accuracy": _per_class_accuracy(preds, labels, label_names),
            "mean_spikes_per_sample": float(spikes.mean()),
            "tracking_relative_mse_mean": tracking.mean(axis=0).tolist(),
            "tracking_relative_mse_max": tracking.max(axis=0).tolist(),
            "saturation_events": int(sat_total),
        }
        for k in range(len(labels)):
            rows.append((k, label_names[labels[k]], label_names[preds[k]],
                         f"{tracking[k].max():.3e}", int(spikes[k])))

    _write_json(out, metrics)
    csv_path = str(out) + ".samples.csv"
    with open(csv_path, "w") as fh:
        fh.write("index,label,prediction,margin_or_tracking,spikes\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    _write_json(str(out) + ".config.json", _resolved_config(args))
    print(f"evaluate[{metrics['mode']}]: accuracy {metrics['accuracy']:.3f} "
          f"on {metrics['n_samples']} samples -> {out}")
    return 0


def cmd_compare(args) -> int:
    net = load_network(args.net)
    model = net.source_model
    x, labels, label_names, t_ann = _model_split(
        model, Path(args.features), args.split,
        slice(args.sample_index, args.sample_index + 1))
    feats = FeatureSequence(x[0], t_ann)
    logits, ann_traces = forward_sequence(model, feats)
    trace = simulate(net, feats, mode=args.mode, record_rasters=False)
    report = compare_activations(ann_traces, trace, net)
    report["sample_index"] = args.sample_index
    report["label"] = label_names[labels[0]]
    report["ann_argmax"] = label_names[int(np.argmax(logits))]
    report["snn_argmax"] = label_names[int(np.argmax(trace.scores))]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "compare.json", report)
    with open(out_dir / "traces.csv", "w") as fh:
        fh.write("frame,layer,unit,ann,snn\n")
        for li, ann_tr in enumerate(ann_traces):
            snn_tr = trace.frame_s[li] / net.f
            for frame in range(ann_tr.shape[0]):
                for unit in range(ann_tr.shape[1]):
                    fh.write(f"{frame},{li},{unit},{ann_tr[frame, unit]:.8g},"
                             f"{snn_tr[frame, unit]:.8g}\n")
    _write_json(out_dir / "compare.config.json", _resolved_config(args))
    worst = max(e["relative_mse"] for e in report["per_layer"])
    print(f"compare: sample {args.sample_index} ({report['label']}), "
          f"worst layer relative MSE {worst:.3e} -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdrnn",
        description="Train low-pass RNNs, compile them to sigma-delta spiking "
                    "networks, and simulate them under fixed-point constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract mel features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True, metavar="DIR",
                   help="feature cache directory")
    for mel in fields(af.MelConfig):  # read back by _mel_config
        p.add_argument("--" + mel.name.replace("_", "-"), type=type(mel.default),
                       default=mel.default)
    p.add_argument("--workers", type=_integer(1), default=1)
    p.add_argument("--config")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a quantization-aware low-pass RNN")
    p.add_argument("--features", required=True, metavar="DIR")
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=int, nargs="+", default=[24, 24, 24],
                   help="widths of the input low-pass and recurrent layers")
    p.add_argument("--alpha", type=float, nargs="+", default=[0.6, 0.6, 0.6, 0.6],
                   help="one smoothing coefficient per layer (incl. output)")
    p.add_argument("--epochs", type=_integer(0), default=40)
    p.add_argument("--lr", type=positive_number, default=1e-2)
    p.add_argument("--batch-size", type=_integer(1), default=32)
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--bits", type=int, default=3)
    p.add_argument("--readout-fraction", type=float, default=0.25)
    p.add_argument("--prune-sparsity", type=_fraction, default=0.0)
    p.add_argument("--prune-finetune-epochs", type=_integer(0), default=0)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("convert", help="compile a trained model to a spiking network")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t-snn", type=float, default=0.0002,
                   help="simulator step in seconds (frame period / oversample)")
    p.add_argument("--f", type=float, default=None,
                   help="weight scale factor; omitted -> probe-based selection")
    p.add_argument("--features", metavar="DIR")
    p.add_argument("--probes", type=_integer(1), default=8,
                   help="the f search simulates the first PROBES clips of --probe-split; "
                        "only their feature archives are read")
    p.add_argument("--probe-split", default="train")
    p.add_argument("--safety-margin", type=float, default=0.5)
    p.add_argument("--config")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("evaluate", help="evaluate a model (ann) or network (spiking)")
    p.add_argument("--input", required=True, metavar="MODEL_OR_NET")
    p.add_argument("--features", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--mode", choices=["auto", "ann", "reference", "fixed"],
                   default="auto")
    p.add_argument("--out", required=True, metavar="METRICS_JSON")
    p.add_argument("--batch", type=_integer(1), default=64)
    p.add_argument("--config")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="per-layer ANN/SNN activation comparison")
    p.add_argument("--net", required=True)
    p.add_argument("--features", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--sample-index", type=_integer(0), default=0,
                   help="the entry of --split to compare; only its feature archive is read")
    p.add_argument("--mode", choices=["reference", "fixed"], default="reference")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config_file(args, parser, argv))
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"configuration error: the sizes asked for do not fit in memory ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
