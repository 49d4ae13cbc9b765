"""Command-line entry point.

Subcommands: features, train, predict, eval, ensemble,
experiment, synth. Every command but eval and synth accepts --config FILE
and repeated --set key=value overrides. Failures exit nonzero with a single
machine-parsable line on stderr: `error: <kind>: <message>`.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import ManifestError, RqvqaError
from .features import (
    backbone_registry_from_sidecars,
    save_sidecar,
    toy_registry,
)
from .fusion import load_checkpoint, save_checkpoint, train
from .harness import (
    csv_reader,
    ensemble_predict,
    load_bundles,
    load_manifest,
    predict_scores,
    resolve_bundle,
    run_experiment,
    write_predictions,
)
from .metrics import evaluate
from .synthetic import make_synthetic_corpus


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        dest="overrides", help="override one config key")


def _config(args) -> RunConfig:
    return load_config(args.config, args.overrides)


def _manifest_and_registry(cfg: RunConfig, path: str):
    """The manifest at path, and the registry cfg names for it."""
    manifest = load_manifest(path)
    if cfg.registry == "toy":
        return manifest, toy_registry()
    if not manifest.records:
        raise ManifestError(
            f"{path}: no video to read the backbone sidecar widths from")
    return manifest, backbone_registry_from_sidecars(manifest.records[0].path)


def cmd_synth(args) -> int:
    manifest = make_synthetic_corpus(args.out, args.n, args.seed)
    print(f"wrote {len(manifest)} videos under {args.out}")
    return 0


def cmd_features(args) -> int:
    cfg = _config(args)
    manifest, registry = _manifest_and_registry(cfg, args.manifest)
    out = Path(args.out)
    for rec in manifest.records:
        bundle = resolve_bundle(rec, registry, cfg.extraction)
        for source in registry:
            save_sidecar(source, bundle.matrices[source.name],
                         out / rec.video_id / f"{source.name}.rqvf")
    print(f"wrote sidecars for {len(manifest)} videos under {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(args)
    manifest, registry = _manifest_and_registry(cfg, args.manifest)
    dataset = load_bundles(manifest, registry, cfg.extraction)
    train_cfg = replace(cfg.train, seed=cfg.seed)
    result = train(dataset, registry, train_cfg)
    save_checkpoint(args.out, result.head, train_cfg, master_seed=cfg.seed)
    losses = result.trace.epoch_losses
    print(f"trained {result.trace.steps} steps "
          f"(skipped {result.trace.skipped_batches} constant-label batches); "
          f"final epoch loss {losses[-1]:.6f}; checkpoint {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = _config(args)
    head, _, _ = load_checkpoint(args.checkpoint)
    rows = predict_scores(head, load_manifest(args.manifest),
                          head.layout.entries, cfg.extraction)
    write_predictions(rows, args.out)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


# the bytes a body read by np.loadtxt may hold: no quote, since a quoted
# field can span lines, and no control character but the line breaks
_LOADTXT_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n\r"
_HEAD_BYTES = 1 << 16   # the leading bytes searched for the header row


def _loadtxt_columns(data: bytes) -> tuple | None:
    """The (prediction, MOS) columns of the eval CSV bytes data, read with
    one np.loadtxt call; None where only _row_loop may decide. The header, a
    non-numeric first non-empty row, is found as _row_loop finds it, and must
    end within _HEAD_BYTES. The body after it must hold only _LOADTXT_BYTES,
    with no line over csv's field limit: on such a body loadtxt and _row_loop
    accept the same files and read the same values."""
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:    # decoded up to the last whole character
        head = codecs.getincrementaldecoder("utf-8")().decode(
            data[bom:bom + _HEAD_BYTES])
        buf = io.StringIO(head, newline="")
        row = next(filter(None, csv.reader(buf)), [])
    except (UnicodeError, csv.Error):
        return None
    if len(row) != 2 or buf.tell() == len(head):   # may go on past head
        return None
    try:
        float(row[0]), float(row[1])
        body = data[bom:]
    except ValueError:
        body = data[bom + len(head[:buf.tell()].encode()):]
    breaks = np.flatnonzero(np.frombuffer(body, np.uint8) < 0x20)
    longest = np.diff(breaks, prepend=-1, append=len(body)).max() - 1
    if (body.translate(None, _LOADTXT_BYTES)
            or longest > csv.field_size_limit()
            or body.isspace()):     # loadtxt warns on a body with no data
        return None
    try:
        table = np.loadtxt(
            io.TextIOWrapper(io.BytesIO(body), encoding="ascii", newline=""),
            delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return tuple(table.T) if table.shape[1] == 2 else None


def _row_loop(path, data: bytes) -> tuple[list, list]:
    """The (prediction, MOS) columns of data, the eval CSV read from path,
    row by row; a ManifestError names the first row that is refused."""
    pred, mos = [], []
    first = True
    with csv_reader(path, data) as reader:
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ManifestError(
                    f"{path}:{reader.line_num}: expected 2 columns")
            try:
                p, m = float(row[0]), float(row[1])
            except ValueError:
                if not first:  # only the first non-empty row is a header
                    raise ManifestError(
                        f"{path}:{reader.line_num}: non-numeric row "
                        f"{row}") from None
                first = False
                continue
            first = False
            pred.append(p)
            mos.append(m)
    return pred, mos


def cmd_eval(args) -> int:
    with open(args.pred, "rb") as fh:   # read once: it may be a pipe
        data = fh.read()
    columns = _loadtxt_columns(data) or _row_loop(args.pred, data)
    report = evaluate(*columns)
    lines = [f"srcc={report.srcc:.6f}",
             f"plcc_raw={report.plcc_raw:.6f}",
             f"plcc_4pl={report.plcc_4pl:.6f}"]
    betas = astuple(report.fit) if report.fit else (float("nan"),) * 4
    lines += [f"beta{i}={beta:.6f}" for i, beta in enumerate(betas, 1)]
    lines.append(f"n={report.n}")
    if report.fit_failed:
        lines.append("fit_failed=1")
    print("\n".join(lines))
    return 0


def cmd_ensemble(args) -> int:
    cfg = _config(args)
    manifest, registry = _manifest_and_registry(cfg, args.train_manifest)
    target = load_manifest(args.target_manifest) if args.target_manifest \
        else None
    rows = ensemble_predict(manifest, registry, cfg.train, cfg.split,
                            k_splits=args.k, target_manifest=target,
                            master_seed=cfg.seed, extraction=cfg.extraction)
    write_predictions(rows, args.out)
    print(f"wrote {len(rows)} ensembled predictions to {args.out}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _config(args)
    manifest, registry = _manifest_and_registry(cfg, args.manifest)
    report = run_experiment(manifest, registry, cfg.train, cfg.split,
                            repeats=args.repeats, master_seed=cfg.seed,
                            extraction=cfg.extraction)
    for row in report.rows:
        r = row.report
        print(f"split={row.split_seed} train_seed={row.train_seed} "
              f"n_train={row.n_train} n_test={row.n_test} "
              f"srcc={r.srcc:.6f} plcc_raw={r.plcc_raw:.6f} "
              f"plcc_4pl={r.plcc_4pl:.6f}")
    print(f"mean srcc={report.mean_srcc:.6f} "
          f"plcc_raw={report.mean_plcc_raw:.6f} "
          f"plcc_4pl={report.mean_plcc_4pl:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqvqa",
        description="Blind video quality assessment from fused features")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=320)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="materialize sidecars for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the fusion head on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a manifest with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="prediction CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval",
                       help="evaluate a 2-column (prediction, MOS) CSV")
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ensemble",
                       help="train k split models and combine predictions")
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--target-manifest", default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("experiment",
                       help="train and evaluate on repeated seeded splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--repeats", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_experiment)
    return parser


# every character str.splitlines breaks at, escaped, so that a message
# quoting a file's contents stays one line
_LINE_BREAKS = {c: repr(chr(c))[1:-1] for c in (
    0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029)}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RqvqaError, OSError) as exc:
        message = str(exc).translate(_LINE_BREAKS)
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
