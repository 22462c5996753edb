"""Command-line front end.

Subcommands: import, resample, index, train, predict, eval, make-synthetic.
All data output goes to files; diagnostics go to stderr (verbosity via the
LITTERSCAN_LOG environment variable: error, info or debug). Every
subcommand is a pure function of its input files, flags and --seed, so
reruns produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from . import dataset, evaluation, indexes, mlp, raster_io, resample, synthetic
from .bands import CANONICAL_ORDER, canonical_spec

log = logging.getLogger("litterscan")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("LITTERSCAN_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _band_arg(value: str) -> tuple[str, str]:
    if "=" not in value:
        raise argparse.ArgumentTypeError("expected ID=path.pgm")
    bid, path = value.split("=", 1)
    return bid, path


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit status 1, like every other failure
        self.exit(1, f"{self.prog}: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="litterscan")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("import", help="build a band-stack container from PGM files")
    sp.add_argument("--band", action="append", type=_band_arg, required=True,
                    metavar="ID=PATH", help="band id and PGM path (repeatable)")
    sp.add_argument("--extent-m", type=float, required=True)
    sp.add_argument("--out", required=True, help="manifest path to write")

    sp = sub.add_parser("resample", help="align a stack onto the finest grid")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True, help="cube manifest path to write")

    sp = sub.add_parser("index", help="compute an index map or combined mask")
    sp.add_argument("--cube", required=True)
    sp.add_argument("--method", required=True, choices=["ndvi", "fdi", "b8b9", "combined"])
    sp.add_argument("--out", required=True,
                    help="float raster (ndvi/fdi/b8b9) or PGM mask (combined)")
    sp.add_argument("--threshold", type=float, default=None,
                    help="also write a thresholded mask (ndvi/fdi/b8b9)")
    sp.add_argument("--mask-out", default=None, help="mask path for --threshold")
    sp.add_argument("--ndvi-max", type=float, default=None)
    sp.add_argument("--fdi-min", type=float, default=None)

    sp = sub.add_parser("train", help="build the dataset and train the classifier")
    sp.add_argument("--cube", required=True)
    sp.add_argument("--mask", required=True, help="ground-truth PGM mask")
    sp.add_argument("--out", required=True, help="model JSON path")
    sp.add_argument("--report", default=None,
                    help="training report JSON (default: <out>.report.json)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iters", type=int, default=mlp.TrainConfig.max_iters)
    sp.add_argument("--val-failures", type=int, default=mlp.TrainConfig.max_val_failures)
    sp.add_argument("--train-frac", type=float, default=dataset.SplitSpec.train_frac)
    sp.add_argument("--val-frac", type=float, default=dataset.SplitSpec.val_frac)

    sp = sub.add_parser("predict", help="apply a model to a cube")
    sp.add_argument("--model", required=True)
    sp.add_argument("--cube", required=True)
    sp.add_argument("--out", required=True, help="PGM mask path")
    sp.add_argument("--map-out", default=None, help="raw-output float raster path")
    sp.add_argument("--threshold", type=float, default=mlp.SCORE_THRESHOLD)

    sp = sub.add_parser("eval", help="confusion matrix of two masks")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--out", required=True, help="metrics JSON path")

    sp = sub.add_parser("make-synthetic", help="write the seeded synthetic scene")
    sp.add_argument("--out-cube", required=True)
    sp.add_argument("--out-mask", required=True)
    sp.add_argument("--rows", type=int, default=100)
    sp.add_argument("--cols", type=int, default=100)
    sp.add_argument("--plastic-frac", type=float, default=0.15)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _cmd_import(args) -> None:
    bands = tuple(raster_io.import_pgm_band(path, canonical_spec(bid)) for bid, path in args.band)
    stack = raster_io.BandStack(bands, args.extent_m)
    raster_io.save_stack(stack, args.out)
    log.info("wrote stack with %d band(s) to %s", len(stack.bands), args.out)


def _cmd_resample(args) -> None:
    aligned = resample.StackAlignment(raster_io.load_stack(args.manifest))
    resample.save_cube(aligned.blocks(), aligned.rows, aligned.cols, aligned.band_ids, args.out)
    log.info("aligned %d band(s) to %dx%d", len(aligned.band_ids), aligned.rows, aligned.cols)


def _cmd_index(args) -> None:
    combined = args.method == "combined"
    if combined and (args.threshold is not None or args.mask_out is not None):
        raise ValueError("--threshold and --mask-out apply to ndvi, fdi and b8b9, not combined")
    if not combined and (args.ndvi_max is not None or args.fdi_min is not None):
        raise ValueError(f"--ndvi-max and --fdi-min apply to combined, not {args.method}")
    if args.mask_out is not None and args.threshold is None:
        raise ValueError("--mask-out needs --threshold")
    if combined and (args.ndvi_max is None or args.fdi_min is None):
        raise ValueError("combined method needs --ndvi-max and --fdi-min")
    indexes.check_threshold(*[t for t in (args.threshold, args.ndvi_max, args.fdi_min)
                              if t is not None])
    header = resample.read_cube_header(args.cube)
    if combined:
        raster, mask = None, args.out
        index = functools.partial(indexes.combined_index_mask,
                                  ndvi_max=args.ndvi_max, fdi_min=args.fdi_min)
    else:
        index = {"ndvi": indexes.ndvi, "fdi": indexes.fdi, "b8b9": indexes.b8b9_index}[args.method]
        raster = args.out
        mask = None if args.threshold is None else args.mask_out or args.out + ".mask.pgm"
    raster_io.write_map(resample.map_cube_rows(header, index), header.rows, header.cols,
                        raster, mask, args.threshold)


def _cmd_train(args) -> None:
    # bad split or stopping flags fail before any read
    spec = dataset.SplitSpec(args.train_frac, args.val_frac, args.seed)
    cfg = mlp.TrainConfig(max_iters=args.max_iters, max_val_failures=args.val_failures)
    header = resample.read_cube_header(args.cube)
    labels = raster_io.read_mask(args.mask)
    dataset.check_grid(header, labels)  # before balance: a wrong mask fails as a mismatch
    log.info("dataset: %s", mlp.dataset_report(labels))

    pixels, ends = dataset.split(dataset.balance(labels, args.seed), spec)
    x, y = dataset.extract_samples(header, labels, pixels)
    del pixels  # not held while the network trains
    norm = dataset.fit_normalizer(x[:ends[0]])
    dataset.normalize_set(norm, x)
    train_set, val_set, (test_x, test_y) = zip(np.split(x, ends), np.split(y, ends))

    model = mlp.init_model(args.seed, norm, header.band_ids)
    model, report = mlp.train(model, train_set, val_set, cfg)

    test_pred = mlp.forward_batch(model.weights, test_x) >= mlp.SCORE_THRESHOLD
    test_metrics = evaluation.metrics(evaluation.confusion(test_pred, test_y))
    log.info("test error rate: %.3f%%", 100.0 * test_metrics["error_rate"])

    mlp.save_model(model, args.out)
    raster_io.write_json(args.report or args.out + ".report.json", {
        "dataset": mlp.dataset_report(y),
        "split": {"train": len(train_set[1]), "val": len(val_set[1]), "test": len(test_y)},
        "training": report,
        "test": test_metrics,
    })


def _cmd_predict(args) -> None:
    indexes.check_threshold(args.threshold)
    header = resample.read_cube_header(args.cube)
    model = mlp.load_model(args.model)
    raster_io.write_map(
        resample.map_cube_rows(header, functools.partial(mlp.predict_map, model)),
        header.rows, header.cols, args.map_out or None, args.out, args.threshold)


def _cmd_eval(args) -> None:
    counts = evaluation.confusion_of_masks(args.pred, args.truth)
    log.info("\n%s", evaluation.format_report(counts))
    raster_io.write_json(args.out, evaluation.metrics(counts))


def _cmd_make_synthetic(args) -> None:
    values, mask = synthetic.make_scene(args.rows, args.cols, args.plastic_frac, args.seed)
    resample.save_cube(values, args.rows, args.cols, CANONICAL_ORDER, args.out_cube)
    raster_io.write_mask(mask, args.out_mask)


_COMMANDS = {
    "import": _cmd_import,
    "resample": _cmd_resample,
    "index": _cmd_index,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "make-synthetic": _cmd_make_synthetic,
}


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        with raster_io.commit():  # all of the command's outputs, or none
            _COMMANDS[args.subcommand](args)
    except (ValueError, OSError, ArithmeticError, KeyError, MemoryError) as e:
        print(f"litterscan {args.subcommand}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
