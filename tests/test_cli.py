import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_band, read_float_raster
import litterscan
from litterscan.bands import CANONICAL_ORDER
from litterscan import dataset
from litterscan.cli import main
from litterscan.dataset import Normalizer
from litterscan.mlp import init_model, save_model
from litterscan.raster_io import BandStack, read_json_object, read_mask, save_stack, write_mask
from litterscan.indexes import plane
from litterscan.resample import load_cube


def run(*argv):
    return main(list(argv))


@pytest.fixture
def scene(tmp_path):
    cube = tmp_path / "scene.cube.json"
    mask = tmp_path / "scene.mask.pgm"
    assert run("make-synthetic", "--out-cube", str(cube), "--out-mask", str(mask),
               "--rows", "40", "--cols", "40", "--seed", "0") == 0
    return cube, mask


def test_make_synthetic_writes_scene(scene):
    cube_path, mask_path = scene
    band_ids, values = load_cube(cube_path)
    mask = read_mask(mask_path)
    assert band_ids == CANONICAL_ORDER and values.shape == (40, 40, 13)
    assert mask.sum() == round(0.15 * 1600)


def test_index_b8b9_matches_oracle(tmp_path, scene):
    cube_path, _ = scene
    out = tmp_path / "b8b9.f32"
    assert run("index", "--cube", str(cube_path), "--method", "b8b9",
               "--out", str(out)) == 0
    band_ids, values = load_cube(cube_path)
    got = read_float_raster(out)
    b8, b9 = plane(band_ids, values, "B8"), plane(band_ids, values, "B9")
    expect = ((b8 - b9) / (b8 + b9)).astype(np.float32).astype(np.float64)
    assert np.array_equal(got, expect)


def test_index_threshold_mask(tmp_path, scene):
    cube_path, _ = scene
    out = tmp_path / "ndvi.f32"
    mask_out = tmp_path / "ndvi.pgm"
    assert run("index", "--cube", str(cube_path), "--method", "ndvi",
               "--out", str(out), "--threshold", "0.0",
               "--mask-out", str(mask_out)) == 0
    vals = read_float_raster(out)
    mask = read_mask(mask_out)
    assert np.array_equal(mask, vals >= 0.0)


def test_index_combined(tmp_path, scene):
    cube_path, _ = scene
    out = tmp_path / "combined.pgm"
    assert run("index", "--cube", str(cube_path), "--method", "combined",
               "--out", str(out), "--ndvi-max", "0.5", "--fdi-min", "100.0") == 0
    assert read_mask(out).shape == (40, 40)


def test_index_combined_missing_flags(tmp_path, scene, capsys):
    cube_path, _ = scene
    out = tmp_path / "combined.pgm"
    assert run("index", "--cube", str(cube_path), "--method", "combined",
               "--out", str(out)) == 1
    assert not out.exists()  # no partial output
    assert "ndvi-max" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--ndvi-max", "nan", "--fdi-min", "0"],
                                   ["--ndvi-max", "0.2", "--fdi-min", "inf"]])
def test_index_checks_combined_thresholds_before_reading_the_cube(tmp_path, capsys, flags):
    out = tmp_path / "combined.pgm"
    assert run("index", "--cube", str(tmp_path / "missing.json"), "--method", "combined",
               "--out", str(out), *flags) == 1
    assert capsys.readouterr().err == "litterscan index: threshold must be finite\n"
    assert not out.exists()


def test_train_predict_eval_flow(tmp_path, scene):
    cube_path, mask_path = scene
    model = tmp_path / "model.json"
    assert run("train", "--cube", str(cube_path), "--mask", str(mask_path),
               "--out", str(model), "--seed", "0", "--max-iters", "200") == 0
    report = json.loads((tmp_path / "model.json.report.json").read_text())
    assert report["test"]["error_rate"] <= 0.05
    assert report["dataset"]["n_positive"] == report["dataset"]["n_negative"]

    pred = tmp_path / "pred.pgm"
    omap = tmp_path / "out.f32"
    assert run("predict", "--model", str(model), "--cube", str(cube_path),
               "--out", str(pred), "--map-out", str(omap)) == 0
    vals = read_float_raster(omap)
    assert ((vals > 0) & (vals < 1)).all()

    rep = tmp_path / "eval.json"
    assert run("eval", "--pred", str(pred), "--truth", str(mask_path),
               "--out", str(rep)) == 0
    result = json.loads(rep.read_text())
    assert result["accuracy"] > 0.95


def test_eval_identical_masks(tmp_path, scene):
    _, mask_path = scene
    rep = tmp_path / "eval.json"
    assert run("eval", "--pred", str(mask_path), "--truth", str(mask_path),
               "--out", str(rep)) == 0
    assert json.loads(rep.read_text())["accuracy"] == 1.0


def test_eval_of_empty_masks_writes_null_rates(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="litterscan")
    zeros = tmp_path / "z.pgm"
    write_mask(np.zeros((4, 4), dtype=bool), zeros)
    out = tmp_path / "metrics.json"
    assert run("eval", "--pred", str(zeros), "--truth", str(zeros), "--out", str(out)) == 0
    metrics = read_json_object(out, "metrics")
    assert metrics["recall"] == [1.0, None] and metrics["precision"] == [1.0, None]
    assert "n/a" in caplog.text


def test_train_reruns_are_byte_identical(tmp_path, scene):
    cube_path, mask_path = scene
    blobs = []
    for name in ("a", "b"):
        model = tmp_path / f"{name}.json"
        assert run("train", "--cube", str(cube_path), "--mask", str(mask_path),
                   "--out", str(model), "--seed", "7", "--max-iters", "100") == 0
        blobs.append(model.read_bytes())
    assert blobs[0] == blobs[1]


def test_train_trace_at_debug_leaves_the_artifacts_unchanged(tmp_path, scene):
    """At LITTERSCAN_LOG=debug, train logs one stderr line per accepted step;
    the model and report bytes are those of a run at error level, which logs
    nothing."""
    cube_path, mask_path = scene
    src = str(Path(litterscan.__file__).resolve().parent.parent)
    outputs = {}
    for level in ("error", "debug"):
        model = tmp_path / level / "model.json"
        model.parent.mkdir()
        env = {**os.environ, "LITTERSCAN_LOG": level,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        p = subprocess.run([sys.executable, "-m", "litterscan.cli", "train", "--cube",
                            str(cube_path), "--mask", str(mask_path), "--out", str(model),
                            "--max-iters", "30"],
                           env=env, capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        outputs[level] = (model.read_bytes(), (tmp_path / level / "model.json.report.json")
                          .read_bytes(), p.stderr)
    assert outputs["debug"][:2] == outputs["error"][:2]
    assert outputs["error"][2] == ""
    history = json.loads(outputs["debug"][1])["training"]["loss_history"]
    steps = [line for line in outputs["debug"][2].splitlines()
             if line.startswith("DEBUG litterscan.mlp: train step ")]
    assert len(steps) == len(history) - 1 > 0
    for (k, _, _), line in zip(history[1:], steps):
        assert re.fullmatch(rf"DEBUG litterscan.mlp: train step {k}: alpha \S+, probes \d+, "
                            r"restart (True|False), gradient norm \S+", line), line


@pytest.mark.parametrize("train_frac, val_frac, message", [
    ("0.5", "0.5", "train and validation fractions must sum to less than 1"),
    ("0.9", "0.2", "train and validation fractions must sum to less than 1"),
    ("0", "0.15", "split fractions must be in (0, 1)"),
    ("0.7", "nan", "split fractions must be in (0, 1)"),
    ("0.7", "0.001", "train and validation sets must be nonempty: 480 samples split into "
                     "336 and 0"),
])
def test_train_refuses_a_bad_split_before_extracting_samples(tmp_path, scene, monkeypatch,
                                                             capsys, train_frac, val_frac,
                                                             message):
    def no_extract(*args):
        raise AssertionError("samples were extracted for a bad split")

    monkeypatch.setattr(dataset, "extract_samples", no_extract)
    cube_path, mask_path = scene
    model = tmp_path / "model.json"
    assert run("train", "--cube", str(cube_path), "--mask", str(mask_path),
               "--out", str(model), "--train-frac", train_frac, "--val-frac", val_frac) == 1
    assert capsys.readouterr().err == f"litterscan train: {message}\n"
    assert not model.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-iters", "-1", "max_iters must be nonnegative"),
    ("--val-failures", "0", "max_val_failures must be positive"),
])
def test_train_refuses_a_bad_stopping_flag_before_extracting_samples(tmp_path, scene, monkeypatch,
                                                                     capsys, flag, value, message):
    def no_extract(*args):
        raise AssertionError("samples were extracted for a bad stopping flag")

    monkeypatch.setattr(dataset, "extract_samples", no_extract)
    cube_path, mask_path = scene
    model = tmp_path / "model.json"
    assert run("train", "--cube", str(cube_path), "--mask", str(mask_path),
               "--out", str(model), flag, value) == 1
    assert capsys.readouterr().err == f"litterscan train: {message}\n"
    assert not model.exists()


def test_import_and_resample(tmp_path):
    # two PGM bands at different resolutions -> stack -> aligned cube
    rng = np.random.default_rng(0)
    b8 = rng.integers(0, 4096, size=(4, 4)).astype(">u2")
    b11 = np.full((2, 2), 500, dtype=">u2")
    p8 = tmp_path / "b8.pgm"
    p11 = tmp_path / "b11.pgm"
    p8.write_bytes(b"P5\n4 4\n65535\n" + b8.tobytes())
    p11.write_bytes(b"P5\n2 2\n65535\n" + b11.tobytes())

    manifest = tmp_path / "stack.json"
    assert run("import", "--band", f"B8={p8}", "--band", f"B11={p11}",
               "--extent-m", "40", "--out", str(manifest)) == 0

    cube_path = tmp_path / "cube.json"
    assert run("resample", "--manifest", str(manifest), "--out", str(cube_path)) == 0
    band_ids, values = load_cube(cube_path)
    assert band_ids == ("B8", "B11") and values.shape == (4, 4, 2)
    assert np.abs(plane(band_ids, values, "B11") - 500.0).max() < 1e-6


def test_unknown_band_id_fails(tmp_path, capsys):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P5\n1 1\n255\n\x00")
    assert run("import", "--band", f"B99={p}", "--extent-m", "10",
               "--out", str(tmp_path / "m.json")) == 1
    assert "unknown band id" in capsys.readouterr().err


def test_synthetic_rerun_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        cube = tmp_path / f"{name}.cube.json"
        mask = tmp_path / f"{name}.pgm"
        assert run("make-synthetic", "--out-cube", str(cube),
                   "--out-mask", str(mask), "--rows", "20", "--cols", "20",
                   "--seed", "3") == 0
        paths.append((tmp_path / f"{name}.cube.f32").read_bytes())
    assert paths[0] == paths[1]


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(0, Normalizer(np.zeros(13), np.ones(13)), CANONICAL_ORDER),
               path)
    return path


MALFORMED_MODELS = {
    "not_an_object": lambda doc: [1, 2],
    "schema_version_99": lambda doc: {**doc, "schema_version": 99},
    "schema_version_missing": lambda doc: {k: v for k, v in doc.items()
                                           if k != "schema_version"},
    # equal to 1 and [13, 10, 1] in Python, but not the JSON that save_model writes
    "schema_version_true": lambda doc: {**doc, "schema_version": True},
    "schema_version_float": lambda doc: {**doc, "schema_version": 1.0},
    "shape_float_and_bool": lambda doc: {**doc, "shape": [13.0, 10, True]},
    "normalizer_list": lambda doc: {**doc, "normalizer": [1]},
    "activations_relu": lambda doc: {**doc, "activations": ["relu", "logistic"]},
    "weights_object": lambda doc: {**doc, "weights_output": {"w": 1}},
    "band_order_number": lambda doc: {**doc, "band_order": 13},
    "band_order_duplicate": lambda doc: {**doc, "band_order": ["B1"] * 13},
    # 151 numbers in all, but the hidden matrix written as 14x10
    "weights_hidden_transposed": lambda doc: {
        **doc, "weights_hidden": [list(col) for col in zip(*doc["weights_hidden"])]},
    "weights_strings": lambda doc: {**doc, "weights_output": [str(w) for w in
                                                              doc["weights_output"]]},
    "normalizer_bools": lambda doc: {**doc, "normalizer": {**doc["normalizer"],
                                                           "min": [False] * 13}},
    "normalizer_infinity": lambda doc: {**doc, "normalizer": {**doc["normalizer"],
                                                              "max": [float("inf")] * 13}},
    "normalizer_span_overflow": lambda doc: {**doc, "normalizer": {"min": [-1e308] * 13,
                                                                   "max": [1e308] * 13}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_predict_rejects_malformed_model(tmp_path, scene, model_path, capsys, recwarn, case):
    cube_path, _ = scene
    doc = MALFORMED_MODELS[case](json.loads(model_path.read_text()))
    model_path.write_text(json.dumps(doc))
    pred = tmp_path / "pred.pgm"
    assert run("predict", "--model", str(model_path), "--cube", str(cube_path),
               "--out", str(pred)) == 1
    err = capsys.readouterr().err
    assert err.startswith("litterscan predict: ")
    assert err.count("\n") == 1
    assert not pred.exists()
    assert not recwarn.list  # warnings bypass capsys


@pytest.mark.parametrize("model", [
    {"weights_hidden": [[1e308] * 14] * 10},  # W * 2 overflows
    {"normalizer": {"min": [0.0] * 13, "max": [1e-308] * 13}},  # 2 / (max - min) overflows
])
def test_predict_rejects_a_model_whose_folded_first_layer_overflows(tmp_path, scene, model_path,
                                                                     capsys, model):
    """`predict` folds the normalizer into the first layer; a folded weight
    that is not finite in float64 fails the command, naming the model."""
    cube_path, _ = scene
    model_path.write_text(json.dumps({**json.loads(model_path.read_text()), **model}))
    out = tmp_path / "out"
    out.mkdir()
    assert run("predict", "--model", str(model_path), "--cube", str(cube_path),
               "--out", str(out / "pred.pgm"), "--map-out", str(out / "scores.f32")) == 1
    assert capsys.readouterr().err == ("litterscan predict: model weights overflow when its "
                                       "normalizer is folded into the first layer\n")
    assert list(out.iterdir()) == []


def test_predict_rejects_nan_threshold(tmp_path, scene, model_path, capsys):
    cube_path, _ = scene
    pred = tmp_path / "pred.pgm"
    assert run("predict", "--model", str(model_path), "--cube", str(cube_path),
               "--out", str(pred), "--threshold", "nan") == 1
    assert capsys.readouterr().err == "litterscan predict: threshold must be finite\n"
    assert not pred.exists()


def assert_one_line_failure(capsys, cmd, out, mentions=""):
    err = capsys.readouterr().err
    assert err.startswith(f"litterscan {cmd}: ")
    assert err.count("\n") == 1
    assert mentions in err
    assert not out.exists()


MALFORMED_CUBES = {
    "bands_number": lambda doc: {**doc, "bands": 5},
    "not_an_object": lambda doc: [doc],
    "deeply_nested": lambda doc: "[" * 100_000,
    "negative_dims": lambda doc: {**doc, "rows": -doc["rows"], "cols": -doc["cols"]},
    "dtype_f64le": lambda doc: {**doc, "dtype": "f64le"},
    "rows_string": lambda doc: {**doc, "rows": str(doc["rows"])},
    "rows_float": lambda doc: {**doc, "rows": float(doc["rows"])},
    "bands_duplicate": lambda doc: {**doc, "bands": ["B4", *doc["bands"][1:]]},
    "bands_unknown": lambda doc: {**doc, "bands": ["X1", *doc["bands"][1:]]},
    # finite f32 bands whose FDI, about 5.6e38, is beyond float32's range
    "fdi_overflows_f32": lambda doc: {**doc, "rows": 2, "cols": 3, "file": "overflow.f32"},
}


def write_overflow_payload(path):
    """The 2x3 payload of "fdi_overflows_f32": B8 = B6 = 3e38, every other band 0."""
    values = np.zeros((2, 3, len(CANONICAL_ORDER)), dtype="<f4")
    values[:, :, [CANONICAL_ORDER.index("B6"), CANONICAL_ORDER.index("B8")]] = 3e38
    values.tofile(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_CUBES))
def test_index_rejects_malformed_cube(tmp_path, scene, capsys, case):
    cube_path, _ = scene
    write_overflow_payload(tmp_path / "overflow.f32")
    doc = MALFORMED_CUBES[case](json.loads(cube_path.read_text()))
    cube_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "fdi.f32"
    assert run("index", "--cube", str(cube_path), "--method", "fdi",
               "--out", str(out)) == 1
    mentions = "finite in float32" if case == "fdi_overflows_f32" else "cube manifest"
    assert_one_line_failure(capsys, "index", out, mentions)
    assert not (tmp_path / "fdi.f32.json").exists()


INDEX_BAD_FLAGS = {
    "combined_threshold": ["--method", "combined", "--ndvi-max", "0.5", "--fdi-min", "100",
                           "--threshold", "0.5"],
    "combined_mask_out": ["--method", "combined", "--ndvi-max", "0.5", "--fdi-min", "100",
                          "--mask-out", "m.pgm"],
    "mask_out_without_threshold": ["--method", "ndvi", "--mask-out", "m.pgm"],
    "fdi_ndvi_max": ["--method", "fdi", "--ndvi-max", "0.5"],
    "ndvi_fdi_min": ["--method", "ndvi", "--threshold", "0.1", "--fdi-min", "100"],
    "threshold_nan": ["--method", "fdi", "--threshold", "nan", "--mask-out", "m.pgm"],
}


@pytest.mark.parametrize("case", sorted(INDEX_BAD_FLAGS))
def test_index_rejects_bad_flags(tmp_path, scene, capsys, case):
    cube_path, _ = scene
    out, mask = tmp_path / "out.f32", tmp_path / "m.pgm"
    flags = [str(mask) if flag == "m.pgm" else flag for flag in INDEX_BAD_FLAGS[case]]
    assert run("index", "--cube", str(cube_path), "--out", str(out), *flags) == 1
    assert_one_line_failure(capsys, "index", out)
    assert not mask.exists()


MALFORMED_STACKS = {
    "band_rows_null": lambda doc: {**doc, "bands": [{**doc["bands"][0], "rows": None}]},
    "bands_number": lambda doc: {**doc, "bands": 5},
    "band_not_an_object": lambda doc: {**doc, "bands": [["B8"]]},
    "extent_nan": lambda doc: {**doc, "extent_m": float("nan")},
    "extent_string": lambda doc: {**doc, "extent_m": "40"},
    "wavelength_bool": lambda doc: {**doc, "bands": [{**doc["bands"][0],
                                                      "wavelength_nm": True}]},
    "gsd_string": lambda doc: {**doc, "bands": [{**doc["bands"][0], "native_gsd_m": "10"}]},
    "wavelength_infinity": lambda doc: {**doc, "bands": [{**doc["bands"][0],
                                                          "wavelength_nm": float("inf")}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STACKS))
def test_resample_rejects_malformed_stack(tmp_path, capsys, case):
    manifest = tmp_path / "stack.json"
    save_stack(BandStack((make_band("B8", np.ones((4, 4))),), 40.0), manifest)
    doc = MALFORMED_STACKS[case](json.loads(manifest.read_text()))
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "cube.json"
    assert run("resample", "--manifest", str(manifest), "--out", str(out)) == 1
    assert_one_line_failure(capsys, "resample", out)


@pytest.mark.parametrize("cmd", ["make-synthetic", "resample"])
def test_cube_manifest_named_like_its_payload_is_rejected(tmp_path, capsys, cmd):
    manifest = tmp_path / "stack.json"
    save_stack(BandStack((make_band("B8", np.ones((4, 4))),), 40.0), manifest)
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "cube.f32"
    argv = {"make-synthetic": ["--out-cube", str(out), "--out-mask", str(tmp_path / "m.pgm"),
                               "--rows", "4", "--cols", "4"],
            "resample": ["--manifest", str(manifest), "--out", str(out)]}[cmd]
    assert run(cmd, *argv) == 1
    assert_one_line_failure(capsys, cmd, out, "would be written twice")
    assert sorted(tmp_path.iterdir()) == before


MALFORMED_PGMS = {
    "magic_only": b"P5\n",
    "comment_without_newline": b"P5\n# no newline",
    "negative_width": b"P5\n-1 1\n255\n\x00",
    "header_without_payload": b"P5\n2 2\n255",
    "odd_length_16bit": b"P5\n1 1\n65535\n\x00",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PGMS))
def test_import_rejects_malformed_pgm(tmp_path, capsys, case):
    pgm = tmp_path / "b8.pgm"
    pgm.write_bytes(MALFORMED_PGMS[case])
    out = tmp_path / "stack.json"
    assert run("import", "--band", f"B8={pgm}", "--extent-m", "10",
               "--out", str(out)) == 1
    assert_one_line_failure(capsys, "import", out, mentions="PGM")


def tree_bytes(directory):
    return {p.name: p.read_bytes() if p.is_file() else None for p in sorted(directory.iterdir())}


# Each case: argv under tmp_path (holding the 40² scene, model.json, a stack
# manifest saved as both stack.json and stack.f32, a 6² PGM s_B2.u16, and a
# stack manifest band.json whose band payload is cube.f32) whose outputs
# clash with an input or with each other.
PATH_CLASHES = {
    "predict_map_out_is_cube_payload": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "p.pgm", "--map-out", "scene.cube.f32"], "would overwrite an input"),
    "predict_out_is_cube_manifest": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "scene.cube.json"], "would overwrite an input"),
    "predict_map_out_is_model": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "p.pgm", "--map-out", "model.json"], "would overwrite an input"),
    "predict_map_out_links_to_payload": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "p.pgm", "--map-out", "link.f32"], "would overwrite an input"),
    "index_out_is_cube_payload": (
        ["index", "--cube", "scene.cube.json", "--method", "fdi",
         "--out", "scene.cube.f32"], "would overwrite an input"),
    "index_sidecar_is_cube_manifest": (
        ["index", "--cube", "scene.cube.json", "--method", "ndvi",
         "--out", "scene.cube"], "would overwrite an input"),
    "index_mask_out_is_cube_manifest": (
        ["index", "--cube", "scene.cube.json", "--method", "fdi", "--out", "f.f32",
         "--threshold", "0", "--mask-out", "scene.cube.json"], "would overwrite an input"),
    "resample_out_is_manifest": (
        ["resample", "--manifest", "stack.json", "--out", "stack.json"],
        "would overwrite an input"),
    "resample_payload_is_manifest": (
        ["resample", "--manifest", "stack.f32", "--out", "stack.json"],
        "would overwrite an input"),
    "resample_out_is_band_payload": (
        ["resample", "--manifest", "band.json", "--out", "cube.json"],
        "would overwrite an input"),
    "import_payload_is_input": (
        ["import", "--band", "B2=s_B2.u16", "--extent-m", "60", "--out", "s.json"],
        "would overwrite an input"),
    "predict_out_twice": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "x", "--map-out", "x"], "would be written twice"),
    "predict_out_is_sidecar": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "x.json", "--map-out", "x"], "would be written twice"),
    "index_mask_out_is_out": (
        ["index", "--cube", "scene.cube.json", "--method", "fdi", "--out", "y.f32",
         "--threshold", "0", "--mask-out", "y.f32"], "would be written twice"),
    "index_mask_out_is_sidecar": (
        ["index", "--cube", "scene.cube.json", "--method", "fdi", "--out", "y.f32",
         "--threshold", "0", "--mask-out", "y.f32.json"], "would be written twice"),
    "train_report_is_model": (
        ["train", "--cube", "scene.cube.json", "--mask", "scene.mask.pgm",
         "--out", "m.json", "--report", "m.json"], "would be written twice"),
    "make_synthetic_mask_is_cube": (
        ["make-synthetic", "--out-cube", "s.json", "--out-mask", "s.f32"],
        "would be written twice"),
    "eval_out_is_truth": (
        ["eval", "--pred", "scene.mask.pgm", "--truth", "scene.mask.pgm",
         "--out", "scene.mask.pgm"], "would overwrite an input"),
}


@pytest.mark.parametrize("case", sorted(PATH_CLASHES))
def test_output_path_clash_is_rejected(tmp_path, scene, model_path, monkeypatch, capsys,
                                       case):
    for name in ("stack.json", "stack.f32"):
        save_stack(BandStack((make_band("B8", np.ones((4, 4))),), 40.0), tmp_path / name)
    write_mask(np.eye(6, dtype=bool), tmp_path / "s_B2.u16")
    save_stack(BandStack((make_band("B8", np.ones((4, 4))),), 40.0), tmp_path / "band.json")
    (tmp_path / "band_B8.u16").rename(tmp_path / "cube.f32")
    stack = json.loads((tmp_path / "band.json").read_text())
    stack["bands"][0]["file"] = "cube.f32"
    (tmp_path / "band.json").write_text(json.dumps(stack))
    (tmp_path / "link.f32").symlink_to(tmp_path / "scene.cube.f32")
    monkeypatch.chdir(tmp_path)
    before = tree_bytes(tmp_path)
    argv, mentions = PATH_CLASHES[case]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"litterscan {argv[0]}: output ") and err.count("\n") == 1, err
    assert mentions in err
    assert tree_bytes(tmp_path) == before


# Each case: argv under tmp_path (the 40² scene, model.json and a stack
# manifest stack.json), and the output that cannot be written: a path in a
# missing directory, or a directory. The command's other outputs are staged,
# or renamed into place, first.
UNWRITABLE_OUTPUTS = {
    "predict_map_out_in_missing_dir": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "p.pgm", "--map-out", "missing/s.f32"], "missing/s.f32"),
    "predict_out_in_missing_dir": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "missing/p.pgm", "--map-out", "s.f32"], "missing/p.pgm"),
    "predict_out_is_a_directory": (
        ["predict", "--model", "model.json", "--cube", "scene.cube.json",
         "--out", "adir", "--map-out", "s.f32"], "adir"),
    "index_mask_out_in_missing_dir": (
        ["index", "--cube", "scene.cube.json", "--method", "fdi", "--out", "f.f32",
         "--threshold", "0", "--mask-out", "missing/f.pgm"], "missing/f.pgm"),
    "index_out_in_missing_dir": (
        ["index", "--cube", "scene.cube.json", "--method", "fdi", "--out", "missing/f.f32",
         "--threshold", "0", "--mask-out", "f.pgm"], "missing/f.f32"),
    "make_synthetic_out_mask_in_missing_dir": (
        ["make-synthetic", "--out-cube", "c.json", "--out-mask", "missing/m.pgm",
         "--rows", "4", "--cols", "4"], "missing/m.pgm"),
    "train_report_in_missing_dir": (
        ["train", "--cube", "scene.cube.json", "--mask", "scene.mask.pgm", "--out", "m.json",
         "--report", "missing/r.json", "--max-iters", "2"], "missing/r.json"),
    "import_out_is_a_directory": (
        ["import", "--band", "B2=scene.mask.pgm", "--extent-m", "400", "--out", "adir"], "adir"),
    "resample_out_is_a_directory": (
        ["resample", "--manifest", "stack.json", "--out", "adir"], "adir"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_leaves_no_file(tmp_path, scene, model_path, monkeypatch, capsys,
                                          case):
    (tmp_path / "adir").mkdir()
    save_stack(BandStack((make_band("B8", np.ones((4, 4))),), 40.0), tmp_path / "stack.json")
    monkeypatch.chdir(tmp_path)
    before = tree_bytes(tmp_path)
    argv, culprit = UNWRITABLE_OUTPUTS[case]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"litterscan {argv[0]}: ") and err.count("\n") == 1, err
    assert err.endswith(f": '{culprit}'\n"), err  # the output asked for, not a temp file
    assert tree_bytes(tmp_path) == before


def test_a_directory_output_keeps_the_outputs_of_an_earlier_run(tmp_path, scene, model_path,
                                                                monkeypatch, capsys):
    """The directory is refused before any output is staged or renamed, so
    the scores an earlier run left at --map-out keep their bytes."""
    monkeypatch.chdir(tmp_path)
    predict = ["predict", "--model", "model.json", "--cube", "scene.cube.json",
               "--map-out", "s.f32"]
    assert run(*predict, "--out", "p.pgm") == 0
    (tmp_path / "adir").mkdir()
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    assert run(*predict, "--out", "adir") == 1
    assert capsys.readouterr().err == "litterscan predict: [Errno 21] Is a directory: 'adir'\n"
    assert tree_bytes(tmp_path) == before
    assert {"s.f32", "s.f32.json"} <= before.keys()


def test_eval_rejects_masks_on_different_grids(tmp_path, capsys):
    pred, truth = tmp_path / "pred.pgm", tmp_path / "truth.pgm"
    write_mask(np.eye(8, 2, dtype=bool), pred)  # 8 rows, 2 columns
    write_mask(np.eye(4, dtype=bool), truth)
    out = tmp_path / "metrics.json"
    assert run("eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "litterscan eval: size mismatch: predicted 8x2, truth 4x4\n")
    assert not out.exists()
