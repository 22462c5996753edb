"""Property tests for every container reader: any input yields a valid object
or a ValueError, never another exception. At the command line, `predict` on
any model document and `eval` on any PGM exit 0, or exit 1 with one error
line and no output.

Documents are arbitrary bytes, arbitrary JSON values, or a valid document
whose fields are each kept, dropped or replaced by an arbitrary JSON value.
Payload file names stay valid: a missing file is an OSError by design.
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import SearchStrategy

from litterscan.bands import CANONICAL_ORDER
from litterscan.cli import main
from litterscan.mlp import MlpModel, load_model
from litterscan.raster_io import BandStack, load_stack, read_float_raster, read_mask
from litterscan.resample import AlignedCube, load_cube, save_cube

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
_DROP = object()


def mutated(template: dict, keep=("file",)) -> SearchStrategy:
    """`template` as it is, or with one field not in `keep` dropped or
    replaced; a field's value may itself be a strategy."""
    def apply(doc, key, value):
        if value is _DROP:
            doc.pop(key, None)
        elif key is not None:
            doc[key] = value
        return doc

    valid = st.fixed_dictionaries({k: v if isinstance(v, SearchStrategy) else st.just(v)
                                   for k, v in template.items()})
    keys = [k for k in template if k not in keep]
    return st.builds(apply, valid, st.sampled_from([None, *keys]), st.just(_DROP) | JSON_VALUES)


def documents(template: dict) -> SearchStrategy:
    return (mutated(template) | JSON_VALUES).map(lambda d: json.dumps(d).encode()) | st.binary(
        max_size=40)


def parses_or_rejects(read, path, valid_type):
    try:
        obj = read(path)
    except ValueError as e:
        assert str(e)
        return None
    assert isinstance(obj, valid_type)
    return obj


@FUZZ
@given(manifest=documents({"rows": 2, "cols": 3, "bands": ["B2", "B3"], "dtype": "f32le",
                           "file": "c.f32"}),
       payload=st.binary(max_size=64) | st.just(bytes(48)))
def test_cube_manifest_parses_or_rejects(tmp_path, manifest, payload):
    (tmp_path / "c.f32").write_bytes(payload)
    (tmp_path / "c.json").write_bytes(manifest)
    cube = parses_or_rejects(load_cube, tmp_path / "c.json", AlignedCube)
    if cube is not None:
        assert cube.values.shape == (cube.rows, cube.cols, len(cube.band_ids))


BAND = {"id": "B8", "wavelength_nm": 842, "native_gsd_m": 10, "rows": 2, "cols": 2,
        "file": "s_B8.u16", "dtype": "u16le"}


@FUZZ
@given(manifest=documents({"extent_m": 20.0, "bands": st.tuples(mutated(BAND)).map(list)}),
       payload=st.binary(max_size=12) | st.just(bytes(8)))
def test_stack_manifest_parses_or_rejects(tmp_path, manifest, payload):
    (tmp_path / "s_B8.u16").write_bytes(payload)
    (tmp_path / "s.json").write_bytes(manifest)
    parses_or_rejects(load_stack, tmp_path / "s.json", BandStack)


@FUZZ
@given(sidecar=documents({"rows": 2, "cols": 3}),
       payload=st.binary(max_size=32) | st.just(bytes(24)))
def test_float_raster_sidecar_parses_or_rejects(tmp_path, sidecar, payload):
    (tmp_path / "r.f32").write_bytes(payload)
    (tmp_path / "r.f32.json").write_bytes(sidecar)
    grid = parses_or_rejects(read_float_raster, tmp_path / "r.f32", np.ndarray)
    if grid is not None:
        assert grid.ndim == 2 and grid.size * 4 == len(payload)


PGM_HEADERS = (st.text(alphabet=" \n\t#0123456789+-x", max_size=16).map(str.encode)
               | st.builds("\n{} {}\n{}\n".format, st.integers(-1, 3), st.integers(-1, 3),
                           st.sampled_from([255, 65535, 7])).map(str.encode))


PGMS = st.binary(max_size=40) | st.builds(lambda head, body: b"P5" + head + body, PGM_HEADERS,
                                           st.binary(max_size=24))


@FUZZ
@given(raw=PGMS)
def test_pgm_parses_or_rejects(tmp_path, raw):
    (tmp_path / "m.pgm").write_bytes(raw)
    mask = parses_or_rejects(read_mask, tmp_path / "m.pgm", np.ndarray)
    if mask is not None:
        assert mask.ndim == 2 and mask.dtype == np.bool_


def assert_exits_0_or_fails_in_one_line(capsys, code, cmd, out, written):
    """`code` is 0 and stderr is empty with the files `written` in `out`, or
    `code` is 1 with one `litterscan <cmd>: ` line and nothing in `out`."""
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert sorted(p.name for p in out.iterdir()) == written
        for p in out.iterdir():
            p.unlink()
    else:
        assert code == 1
        assert err.startswith(f"litterscan {cmd}: ") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []


@FUZZ
@given(pred=PGMS, truth=PGMS | st.none())
def test_eval_exits_0_or_fails_in_one_line(tmp_path, capsys, pred, truth):
    (tmp_path / "pred.pgm").write_bytes(pred)
    (tmp_path / "truth.pgm").write_bytes(pred if truth is None else truth)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main(["eval", "--pred", str(tmp_path / "pred.pgm"),
                 "--truth", str(tmp_path / "truth.pgm"), "--out", str(out / "metrics.json")])
    assert_exits_0_or_fails_in_one_line(capsys, code, "eval", out, ["metrics.json"])


MODEL = {
    "schema_version": 1, "shape": [13, 10, 1], "activations": ["tanh", "logistic"],
    "weights_hidden": [[0.1] * 14] * 10, "weights_output": [0.1] * 11,
    "normalizer": {"min": [0.0] * 13, "max": [1.0] * 13}, "band_order": list(CANONICAL_ORDER),
}


@FUZZ
@given(raw=documents(MODEL))
def test_model_json_parses_or_rejects(tmp_path, raw):
    (tmp_path / "m.json").write_bytes(raw)
    parses_or_rejects(load_model, tmp_path / "m.json", MlpModel)


@FUZZ
@given(model=mutated({**MODEL, "weights_output": st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=11, max_size=11)}))
@example(model={**MODEL, "weights_output": [1.7e308] * 11})  # output sums overflow
@example(model={**MODEL, "weights_hidden": [[1e308] * 14] * 10})  # hidden sums overflow
def test_predict_exits_0_or_fails_in_one_line(tmp_path, capsys, model):
    cube = tmp_path / "c.json"
    if not cube.exists():
        values = np.linspace(0.0, 1.0, 2 * 3 * 13).reshape(2, 3, 13)
        save_cube(AlignedCube(CANONICAL_ORDER, values), cube)
    (tmp_path / "m.json").write_text(json.dumps(model))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main(["predict", "--model", str(tmp_path / "m.json"), "--cube", str(cube),
                 "--out", str(out / "p.pgm"), "--map-out", str(out / "s.f32")])
    assert_exits_0_or_fails_in_one_line(capsys, code, "predict", out,
                                        ["p.pgm", "s.f32", "s.f32.json"])
