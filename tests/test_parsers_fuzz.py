"""Property tests for every container reader: any input yields a valid object
or a ValueError, never another exception. At the command line, `predict` on
any model document or cube manifest, `index` on any cube manifest, `resample`
on any stack manifest, `eval` on any PGM, and each subcommand with drawn
values for its flags that name no path exit 0, or exit 1 with one error line
and no output.

Documents are arbitrary bytes, arbitrary JSON values, or a valid document
whose fields are each kept, dropped or replaced by an arbitrary JSON value.
Payload file names stay valid: a missing file is an OSError by design.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import SearchStrategy

from litterscan.bands import CANONICAL_ORDER
from litterscan.cli import main
from litterscan.dataset import Normalizer
from litterscan.mlp import MlpModel, init_model, load_model, save_model
from litterscan.raster_io import BandStack, load_stack, read_mask, write_mask
from litterscan.resample import load_cube, save_cube
from litterscan.synthetic import make_scene

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
    cube = parses_or_rejects(load_cube, tmp_path / "c.json", tuple)
    if cube is not None:
        band_ids, values = cube
        assert values.ndim == 3 and values.shape[2] == len(band_ids)
        assert values.dtype == np.float32


BAND = {"id": "B8", "wavelength_nm": 842, "native_gsd_m": 10, "rows": 2, "cols": 2,
        "file": "s_B8.u16", "dtype": "u16le"}


@FUZZ
@given(manifest=documents({"extent_m": 20.0, "bands": st.tuples(mutated(BAND)).map(list)}),
       payload=st.binary(max_size=12) | st.just(bytes(8)))
def test_stack_manifest_parses_or_rejects(tmp_path, manifest, payload):
    (tmp_path / "s_B8.u16").write_bytes(payload)
    (tmp_path / "s.json").write_bytes(manifest)
    parses_or_rejects(load_stack, tmp_path / "s.json", BandStack)


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
        save_cube(values, 2, 3, CANONICAL_ORDER, cube)
    (tmp_path / "m.json").write_text(json.dumps(model))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main(["predict", "--model", str(tmp_path / "m.json"), "--cube", str(cube),
                 "--out", str(out / "p.pgm"), "--map-out", str(out / "s.f32")])
    assert_exits_0_or_fails_in_one_line(capsys, code, "predict", out,
                                        ["p.pgm", "s.f32", "s.f32.json"])


CUBE = {"rows": 2, "cols": 3, "bands": list(CANONICAL_ORDER), "dtype": "f32le",
        "file": "c.f32"}


def write_cube(tmp_path, manifest: bytes):
    """`manifest` at c.json beside c.f32, the payload of a 2x3 cube of CANONICAL_ORDER."""
    values = np.linspace(0.0, 1.0, 2 * 3 * 13, dtype="<f4")
    (tmp_path / "c.f32").write_bytes(values.tobytes())
    (tmp_path / "c.json").write_bytes(manifest)
    return tmp_path / "c.json"


@FUZZ
@given(manifest=documents(CUBE))
def test_predict_on_any_cube_manifest_exits_0_or_fails_in_one_line(tmp_path, capsys, manifest):
    cube = write_cube(tmp_path, manifest)
    (tmp_path / "m.json").write_text(json.dumps(MODEL))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main(["predict", "--model", str(tmp_path / "m.json"), "--cube", str(cube),
                 "--out", str(out / "p.pgm"), "--map-out", str(out / "s.f32")])
    assert_exits_0_or_fails_in_one_line(capsys, code, "predict", out,
                                        ["p.pgm", "s.f32", "s.f32.json"])


# method -> (its output flags, the files they write)
INDEX_OUTPUTS = {
    "combined": (["--ndvi-max", "0.2", "--fdi-min", "0", "--out", "i.pgm"], ["i.pgm"]),
    **{method: (["--out", "i.f32", "--threshold", "0", "--mask-out", "i.pgm"],
                ["i.f32", "i.f32.json", "i.pgm"]) for method in ("b8b9", "fdi", "ndvi")},
}


@FUZZ
@given(manifest=documents(CUBE), method=st.sampled_from(sorted(INDEX_OUTPUTS)))
def test_index_on_any_cube_manifest_exits_0_or_fails_in_one_line(tmp_path, capsys, monkeypatch,
                                                                 manifest, method):
    cube = write_cube(tmp_path, manifest)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    monkeypatch.chdir(out)
    flags, written = INDEX_OUTPUTS[method]
    code = main(["index", "--cube", str(cube), "--method", method, *flags])
    assert_exits_0_or_fails_in_one_line(capsys, code, "index", out, written)


@FUZZ
@given(manifest=documents({"extent_m": 20.0, "bands": st.tuples(mutated(BAND)).map(list)}))
def test_resample_on_any_stack_manifest_exits_0_or_fails_in_one_line(tmp_path, capsys,
                                                                     manifest):
    (tmp_path / "s_B8.u16").write_bytes(bytes(range(8)))
    (tmp_path / "s.json").write_bytes(manifest)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main(["resample", "--manifest", str(tmp_path / "s.json"),
                 "--out", str(out / "c.json")])
    assert_exits_0_or_fails_in_one_line(capsys, code, "resample", out, ["c.f32", "c.json"])


# Values drawn for a flag: numbers, NaN and infinities, negatives, empty
# strings, text and integers too large for any count or seed.
FLAG_VALUES = (st.integers(-3, 100).map(str) | st.integers(2**63, 2**200).map(str)
               | st.floats().map(repr) | st.sampled_from(["nan", "inf", "-inf", "", "1e400"])
               | st.text(max_size=6))


def at_most(cap: int) -> SearchStrategy:
    """FLAG_VALUES without a value that argparse would read as an integer
    above `cap`, so that no draw asks for a huge scene or a long run."""
    def small(value):
        try:
            return int(value) <= cap
        except ValueError:
            return True
    return FLAG_VALUES.filter(small)


# subcommand -> (its argv, paths relative to the input directory; the values
# drawn for each flag that names no path; the files it writes in out/)
FLAG_DRAWS = {
    "make-synthetic": (
        ["--out-cube", "out/c.json", "--out-mask", "out/m.pgm", "--rows", "8", "--cols", "8"],
        {"--rows": at_most(64), "--cols": at_most(64), "--plastic-frac": FLAG_VALUES,
         "--seed": FLAG_VALUES}, ["c.f32", "c.json", "m.pgm"]),
    "import": (["--band", "B2=m.pgm", "--extent-m", "80", "--out", "out/s.json"],
               {"--extent-m": FLAG_VALUES}, ["s.json", "s_B2.u16"]),
    "train": (["--cube", "c.json", "--mask", "m.pgm", "--out", "out/model.json",
               "--max-iters", "2"],
              {"--seed": FLAG_VALUES, "--max-iters": at_most(3), "--val-failures": FLAG_VALUES,
               "--train-frac": FLAG_VALUES, "--val-frac": FLAG_VALUES},
              ["model.json", "model.json.report.json"]),
    "predict": (["--model", "model.json", "--cube", "c.json", "--out", "out/p.pgm"],
                {"--threshold": FLAG_VALUES}, ["p.pgm"]),
    "index": (["--cube", "c.json", "--method", "fdi", "--out", "out/i.f32", "--threshold", "0",
               "--mask-out", "out/i.pgm"],
              {"--method": st.sampled_from(["ndvi", "fdi", "b8b9", "combined"]) | FLAG_VALUES,
               "--threshold": FLAG_VALUES, "--ndvi-max": FLAG_VALUES, "--fdi-min": FLAG_VALUES},
              ["i.f32", "i.f32.json", "i.pgm"]),
}


def flag_draws(cmd: str) -> SearchStrategy:
    """argv of `cmd` with some of its flags given drawn values, each as
    `--flag=value` or as `--flag value`."""
    argv, draws, _ = FLAG_DRAWS[cmd]
    drawn = st.fixed_dictionaries({}, optional={flag: st.tuples(values, st.booleans())
                                                 for flag, values in draws.items()})

    def build(flags):
        given = dict(zip(argv[::2], argv[1::2]))
        given.update({flag: value for flag, (value, _) in flags.items()})
        joined = {flag for flag, (_, join) in flags.items() if join}
        return [cmd, *(arg for flag, value in given.items()
                       for arg in ([f"{flag}={value}"] if flag in joined else [flag, value]))]
    return drawn.map(build)


@pytest.mark.parametrize("cmd", sorted(FLAG_DRAWS))
def test_mutated_flags_exit_0_or_fail_in_one_line(tmp_path, capsys, monkeypatch, cmd):
    values, mask = make_scene(8, 8, 0.15, 0)
    save_cube(values, 8, 8, CANONICAL_ORDER, tmp_path / "c.json")
    write_mask(mask, tmp_path / "m.pgm")
    save_model(init_model(0, Normalizer(np.zeros(13), np.ones(13)), CANONICAL_ORDER),
               tmp_path / "model.json")
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(tmp_path)

    @FUZZ
    @given(argv=flag_draws(cmd))
    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's error, after its one line
            code = e.code
        assert_exits_0_or_fails_in_one_line(capsys, code, cmd, out, FLAG_DRAWS[cmd][2])

    run()
