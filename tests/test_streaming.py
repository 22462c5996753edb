"""`predict` and `index` read the cube in row blocks and write each block's
result as it is computed: each block reaches the index or the network as
the float32 rows read from the payload, the artifacts do not depend on the
block size or on the network's chunk size, a bad value in any band of the
last block leaves no output, no map larger than one block is built, and
memory stays below 1 B per pixel with one-row blocks.
`train` reads the same block stream and keeps only the pixels it chose from
the labels: its bytes do not depend on the block size, the chunk size or the
helper thread, a bad value in a pixel it does not keep still fails it, and
it holds one float64 copy of its samples, less than half the cube widened
to float64.
`eval` reads both masks' headers, refuses two grids before it reads a
payload, and counts the masks row block by row block.
`resample` builds and writes the cube in float32 row blocks: its bytes do not
depend on the block size and it holds the stack plus a few blocks;
`align_stack` holds one float32 cube. Both streams run through
`resample._in_order`: from a second block on, one helper thread computes
alternate blocks, the bytes are those of a serial run, a failure in either
thread leaves no file and no thread, a result is dropped once yielded, and
a one-block stream starts no thread. A cube block is read by the thread that
maps it, into one of two buffers the stream reuses, so a result that shares
a block's memory is refused, and a payload cut short after its header check
fails with one line."""

import inspect
import json
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import numpy as np
import pytest

from conftest import make_band, write_coast_pgms
from litterscan import dataset, evaluation, indexes, mlp, raster_io, resample
from litterscan.bands import CANONICAL_ORDER, canonical_spec
from litterscan.cli import main
from litterscan.dataset import Normalizer
from litterscan.mlp import init_model, save_model
from litterscan.raster_io import BandStack, write_mask

ROWS, COLS = 23, 17  # 391 px
# chunk sizes of the network's forward pass (`mlp._CHUNK_PIXELS`): single
# pixels, chunks that straddle rows, and one chunk per block
CHUNKS = (1, 7, ROWS * COLS)


def write_cube(directory, rows, cols, seed=0):
    """Seeded cube of f32 digital numbers in [100, 3100), written without
    going through float64."""
    rng = np.random.default_rng(seed)
    values = rng.random((rows, cols, len(CANONICAL_ORDER)), dtype=np.float32)
    values *= 3000.0
    values += 100.0
    values.astype("<f4").tofile(directory / "cube.f32")
    manifest = directory / "cube.json"
    manifest.write_text(json.dumps({"rows": rows, "cols": cols, "bands": list(CANONICAL_ORDER),
                                    "dtype": "f32le", "file": "cube.f32"}))
    return manifest


def write_model(directory):
    path = directory / "model.json"
    norm = Normalizer(np.full(13, 100.0), np.full(13, 3100.0))
    save_model(init_model(3, norm, CANONICAL_ORDER), path)
    return path


def commands(cube, model, out):
    """Every streamed subcommand, with all of its outputs under `out`."""
    index = ["index", "--cube", str(cube)]
    return [
        ["predict", "--model", str(model), "--cube", str(cube), "--out", str(out / "pred.pgm"),
         "--map-out", str(out / "scores.f32")],
        *[[*index, "--method", method, "--out", str(out / f"{method}.f32"),
           "--threshold", str(t), "--mask-out", str(out / f"{method}.pgm")]
          for method, t in (("ndvi", 0.0), ("fdi", 0.0), ("b8b9", 0.0))],
        [*index, "--method", "combined", "--ndvi-max", "0.1", "--fdi-min", "0",
         "--out", str(out / "combined.pgm")],
    ]


def artifacts(cube, model, out):
    out.mkdir()
    for argv in commands(cube, model, out):
        assert main(argv) == 0, argv
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("block_pixels", [
    5 * COLS,  # 5 rows per block, a ragged last block of 3
    COLS,      # single-row blocks
    1,         # a row wider than a block: still one row per block
])
def test_artifacts_do_not_depend_on_block_size(tmp_path, monkeypatch, block_pixels):
    """... nor on the chunk size of the network, which is patched to each of
    CHUNKS in turn: every score is the same computation on its pixel."""
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    whole = artifacts(cube, model, tmp_path / "whole")  # one block, one chunk
    assert len(whole) == 13  # 5 rasters with sidecars, 3 masks
    blocks, chunks = [], []
    read_rows, forward = resample._read_rows, mlp._forward

    def recording_read_rows(fd, header, r0, r1, buf):
        """Record each block's rows; the thread that maps a block reads it,
        so blocks are recorded in the order their reads start."""
        blocks.append((r0, r1))
        return read_rows(fd, header, r0, r1, buf)

    def recording_forward(wh, wo, x):
        chunks.append(len(x))
        return forward(wh, wo, x)

    monkeypatch.setattr(resample, "_read_rows", recording_read_rows)
    monkeypatch.setattr(mlp, "_forward", recording_forward)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    per_block = max(1, block_pixels // COLS)
    full, ragged = divmod(ROWS, per_block)
    per_command = [per_block] * full + ([ragged] if ragged else [])
    ranges = [(r0, r0 + n) for r0, n in zip(range(0, ROWS, per_block), per_command)]
    for chunk in CHUNKS:
        monkeypatch.setattr(mlp, "_CHUNK_PIXELS", chunk)
        blocks.clear()
        chunks.clear()
        assert artifacts(cube, model, tmp_path / f"chunk-{chunk}") == whole
        assert sorted(blocks) == sorted(ranges * len(commands(cube, model, tmp_path)))
        # each block's pixels in chunks of `chunk`, the last one ragged
        want = [n for rows in per_command
                for n in [chunk] * (rows * COLS // chunk) + [rows * COLS % chunk] if n]
        assert sorted(chunks) == sorted(want), chunk


def test_nonfinite_value_in_last_row_leaves_no_output(tmp_path, monkeypatch, capsys):
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    payload = np.fromfile(tmp_path / "cube.f32", dtype="<f4")
    payload[-1] = np.nan
    payload.tofile(tmp_path / "cube.f32")
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(cube, model, out):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"litterscan {argv[0]}: cube values must be finite\n"
    assert list(out.iterdir()) == []


def test_blocks_reach_fn_as_the_float32_rows_read(tmp_path, monkeypatch):
    """`map_cube_rows` hands fn the header's band ids and each block as read
    from the payload: float32, not a widened copy. A result may not share
    the block's memory, so fn returns a copy of it."""
    cube = write_cube(tmp_path, ROWS, COLS)
    payload = np.fromfile(tmp_path / "cube.f32", dtype="<f4").reshape(ROWS, COLS, -1)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", 5 * COLS)  # 5 blocks, two threads
    header = resample.read_cube_header(cube)
    seen = []

    def copy(band_ids, block):
        seen.append((band_ids, block.dtype))
        return block.copy()

    got = list(resample.map_cube_rows(header, copy))
    assert seen == [(CANONICAL_ORDER, np.float32)] * 5
    assert np.array_equal(np.concatenate(got), payload)


def test_no_map_larger_than_one_block_is_built(tmp_path, monkeypatch):
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)  # one-row blocks
    sizes = []
    write = raster_io._write

    def recording_write(files, values, **kwargs):
        """Record the size of every map block written, or of a whole map."""
        if isinstance(values, np.ndarray):
            sizes.append(values.size)
            return write(files, values, **kwargs)

        def recorded(blocks):
            for block in blocks:
                sizes.append(block.size)
                yield block
        return write(files, recorded(values), **kwargs)

    monkeypatch.setattr(raster_io, "_write", recording_write)
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(cube, model, out):
        sizes.clear()
        assert main(argv) == 0, argv
        assert sizes and max(sizes) == COLS, (argv, max(sizes))


def traced_peak(argv):
    """Peak bytes allocated through numpy and Python while `main(argv)` runs."""
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_steps_use_less_memory_than_the_cube_payload(tmp_path):
    rows = cols = 1000
    cube, model = write_cube(tmp_path, rows, cols), write_model(tmp_path)
    payload_bytes = rows * cols * len(CANONICAL_ORDER) * 4
    steps = {
        "predict": ["predict", "--model", str(model), "--cube", str(cube),
                    "--out", str(tmp_path / "pred.pgm"), "--map-out", str(tmp_path / "s.f32")],
        "index fdi": ["index", "--cube", str(cube), "--method", "fdi",
                      "--out", str(tmp_path / "fdi.f32"), "--threshold", "0",
                      "--mask-out", str(tmp_path / "fdi.pgm")],
        "index combined": ["index", "--cube", str(cube), "--method", "combined",
                           "--ndvi-max", "0.1", "--fdi-min", "0",
                           "--out", str(tmp_path / "combined.pgm")],
    }
    peaks = {name: traced_peak(argv) for name, argv in steps.items()}
    assert all(peak < payload_bytes for peak in peaks.values()), (
        {name: f"{peak / payload_bytes:.2f}x payload" for name, peak in peaks.items()})
    # measured 0.21x: two 65 536-pixel blocks in flight, each with its f32
    # rows and float64 scores, and one chunk's forward pass per thread; a
    # forward pass over a whole block measured 0.59x
    assert peaks["predict"] < 0.3 * payload_bytes, (
        f"predict: {peaks['predict'] / payload_bytes:.2f}x payload")


def test_map_steps_hold_less_than_a_byte_per_pixel(tmp_path, monkeypatch):
    rows = cols = 1000
    cube, model = write_cube(tmp_path, rows, cols), write_model(tmp_path)
    # one-row blocks, so the peak is what grows with the map, not a block
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", cols)
    steps = {
        "predict --map-out": ["predict", "--model", str(model), "--cube", str(cube),
                              "--out", str(tmp_path / "pred.pgm"),
                              "--map-out", str(tmp_path / "s.f32")],
        "index fdi --threshold": ["index", "--cube", str(cube), "--method", "fdi",
                                  "--out", str(tmp_path / "fdi.f32"), "--threshold", "0",
                                  "--mask-out", str(tmp_path / "fdi.pgm")],
        "index combined": ["index", "--cube", str(cube), "--method", "combined",
                           "--ndvi-max", "0.1", "--fdi-min", "0",
                           "--out", str(tmp_path / "combined.pgm")],
    }
    per_pixel = {name: traced_peak(argv) / (rows * cols) for name, argv in steps.items()}
    assert all(b < 1 for b in per_pixel.values()), per_pixel


def test_mask_steps_hold_a_few_bytes_per_mask_pixel(tmp_path, monkeypatch):
    rows = cols = 1000
    cube = write_cube(tmp_path, rows, cols)
    # one-row blocks, so the peak is the mask's and not a block's
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", cols)
    rng = np.random.default_rng(1)
    for name in ("a.pgm", "b.pgm"):
        write_mask(rng.random((rows, cols)) < 0.5, tmp_path / name)
    steps = {
        "eval": ["eval", "--pred", str(tmp_path / "a.pgm"), "--truth", str(tmp_path / "b.pgm"),
                 "--out", str(tmp_path / "eval.json")],
        "index combined": ["index", "--cube", str(cube), "--method", "combined",
                           "--ndvi-max", "0.1", "--fdi-min", "0",
                           "--out", str(tmp_path / "combined.pgm")],
    }
    per_pixel = {name: traced_peak(argv) / (rows * cols) for name, argv in steps.items()}
    assert per_pixel["index combined"] < 8, per_pixel
    # eval counts both masks per row block: measured 0.10 B/px, most of it the
    # command's own fixed 70 kB; reading both masks whole measured 3.06 B/px
    assert per_pixel["eval"] < 0.2, per_pixel


def test_align_and_save_hold_one_float32_cube(tmp_path, monkeypatch):
    size = 240  # 10 m grid; 20 m and 60 m bands are 120² and 40²
    rng = np.random.default_rng(4)
    bands = []
    for bid in CANONICAL_ORDER:
        n = int(size * 10 // canonical_spec(bid).native_gsd_m)
        bands.append(make_band(bid, rng.integers(0, 4096, (n, n))))
    stack = BandStack(tuple(bands), size * 10.0)
    # one-row write blocks, so the peak is the cube's and not a block's
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", size)
    tracemalloc.start()
    try:
        resample.save_cube(resample.align_stack(stack), size, size, stack.band_ids,
                           tmp_path / "cube.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cube_bytes = size * size * len(CANONICAL_ORDER) * 4
    # measured 1.70x, set inside align_stack: the float32 cube and the
    # float64 temporaries of resampling; a second full-size copy would pass 2x
    assert peak < 1.8 * cube_bytes, f"{peak / cube_bytes:.2f}x the float32 cube"


COARSE_IDS = tuple(b for b in CANONICAL_ORDER if canonical_spec(b).native_gsd_m > 10)
# name -> (finest grid size, band ids): a 10 m stack (scales 1, 2, 6) and a
# 20 m one (scales 1, 3)
RESAMPLE_STACKS = {"mixed": (42, CANONICAL_ORDER), "coarse": (27, COARSE_IDS)}


def resample_artifacts(directory, name):
    """{file: bytes} of `import -> resample` on one seeded coastline stack."""
    directory.mkdir()
    size, band_ids = RESAMPLE_STACKS[name]
    args = write_coast_pgms(directory, size, band_ids, seed=5)
    assert main(["import", *args, "--out", str(directory / "stack.json")]) == 0
    assert main(["resample", "--manifest", str(directory / "stack.json"),
                 "--out", str(directory / "cube.json")]) == 0
    return {name: (directory / name).read_bytes() for name in ("cube.f32", "cube.json")}


@pytest.mark.parametrize("block_rows, extra_pixels", [
    (0, 1),  # one pixel: a row wider than a block, so one row per block
    (1, 0),  # single-row blocks
    (2, 2),  # two rows: a ragged last block of one on the 27-row stack
    (4, 0),  # ragged last blocks on both stacks
])
@pytest.mark.parametrize("name", sorted(RESAMPLE_STACKS))
def test_resample_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, name,
                                                    block_rows, extra_pixels):
    size = RESAMPLE_STACKS[name][0]
    whole = resample_artifacts(tmp_path / "whole", name)
    blocks = []
    rows_block = resample.StackAlignment.rows_block

    def recording_rows_block(self, r0, r1):
        """Record each block by its first row, so the order of the calls does not matter."""
        blocks.append((r0, r1 - r0))
        return rows_block(self, r0, r1)

    block_pixels = block_rows * size + extra_pixels
    monkeypatch.setattr(resample.StackAlignment, "rows_block", recording_rows_block)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    assert resample_artifacts(tmp_path / "blocked", name) == whole
    per_block = max(1, block_rows)
    full, ragged = divmod(size, per_block)
    sizes = [per_block] * full + ([ragged] if ragged else [])
    assert sorted(blocks) == [(i * per_block, n) for i, n in enumerate(sizes)]


def test_resample_holds_less_than_half_the_cube_payload(tmp_path):
    size = 1200  # 10 m grid
    rng = np.random.default_rng(6)
    bands = []
    for bid in CANONICAL_ORDER:
        n = int(size * 10 // canonical_spec(bid).native_gsd_m)
        bands.append(make_band(bid, rng.integers(0, 4096, (n, n))))
    raster_io.save_stack(BandStack(tuple(bands), size * 10.0), tmp_path / "stack.json")
    del bands
    peak = traced_peak(["resample", "--manifest", str(tmp_path / "stack.json"),
                        "--out", str(tmp_path / "cube.json")])
    payload_bytes = size * size * len(CANONICAL_ORDER) * 4
    assert peak < 0.5 * payload_bytes, f"{peak / payload_bytes:.2f}x the f32 payload"


# ---------------------------------------------------------------------------
# the helper thread


class InlineExecutor(Executor):
    """Runs each task at once in the calling thread: a serial stream."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as e:
            future.set_exception(e)
        return future


def all_artifacts(directory):
    """{file: bytes} of every streamed subcommand and of `import -> resample`
    on both stacks."""
    directory.mkdir()
    cube, model = write_cube(directory, ROWS, COLS), write_model(directory)
    out = artifacts(cube, model, directory / "maps")
    for name in RESAMPLE_STACKS:
        out.update({f"{name}/{k}": v
                    for k, v in resample_artifacts(directory / name, name).items()})
    return out


@pytest.mark.parametrize("block_pixels", [
    COLS,  # 23 blocks of the cube, 42 and 27 of the stacks
    54,    # 8 blocks of the cube, 42 and 14 of the stacks
])
def test_threaded_bytes_equal_a_serial_run(tmp_path, monkeypatch, block_pixels):
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    threads = threading.active_count()
    threaded = all_artifacts(tmp_path / "threaded")
    assert threading.active_count() == threads
    monkeypatch.setattr(resample, "ThreadPoolExecutor", InlineExecutor)
    assert all_artifacts(tmp_path / "serial") == threaded


def test_only_a_stream_with_a_second_block_starts_a_thread(tmp_path, monkeypatch):
    made = []

    class CountingExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(resample, "ThreadPoolExecutor", CountingExecutor)
    all_artifacts(tmp_path / "one-block")  # 391, 42² and 27² px: one block each
    assert made == []
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)
    all_artifacts(tmp_path / "blocks")
    assert len(made) == len(commands(tmp_path, tmp_path, tmp_path)) + len(RESAMPLE_STACKS)


@pytest.mark.parametrize("row, helper", [(0, True), (1, False)])
def test_nonfinite_value_in_either_thread_leaves_no_file_and_no_thread(
        tmp_path, monkeypatch, capsys, row, helper):
    """With one-row blocks the helper computes the even rows and the calling
    thread the odd ones; row 0 fails while the calling thread computes row 1.
    The NaN is in B6, which `ndvi` does not read: the whole block is checked."""
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    payload = np.fromfile(tmp_path / "cube.f32", dtype="<f4").reshape(ROWS, COLS, -1)
    payload[row, COLS // 2, 5] = np.nan
    payload.tofile(tmp_path / "cube.f32")
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)
    failed_in = []
    finite = resample._finite

    def recording_finite(rows):
        if not np.isfinite(rows).all():
            failed_in.append(threading.current_thread() is not threading.main_thread())
        return finite(rows)

    monkeypatch.setattr(resample, "_finite", recording_finite)
    out = tmp_path / "out"
    out.mkdir()
    threads = threading.active_count()
    for argv in commands(cube, model, out):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"litterscan {argv[0]}: cube values must be finite\n"
        assert threading.active_count() == threads
    assert failed_in == [helper] * len(commands(cube, model, out))
    assert list(out.iterdir()) == []


def test_a_block_the_writer_rejects_leaves_no_file_and_no_thread(tmp_path, monkeypatch, capsys):
    """The writer fails while the helper computes the next block: the stream
    is closed and its thread stops before the command returns."""
    cube = write_cube(tmp_path, ROWS, COLS)
    payload = np.fromfile(tmp_path / "cube.f32", dtype="<f4").reshape(ROWS, COLS, -1)
    planes = {b: CANONICAL_ORDER.index(b) for b in ("B6", "B8", "B11")}
    payload[3, :, [planes["B6"], planes["B8"]]] = 3e38  # FDI beyond float32's range
    payload[3, :, planes["B11"]] = 0.0
    payload.tofile(tmp_path / "cube.f32")
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)
    out = tmp_path / "out"
    out.mkdir()
    threads = threading.active_count()
    assert main(["index", "--cube", str(cube), "--method", "fdi",
                 "--out", str(out / "fdi.f32")]) == 1
    assert capsys.readouterr().err == "litterscan index: map values must be finite in float32\n"
    assert threading.active_count() == threads
    assert list(out.iterdir()) == []
    # the writer closes the stream itself: the error, still held here, keeps it referenced
    stream = resample.map_cube_rows(resample.read_cube_header(cube), indexes.fdi)
    with pytest.raises(ValueError, match="finite in float32"):
        raster_io.write_map(stream, ROWS, COLS, raster=out / "fdi.f32")
    assert inspect.getgeneratorstate(stream) == inspect.GEN_CLOSED
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing, first", [((2, 3), 2), ((1, 2), 1), ((5,), 5)])
def test_the_earliest_failing_block_gives_the_error(monkeypatch, failing, first):
    """Blocks 0, 2, 4 are the helper's and 1, 3, 5 this thread's; when both
    threads fail, the error is the one a serial pass would raise. An empty
    or one-item stream makes no executor."""
    def fn(i):
        if i in failing:
            raise ValueError(f"block {i}")
        return i

    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"block {first}"):
        list(resample._in_order(fn, range(6)))
    assert threading.active_count() == threads
    assert list(resample._in_order(lambda i: i, range(5))) == list(range(5))

    def no_executor(*args, **kwargs):
        raise AssertionError("a stream of fewer than two items made an executor")

    monkeypatch.setattr(resample, "ThreadPoolExecutor", no_executor)
    assert list(resample._in_order(fn, [])) == []
    assert list(resample._in_order(fn, [0])) == [0]
    with pytest.raises(ValueError, match=f"block {first}"):
        list(resample._in_order(fn, [first]))


@pytest.mark.parametrize("n", [3, 4])
def test_results_are_dropped_once_yielded(n):
    """A result, such as a whole block, is not kept once it has been yielded:
    when the consumer has dropped the first two results and asks for the
    third, neither is alive, and neither is while this thread computes the
    fourth item (the helper computes the third beside the yields)."""
    refs, alive = [], []

    def fn(i):
        if i == 3:
            alive.append([ref() is not None for ref in refs])
        return np.full(1000, float(i))

    stream = resample._in_order(fn, range(n))
    for _ in range(2):
        result = next(stream)
        refs.append(weakref.ref(result))
        del result
    assert next(stream)[0] == 2.0
    assert [ref() is None for ref in refs] == [True, True]
    assert alive == ([[False, False]] if n == 4 else [])
    assert [result[0] for result in stream] == list(map(float, range(3, n)))


# ---------------------------------------------------------------------------
# the block reader and its buffers


def test_a_stream_of_many_blocks_reads_into_two_buffers(tmp_path, monkeypatch):
    """23 one-row blocks are read into at most two buffers, which the stream
    reuses and drops when it ends; the helper thread reads its own blocks.
    The threads switch every few microseconds, so a buffer refilled while
    its block is mapped would show in the map."""
    cube = write_cube(tmp_path, ROWS, COLS)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)
    buffers, readers = {}, set()
    read_rows = resample._read_rows

    def recording_read_rows(fd, header, r0, r1, buf):
        buffers.setdefault(id(buf), weakref.ref(buf))  # a live buffer keeps its id
        readers.add(threading.current_thread() is threading.main_thread())
        return read_rows(fd, header, r0, r1, buf)

    monkeypatch.setattr(resample, "_read_rows", recording_read_rows)
    header = resample.read_cube_header(cube)
    payload = np.fromfile(tmp_path / "cube.f32", dtype="<f4").reshape(ROWS, COLS, -1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = np.concatenate(list(resample.map_cube_rows(header, indexes.fdi)))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, indexes.fdi(CANONICAL_ORDER, payload))
    assert 1 <= len(buffers) <= 2
    assert all(ref() is None for ref in buffers.values())
    assert False in readers  # a block read off the calling thread
    for argv in commands(cube, write_model(tmp_path), tmp_path):
        buffers.clear()
        assert main(argv) == 0, argv
        assert 1 <= len(buffers) <= 2, argv


@pytest.mark.parametrize("block_pixels", [COLS, ROWS * COLS])  # 23 blocks; one block
@pytest.mark.parametrize("fn", [
    lambda band_ids, block: block,
    lambda band_ids, block: block[:, :, 3],
    lambda band_ids, block: block.reshape(-1, len(band_ids))[5:9],
], ids=["block", "plane", "rows"])
def test_a_result_that_shares_its_block_is_refused(tmp_path, monkeypatch, block_pixels, fn):
    """The buffer a block is read into is refilled by a later block, so a
    result that is the block or a view of it would change under its user."""
    cube = write_cube(tmp_path, ROWS, COLS)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="must not share memory with the block"):
        list(resample.map_cube_rows(resample.read_cube_header(cube), fn))
    assert threading.active_count() == threads


def test_a_payload_cut_after_its_header_check_leaves_no_output(tmp_path, monkeypatch, capsys):
    """The payload loses its last value between the header's size check and
    the block reads: each step fails on its last block with one line."""
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    mask = write_mask_for(tmp_path, ROWS, COLS)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", 5 * COLS)
    read_cube_header = resample.read_cube_header
    payload = (tmp_path / "cube.f32").read_bytes()
    n_bytes = len(payload)

    def cutting_read_cube_header(path):
        header = read_cube_header(path)
        (tmp_path / "cube.f32").write_bytes(payload[:-4])
        return header

    monkeypatch.setattr(resample, "read_cube_header", cutting_read_cube_header)
    out = tmp_path / "out"
    out.mkdir()
    threads = threading.active_count()
    train = ["train", "--cube", str(cube), "--mask", str(mask), "--out", str(out / "m.json")]
    for argv in [*commands(cube, model, out), train]:
        (tmp_path / "cube.f32").write_bytes(payload)
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == (
            f"litterscan {argv[0]}: cube: payload ends at byte {n_bytes - 4}, "
            f"expected {n_bytes}\n")
        assert threading.active_count() == threads
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# train


def write_mask_for(directory, rows, cols, plastic_frac=0.3):
    path = directory / "mask.pgm"
    write_mask(np.random.default_rng(1).random((rows, cols)) < plastic_frac, path)
    return path


def trained(cube, mask, out):
    """{file: bytes} of a short `train` run, with its outputs under `out`."""
    out.mkdir()
    assert main(["train", "--cube", str(cube), "--mask", str(mask),
                 "--out", str(out / "model.json"), "--max-iters", "20"]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("block_pixels", [
    COLS,      # single-row blocks
    5 * COLS,  # 5 rows per block, a ragged last block of 3
])
def test_train_bytes_do_not_depend_on_block_size_or_thread(tmp_path, monkeypatch,
                                                            block_pixels):
    """... nor on the chunk size with which the test set is scored, patched
    to each of CHUNKS in turn."""
    cube = write_cube(tmp_path, ROWS, COLS)
    mask = write_mask_for(tmp_path, ROWS, COLS)
    whole = trained(cube, mask, tmp_path / "whole")  # one block, no thread
    assert sorted(whole) == ["model.json", "model.json.report.json"]
    blocks = []
    read_rows = resample._read_rows

    def recording_read_rows(fd, header, r0, r1, buf):
        blocks.append(r1 - r0)
        return read_rows(fd, header, r0, r1, buf)

    monkeypatch.setattr(resample, "_read_rows", recording_read_rows)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    threads = threading.active_count()
    per_block = block_pixels // COLS
    full, ragged = divmod(ROWS, per_block)
    for chunk in CHUNKS:
        monkeypatch.setattr(mlp, "_CHUNK_PIXELS", chunk)
        blocks.clear()
        assert trained(cube, mask, tmp_path / f"threaded-{chunk}") == whole
        assert threading.active_count() == threads
        # in the order the two threads start their reads
        assert sorted(blocks) == sorted([per_block] * full + ([ragged] if ragged else []))
    monkeypatch.setattr(resample, "ThreadPoolExecutor", InlineExecutor)
    assert trained(cube, mask, tmp_path / "serial") == whole


def test_train_fails_on_a_nonfinite_value_in_a_pixel_it_does_not_keep(tmp_path, monkeypatch,
                                                                        capsys):
    """The NaN is in the last row, in a pixel that balancing drops: the whole
    block is checked, not only the pixels kept."""
    cube = write_cube(tmp_path, ROWS, COLS)
    mask = write_mask_for(tmp_path, ROWS, COLS)
    kept = dataset.balance(raster_io.read_mask(mask), seed=0)
    dropped = sorted(set(range((ROWS - 1) * COLS, ROWS * COLS)) - set(kept))
    assert dropped
    payload = np.fromfile(tmp_path / "cube.f32", dtype="<f4").reshape(ROWS * COLS, -1)
    payload[dropped[0], 5] = np.nan
    payload.tofile(tmp_path / "cube.f32")
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)  # the NaN is in the last block
    out = tmp_path / "out"
    out.mkdir()
    threads = threading.active_count()
    assert main(["train", "--cube", str(cube), "--mask", str(mask),
                 "--out", str(out / "model.json")]) == 1
    assert capsys.readouterr().err == "litterscan train: cube values must be finite\n"
    assert threading.active_count() == threads
    assert list(out.iterdir()) == []


def test_a_mask_of_the_wrong_shape_is_reported_before_its_classes(tmp_path, capsys):
    cube = write_cube(tmp_path, ROWS, COLS)
    write_mask(np.zeros((3, 4), dtype=np.uint8), tmp_path / "mask.pgm")  # one class only
    assert main(["train", "--cube", str(cube), "--mask", str(tmp_path / "mask.pgm"),
                 "--out", str(tmp_path / "model.json")]) == 1
    assert capsys.readouterr().err == (
        f"litterscan train: mask 3x4 does not match cube {ROWS}x{COLS}\n")


def test_train_holds_less_than_the_cube_widened_to_float64(tmp_path):
    rows = cols = 1000
    cube = write_cube(tmp_path, rows, cols)
    mask = write_mask_for(tmp_path, rows, cols, plastic_frac=0.1)  # 200k pixels kept
    peak = traced_peak(["train", "--cube", str(cube), "--mask", str(mask),
                        "--out", str(tmp_path / "model.json"), "--max-iters", "2"])
    payload_bytes = rows * cols * len(CANONICAL_ORDER) * 4
    # Reading the whole f32 cube and widening every pixel holds 3x the payload
    # before a pixel is dropped (216 MB traced here, before the labels chose
    # the pixels). Gathering a balanced set, then copying it into its split
    # and the split into its normalized sets, all held (64 MB), measured
    # 2.15x. The cube pass now writes each kept pixel straight into its row
    # of the train, validation or test set: one float64 array of the 200k
    # samples (21 MB), dropped once the normalized sets exist. The peak,
    # 1.35x (70 MB), is set inside mlp.train by its (n, 10) temporaries
    # beside the normalized sets. The permutation that balances the 900k
    # majority pixels is a 7 MB int64 array, freed before the cube is read.
    assert peak < 1.45 * payload_bytes, f"{peak / payload_bytes:.2f}x the f32 payload"


# ---------------------------------------------------------------------------
# eval


def write_pgm16(path, values):
    """A 16-bit PGM of `values`, with trailing bytes after the payload."""
    rows, cols = values.shape
    path.write_bytes(f"P5\n{cols} {rows}\n65535\n".encode()
                     + np.asarray(values, dtype=">u2").tobytes() + b"trailing")


def test_eval_counts_both_masks_per_row_block(tmp_path, monkeypatch):
    """eval reads each mask's payload one row block at a time, both masks in
    step, an 8-bit and a 16-bit one alike, and writes the metrics of the
    whole masks whatever the block size."""
    rng = np.random.default_rng(2)
    pred, truth = rng.random((2, ROWS, COLS)) < 0.4
    write_mask(pred, tmp_path / "pred.pgm")
    # 16-bit values other than 0 and 65535: any value > 0 is plastic
    write_pgm16(tmp_path / "truth.pgm", truth * rng.integers(1, 1 << 16, (ROWS, COLS)))
    whole = evaluation.metrics(evaluation.confusion(pred, truth))
    read = []
    pgm_rows = raster_io._pgm_rows

    def recording_pgm_rows(f, n_rows, cols, dtype):
        read.append(n_rows)
        return pgm_rows(f, n_rows, cols, dtype)

    monkeypatch.setattr(raster_io, "_pgm_rows", recording_pgm_rows)
    outputs = set()
    for block_pixels in (1, COLS, 5 * COLS, ROWS * COLS):
        monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
        read.clear()
        out = tmp_path / f"eval-{block_pixels}.json"
        assert main(["eval", "--pred", str(tmp_path / "pred.pgm"),
                     "--truth", str(tmp_path / "truth.pgm"), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == whole
        outputs.add(out.read_bytes())
        per_block = max(1, block_pixels // COLS)
        full, ragged = divmod(ROWS, per_block)
        sizes = [per_block] * full + ([ragged] if ragged else [])
        assert read == [n for n in sizes for _ in ("pred", "truth")]  # both masks in step
    assert len(outputs) == 1


@pytest.mark.parametrize("pred, truth, error", [
    (b"P5\n2 8\n255\n" + bytes(16), b"P5\n4 4\n255\n" + bytes(16),
     "size mismatch: predicted 8x2, truth 4x4"),
    (b"P5\n4 4\n255\n" + bytes(16), b"P5\n4 4\n255\n" + bytes(15),
     "truncated PGM payload: 15 < 16"),
    (b"P5\n4 4\n1023\n" + bytes(32), b"P5\n4 4\n255\n" + bytes(16),
     "PGM maxval 1023 not supported (255 or 65535)"),
    (b"P5\n4 4\n255\n" + bytes(16), b"P2\n4 4\n255\n" + bytes(16),
     "unsupported PGM variant 'P2' (binary P5 required)"),
    (b"P5\n4 # four\n-4\n255\n" + bytes(16), b"P5\n4 4\n255\n" + bytes(16),
     "bad PGM header: expected a positive integer, got b'-4'"),
])
def test_eval_refuses_bad_masks_before_reading_a_payload(tmp_path, monkeypatch, capsys,
                                                          pred, truth, error):
    """Both headers are read, and checked against each other, before any
    pixel is read; the messages are those of a whole-mask read."""
    (tmp_path / "pred.pgm").write_bytes(pred)
    (tmp_path / "truth.pgm").write_bytes(truth)

    def no_payload(*args):
        raise AssertionError("a payload was read")

    monkeypatch.setattr(raster_io, "_pgm_rows", no_payload)
    out = tmp_path / "eval.json"
    assert main(["eval", "--pred", str(tmp_path / "pred.pgm"),
                 "--truth", str(tmp_path / "truth.pgm"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"litterscan eval: {error}\n"
    assert not out.exists()
