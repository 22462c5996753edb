"""Lanczos3 band alignment onto the finest grid, and the cube container,
which is written (`StackAlignment.blocks`) and read (`map_cube_rows`) in row blocks.
A cube is described by its band ids (in `CubeHeader`) and its values, a plain
(rows, cols, n_bands) array; a block read from the payload stays float32.
Both streams put one helper thread to work beside the calling thread once
there is a second block: numpy releases the interpreter lock for the block
arithmetic, so the two threads use two cores.

Conventions (these make constant images constant and keep the grids
concentric):
  * pixel-center mapping src = (dst + 0.5) / scale - 0.5
  * border handling: source indices clamped to the valid range
  * the six kernel taps of each output sample are divided by their sum
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .bands import check_band_ids
from .raster_io import (BandStack, check_payload_size, commit, read_dims, read_json_object,
                        row_ranges, write_f4, write_json)

SUPPORTED_SCALES = (1, 2, 3, 6)


def lanczos3_kernel(x: float | np.ndarray) -> float | np.ndarray:
    """sinc(x) * sinc(x/3) for |x| < 3, else 0; elementwise over an array,
    a float for a float."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("kernel argument must be finite")
    px = np.pi * x
    with np.errstate(divide="ignore", invalid="ignore"):  # x == 0 is set below
        w = 3.0 * np.sin(px) * np.sin(px / 3.0) / (px * px)
    w = np.where(np.abs(x) >= 3.0, 0.0, np.where(x == 0.0, 1.0, w))
    return float(w) if w.ndim == 0 else w


def _axis_taps(n_src: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Clamped source indices and normalized weights of each output sample
    on one axis, as contiguous (6, n_dst) arrays: one row per tap."""
    n_dst = n_src * scale
    dst = np.arange(n_dst, dtype=np.float64)
    src = (dst + 0.5) / scale - 0.5
    base = np.floor(src).astype(np.int64)
    offsets = np.arange(-2, 4, dtype=np.int64)  # 6 taps covering |x| < 3
    idx = base[:, None] + offsets[None, :]
    x = src[:, None] - idx
    w = lanczos3_kernel(x)
    w /= w.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(np.clip(idx, 0, n_src - 1).T), np.ascontiguousarray(w.T)


def _grid_taps(shape: tuple[int, int], scale: int):
    """Row taps and column taps for upscaling a grid of `shape` by `scale`;
    None at scale 1."""
    if scale == 1:
        return None
    return _axis_taps(shape[0], scale), _axis_taps(shape[1], scale)


def _resample_rows(img: np.ndarray, taps, r0: int, r1: int) -> np.ndarray:
    """Output rows r0:r1 of `img` upscaled with `taps` (from `_grid_taps`),
    as float64. The row pass reads only the source rows the block's taps
    touch; the column pass gathers columns. Each output value is the same
    sum of the same products, in the same tap order, whatever the block."""
    if taps is None:
        return img[r0:r1].astype(np.float64)
    (iy, wy), (ix, wx) = taps
    tmp = np.zeros((r1 - r0, img.shape[1]))
    for k in range(len(iy)):
        tmp += wy[k, r0:r1, None] * img[iy[k, r0:r1]]  # integer pixels widen exactly
    out = np.zeros((r1 - r0, ix.shape[1]))
    for k in range(len(ix)):
        out += wx[k] * tmp.take(ix[k], axis=1)
    return out


def resample_band(img: np.ndarray, scale: int) -> np.ndarray:
    """Upscale a grid by an integer factor with separable Lanczos3."""
    if scale not in SUPPORTED_SCALES:
        raise ValueError(f"unsupported scale {scale} (expected one of {SUPPORTED_SCALES})")
    img = np.asarray(img)
    return _resample_rows(img, _grid_taps(img.shape, scale), 0, img.shape[0] * scale)


class StackAlignment:
    """A stack's bands resampled onto the finest grid present, computed one
    output row block at a time from the bands' own pixels. Taps are built
    once per band and axis."""

    def __init__(self, stack: BandStack):
        finest = min(stack.bands, key=lambda b: b.spec.native_gsd_m)
        self.band_ids = stack.band_ids
        self.rows, self.cols = finest.rows, finest.cols
        self._bands = []
        for b in stack.bands:  # already canonical order
            ratio = b.spec.native_gsd_m / finest.spec.native_gsd_m
            scale = int(round(ratio))
            if abs(ratio - scale) > 1e-9 or scale not in SUPPORTED_SCALES:
                raise ValueError(f"band {b.spec.id}: grid ratio {ratio} unsupported")
            self._bands.append((b.pixels, _grid_taps(b.pixels.shape, scale)))

    def rows_block(self, r0: int, r1: int, helper: Executor | None = None) -> np.ndarray:
        """Output rows r0:r1 of every band, interleaved (finite: interpolated
        from uint16). With a `helper` executor, its thread and this one take
        band planes in turn, each the next one not yet taken, and fill them
        in the one block; a plane's values do not depend on the thread."""
        values = np.empty((r1 - r0, self.cols, len(self._bands)))
        planes = iter(range(len(self._bands)))  # next() on it is atomic: each plane is taken once

        def fill():
            for i in planes:
                img, taps = self._bands[i]
                values[:, :, i] = _resample_rows(img, taps, r0, r1)

        if helper is None:
            fill()
            return values
        theirs = helper.submit(fill)
        try:
            fill()
        finally:
            theirs.result()
        return values

    def blocks(self) -> Iterator[np.ndarray]:
        """The aligned values in row blocks (`raster_io.row_ranges`). From a
        second block on, one helper thread fills band planes of each block
        beside this one (`rows_block`); a block is complete before it is
        yielded, so one block is held at a time."""
        ranges = list(row_ranges(self.rows, self.cols))
        with _helper_thread(len(ranges) > 1) as helper:
            for r0, r1 in ranges:
                yield self.rows_block(r0, r1, helper)


def align_stack(stack: BandStack) -> np.ndarray:
    """Every band resampled to the finest grid present in the stack, as one
    (rows, cols, n_bands) float64 array in the stack's band order."""
    aligned = StackAlignment(stack)
    return aligned.rows_block(0, aligned.rows)


# ---------------------------------------------------------------------------
# cube container: f32le payload (row-major, band-interleaved) + JSON manifest

def save_cube(blocks: np.ndarray | Iterable[np.ndarray], rows: int, cols: int,
              band_ids: Sequence[str], manifest_path: str | os.PathLike) -> None:
    """Write a rows x cols cube of `band_ids`, an array or its row blocks
    (`StackAlignment.blocks`), as the payload `<stem>.f32`, then the
    manifest, in one commit. A value not finite in float32 raises
    ValueError and no file is left, so every cube written can be read."""
    payload = os.path.splitext(manifest_path)[0] + ".f32"
    with commit():
        write_f4(payload, blocks, "cube")
        write_json(manifest_path, {"rows": rows, "cols": cols, "bands": list(band_ids),
                                   "dtype": "f32le", "file": os.path.basename(payload)})


@dataclass(frozen=True)
class CubeHeader:
    """A validated cube manifest whose payload has exactly the declared size."""

    rows: int
    cols: int
    band_ids: tuple[str, ...]
    payload: str  # path of the f32le payload


def read_cube_header(manifest_path: str | os.PathLike) -> CubeHeader:
    manifest_path = os.fspath(manifest_path)
    what = f"cube manifest {manifest_path}"
    doc = read_json_object(manifest_path, "cube manifest")
    rows, cols = read_dims(doc, what, "rows", "cols")
    ids, fname = doc.get("bands"), doc.get("file")
    if not (isinstance(ids, list) and all(isinstance(b, str) for b in ids)):
        raise ValueError(f"{what}: bands must be a list of band ids")
    check_band_ids(ids, what)
    if doc.get("dtype") != "f32le":
        raise ValueError(f"{what}: unsupported dtype {doc.get('dtype')!r} (f32le required)")
    if not isinstance(fname, str):
        raise ValueError(f"{what}: file must be a payload file name, got {fname!r}")
    payload = os.path.join(os.path.dirname(manifest_path), fname)
    check_payload_size(payload, "<f4", rows * cols * len(ids), "cube")
    return CubeHeader(rows, cols, tuple(ids), payload)


def _read_rows(f: BinaryIO, header: CubeHeader, n_rows: int) -> np.ndarray:
    """The next `n_rows` rows of the open payload `f`, as read: f32, (n_rows, cols, n_bands)."""
    n_bands = len(header.band_ids)
    data = np.fromfile(f, dtype="<f4", count=n_rows * header.cols * n_bands)
    return data.reshape(n_rows, header.cols, n_bands)


def _finite(values: np.ndarray) -> np.ndarray:
    """`values`, rows of a cube as read. This is where a cube's values are
    checked, every band of every row: a non-finite one raises ValueError."""
    if not np.isfinite(values).all():
        raise ValueError("cube values must be finite")
    return values


def load_cube(manifest_path: str | os.PathLike) -> tuple[tuple[str, ...], np.ndarray]:
    """The band ids and the (rows, cols, n_bands) float32 values of a cube."""
    header = read_cube_header(manifest_path)
    with open(header.payload, "rb") as f:
        return header.band_ids, _finite(_read_rows(f, header, header.rows))


@contextlib.contextmanager
def _helper_thread(needed: bool) -> Iterator[Executor | None]:
    """One helper thread if `needed`, else None. On exit a task not yet
    started is cancelled and a running one is waited for, so the thread
    never outlives the stream that started it."""
    if not needed:
        yield None
        return
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        yield helper
    finally:
        helper.shutdown(cancel_futures=True)


def _in_order(fn: Callable, items: Iterable, helper: Executor | None) -> Iterator:
    """fn(item) for each of `items`, yielded in order; `items` is advanced
    in this thread only. With a `helper` executor, alternate items are
    computed there while this thread computes the others, so at most two
    are computed at once. A failure raises the error of the earliest
    failing item, as a serial pass would."""
    if helper is None:
        yield from map(fn, items)
        return
    items = iter(items)
    pending = None  # the helper's item, which comes before this thread's
    for item in items:
        if pending is None:
            pending = helper.submit(fn, item)
            continue
        try:
            mine = fn(item)
        finally:
            theirs = pending.result()
        item = next(items, None)  # the helper's next item, started before the yields
        pending = None if item is None else helper.submit(fn, item)
        yield theirs
        yield mine
    if pending is not None:  # an odd count: the last item is the helper's
        yield pending.result()


def map_cube_rows(header: CubeHeader,
                  fn: Callable[[tuple[str, ...], np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """fn(band ids, block) for each row block of the cube
    (`raster_io.row_ranges`), yielded in order: fn maps an (n, cols, n_bands)
    float32 block, as read and checked by `_finite`, to its result for those
    n rows (a map block, or the block itself).
    This thread reads every block. From a second block on, alternate blocks
    are checked and mapped by one helper thread while this thread does the
    others, so at most two blocks of the cube are in memory at a time; a
    one-block cube starts no thread."""
    ranges = list(row_ranges(header.rows, header.cols))
    with open(header.payload, "rb") as f, _helper_thread(len(ranges) > 1) as helper:
        yield from _in_order(lambda rows: fn(header.band_ids, _finite(rows)),
                             (_read_rows(f, header, r1 - r0) for r0, r1 in ranges), helper)
