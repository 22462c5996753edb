"""Lanczos3 band alignment onto the finest grid, and the cube container,
which is written (`StackAlignment.blocks`) and read (`map_cube_rows`) in row blocks.
A cube is described by its band ids (in `CubeHeader`) and its values, a plain
(rows, cols, n_bands) array; a block, built from the bands or read from
the payload, is float32. Both streams run through `_in_order`, the one place
that starts a thread: from a second block on, one helper thread computes
alternate blocks beside the calling thread, and numpy releases the
interpreter lock for the block arithmetic, so the two threads use two cores.

Conventions (these make constant images constant and keep the grids
concentric):
  * pixel-center mapping src = (dst + 0.5) / scale - 0.5
  * border handling: source indices clamped to the valid range
  * the six kernel taps of each output sample are divided by their sum
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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
    float32 output row block at a time from the bands' own pixels, each
    block by one thread. Taps are built once per band and axis."""

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

    def rows_block(self, r0: int, r1: int) -> np.ndarray:
        """Output rows r0:r1 of every band, interleaved, as float32, the
        dtype the cube is written in (finite: interpolated from uint16)."""
        values = np.empty((r1 - r0, self.cols, len(self._bands)), dtype=np.float32)
        for i, (img, taps) in enumerate(self._bands):
            values[:, :, i] = _resample_rows(img, taps, r0, r1)
        return values

    def blocks(self) -> Iterator[np.ndarray]:
        """The aligned values in row blocks (`raster_io.row_ranges`), computed
        by `_in_order`: from a second block on, one helper thread builds
        alternate blocks beside this thread."""
        return _in_order(lambda rows: self.rows_block(*rows), row_ranges(self.rows, self.cols))


def align_stack(stack: BandStack) -> np.ndarray:
    """Every band resampled to the finest grid present in the stack, as one
    (rows, cols, n_bands) float32 array in the stack's band order."""
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


_END = object()  # the end of an item stream: no item is this object


def _in_order(fn: Callable, items: Iterable) -> Iterator:
    """fn(item) for each of `items`, yielded in order; `items` is advanced
    in this thread only. From a second item on, one helper thread computes
    alternate items while this thread computes the others, so at most two
    are computed at once; zero or one item starts no thread. A failure
    raises the error of the earliest failing item, as a serial pass would.
    An item or result is dropped as soon as it is submitted or yielded. On
    exit an item not yet started is cancelled and a running one is waited
    for, so the thread never outlives the stream."""
    items = iter(items)
    first = next(items, _END)
    item = next(items, _END)  # this thread's item
    if item is _END:
        if first is not _END:
            yield fn(first)
        return
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        pending = helper.submit(fn, first)  # the helper's item, which comes before this thread's
        del first
        while item is not _END:
            try:
                mine = fn(item)
            finally:
                del item
                theirs = pending.result()
            item = next(items, _END)  # the helper's next item, started before the yields
            pending = None if item is _END else helper.submit(fn, item)
            del item
            yield theirs
            del theirs
            yield mine
            del mine
            item = next(items, _END)
        if pending is not None:  # an odd count: the last item is the helper's
            yield pending.result()
    finally:
        helper.shutdown(cancel_futures=True)


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
    with open(header.payload, "rb") as f:
        yield from _in_order(lambda rows: fn(header.band_ids, _finite(rows)),
                             (_read_rows(f, header, r1 - r0)
                              for r0, r1 in row_ranges(header.rows, header.cols)))
