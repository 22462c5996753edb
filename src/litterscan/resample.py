"""Lanczos3 band alignment onto the finest grid, and the cube container,
which is written (`StackAlignment.blocks`) and read (`map_cube_rows`) in row blocks.
A cube is described by its band ids (in `CubeHeader`) and its values, a plain
(rows, cols, n_bands) array; a block, built from the bands or read from
the payload, is float32. Both streams run through `_in_order`, the one place
that starts a thread: from a second block on, one helper thread computes
alternate blocks beside the calling thread, and numpy releases the
interpreter lock for the block arithmetic, so the two threads use two cores.
A cube block is read by the thread that maps it, with a positional read
into one of at most two buffers that the stream reuses.

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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bands import check_band_ids
from .raster_io import (BandStack, check_payload_size, commit, read_dims, read_json_object,
                        row_ranges, write_f4, write_json)

SUPPORTED_SCALES = (1, 2, 3, 6)


def lanczos3_kernel(x: float | np.ndarray) -> float | np.ndarray:
    """sinc(x) * sinc(x/3) for |x| < 3, else 0; elementwise over an array,
    a float for a float."""
    x = np.asarray(x, dtype=np.float64)
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
            scale = round(b.spec.native_gsd_m / finest.spec.native_gsd_m)  # 1, 2, 3 or 6
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
    check_band_ids(ids, what)
    if doc.get("dtype") != "f32le":
        raise ValueError(f"{what}: unsupported dtype {doc.get('dtype')!r} (f32le required)")
    if not isinstance(fname, str):
        raise ValueError(f"{what}: file must be a payload file name, got {fname!r}")
    payload = os.path.join(os.path.dirname(manifest_path), fname)
    check_payload_size(payload, "<f4", rows * cols * len(ids), "cube")
    return CubeHeader(rows, cols, tuple(ids), payload)


def _read_rows(fd: int, header: CubeHeader, r0: int, r1: int, buf: np.ndarray) -> np.ndarray:
    """Rows r0:r1 of the cube whose payload is open as `fd`, read at their
    offset (no file position is shared) into the start of the flat f32
    buffer `buf`: the (r1 - r0, cols, n_bands) view of it that holds them.
    A payload that ends before them raises ValueError."""
    n_bands = len(header.band_ids)
    block = buf[:(r1 - r0) * header.cols * n_bands]
    raw = block.view(np.uint8)
    offset = r0 * header.cols * n_bands * 4
    done = 0
    while done < raw.size:  # a read may stop short of the bytes asked for
        n = os.preadv(fd, [raw[done:]], offset + done)
        if n == 0:
            raise ValueError(f"cube: payload ends at byte {offset + done}, expected "
                             f"{header.rows * header.cols * n_bands * 4}")
        done += n
    return block.reshape(r1 - r0, header.cols, n_bands)


def _finite(values: np.ndarray) -> np.ndarray:
    """`values`, rows of a cube as read. This is where a cube's values are
    checked, every band of every row: a non-finite one raises ValueError."""
    if not np.isfinite(values).all():
        raise ValueError("cube values must be finite")
    return values


def load_cube(manifest_path: str | os.PathLike) -> tuple[tuple[str, ...], np.ndarray]:
    """The band ids and the (rows, cols, n_bands) float32 values of a cube."""
    header = read_cube_header(manifest_path)
    buf = np.empty(header.rows * header.cols * len(header.band_ids), dtype="<f4")
    with open(header.payload, "rb") as f:
        return header.band_ids, _finite(_read_rows(f.fileno(), header, 0, header.rows, buf))


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


def map_cube_rows(header: CubeHeader, fn: Callable[..., np.ndarray],
                  *per_block: Iterable) -> Iterator[np.ndarray]:
    """fn(band ids, block, *args) for each row block of the cube
    (`raster_io.row_ranges`), yielded in order: fn maps an (n, cols, n_bands)
    float32 block, as read and checked by `_finite`, to its array result for
    those n rows. `args` are the block's items of `per_block`, iterables with
    one item per block, such as the pixels a caller wants from each.
    From a second block on, one helper thread reads, checks and maps
    alternate blocks while this thread does the others, so at most two
    blocks are mapped at once; a one-block cube starts no thread. Each block
    is read into one of the stream's two buffers (one for a one-block cube),
    taken from its pool and put back once fn returns, and the pool is
    dropped with the stream. A result must therefore not share memory with
    its block: one that does raises ValueError."""
    ranges = list(row_ranges(header.rows, header.cols))
    size = (ranges[0][1] - ranges[0][0]) * header.cols * len(header.band_ids)  # the longest
    # A block-size array made and freed at once: glibc then raises its mmap
    # threshold above a block, so the buffers and fn's per-block temporaries
    # come from the heap and are reused, not mapped, faulted in and unmapped
    # again for every block (`index fdi` at 2000²: 7.9 k minor faults, not 26 k).
    np.empty(size, dtype="<f4")
    # The free buffers, made in this thread so that they do not come from the
    # helper thread's malloc arena, which keeps them resident once freed. At
    # most two blocks are mapped at once, so a block always finds one;
    # list.pop and list.append are atomic.
    pool = [np.empty(size, dtype="<f4") for _ in ranges[:2]]

    def mapped(item):
        (r0, r1), *args = item
        buf = pool.pop()
        try:
            result = fn(header.band_ids, _finite(_read_rows(fd, header, r0, r1, buf)), *args)
            if np.may_share_memory(result, buf):
                raise ValueError("a cube block's result must not share memory with the block")
            return result
        finally:
            pool.append(buf)

    with open(header.payload, "rb") as f:
        fd = f.fileno()
        yield from _in_order(mapped, zip(ranges, *per_block, strict=True))
