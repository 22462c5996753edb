"""On-disk containers: band-stack manifest + raw band payloads, PGM masks,
float rasters.

Formats:
  * stack manifest -- JSON ``{"extent_m": ..., "bands": [{"id", "wavelength_nm",
    "native_gsd_m", "rows", "cols", "file", "dtype": "u16le"}]}``; each band
    payload is raw row-major unsigned 16-bit little-endian.
  * mask -- binary PGM (P5), maxval 255, 255 = plastic.
  * float raster -- raw row-major 32-bit little-endian floats, with a JSON
    sidecar ``{"rows": ..., "cols": ...}`` at ``<path>.json``.

Files are written in row blocks to temp files in the target directory that
are renamed into place only when all of one write's files are complete, so a
failed write never leaves a partial artifact. `write_map` writes an index or
score map and/or its mask in one pass as its blocks are computed, and it is
where a map's values are checked: a non-finite one fails the write.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .bands import BandSpec, canonical_index


# Pixels per row block (one row when a row is wider): the most of a raster
# that is read, resampled or converted for writing at once.
ROW_BLOCK_PIXELS = 1 << 16


def row_ranges(rows: int, cols: int) -> Iterator[tuple[int, int]]:
    """(r0, r1) of each row block of a rows x cols raster, in order."""
    step = max(1, ROW_BLOCK_PIXELS // cols)
    return ((r0, min(r0 + step, rows)) for r0 in range(0, rows, step))


def _write(files: dict[str, tuple[bytes, Callable]], values, finite: bool = False) -> None:
    """Write each file's header, then each row block of `values` (an array
    or an iterable of blocks) as the file's encoder makes it, to temp files
    that are renamed into place only when all are complete: a failure leaves
    none of them. With `finite`, a block holding a non-finite value fails.
    An OS error names the output, not its temp file."""
    blocks = values if not isinstance(values, np.ndarray) else (
        values[r0:r1] for r0, r1 in row_ranges(*values.shape[:2]))
    paths = tuple(files)
    tmps = tuple(os.path.join(os.path.dirname(p), f".tmp-{os.urandom(8).hex()}~") for p in paths)
    outs, renamed = [], 0
    try:
        with contextlib.ExitStack() as stack:
            for tmp, (header, _) in zip(tmps, files.values()):
                outs.append(stack.enter_context(open(tmp, "xb")))  # 0o666 less the umask
                outs[-1].write(header)
            for block in blocks:
                if finite and not np.isfinite(block).all():
                    raise ValueError("map values must be finite")
                for out, (_, encode) in zip(outs, files.values()):
                    out.write(encode(block))
                del block  # not held while the next block is built
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
            renamed += 1
    except BaseException as e:
        for leftover in paths[:renamed] + tmps[renamed:len(outs)]:
            os.unlink(leftover)
        if isinstance(e, OSError) and e.filename in tmps:
            raise OSError(e.errno, e.strerror, paths[tmps.index(e.filename)]) from None
        raise


def atomic_write(path: str | os.PathLike, header: bytes,
                 values: np.ndarray | Iterable[np.ndarray] = (), dtype=None) -> None:
    """Write `header`, then `values` in row-major order as `dtype`, to `path`.
    `values` is an array, converted one row block at a time, or an iterable
    of row blocks, each converted as it comes."""
    _write({os.fspath(path): (header, lambda b: np.ascontiguousarray(b, dtype=dtype))}, values)


def _f4(block: np.ndarray) -> np.ndarray:
    """`block` as <f4, every value of which must be finite: a value beyond
    float32's range would be cast to inf."""
    with np.errstate(over="ignore"):
        f4 = np.ascontiguousarray(block, dtype="<f4")
    if not np.isfinite(f4).all():
        raise ValueError("map values must be finite in float32")
    return f4


def write_map(blocks: np.ndarray | Iterable[np.ndarray], rows: int, cols: int,
              raster=None, mask=None, threshold: float | None = None) -> None:
    """Write a rows x cols map, an array or its row blocks, in one pass: as
    a float raster at path `raster`, with its sidecar, and/or as a PGM mask
    at path `mask` of the pixels >= `threshold`, or of the map itself as
    {0, 1} labels when `threshold` is None. When it writes a raster or
    applies a threshold, a value that is not finite (in float32, for a
    raster) in any block raises ValueError and no file is left."""
    files = {}
    if raster is not None:
        files[os.fspath(raster)] = (b"", _f4)
        sidecar = json.dumps({"rows": rows, "cols": cols}).encode()
        files[os.fspath(raster) + ".json"] = (sidecar, lambda b: b"")  # header only
    if mask is not None:  # one byte per pixel, whatever the labels' dtype
        files[os.fspath(mask)] = (f"P5\n{cols} {rows}\n255\n".encode("ascii"), lambda b: (
            b != 0 if threshold is None else b >= threshold) * np.uint8(255))
    # with a raster, `_f4` checks each block as it encodes it
    _write(files, blocks, finite=raster is None and threshold is not None)


def write_json(path: str | os.PathLike, doc) -> None:
    """`doc` as indented JSON: manifests, models, reports and metrics. NaN
    and Infinity are not JSON: a document holding one raises ValueError."""
    atomic_write(path, json.dumps(doc, indent=2, allow_nan=False).encode())


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json_object(path: str | os.PathLike, what: str) -> dict:
    """Parse a UTF-8 JSON file that must hold an object; NaN and Infinity are not JSON."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as e:  # bad JSON, bad UTF-8, deep nesting
            raise ValueError(f"malformed {what} {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what} {path}: not a JSON object")
    return doc


def read_dims(doc: dict, what: str, *keys: str) -> tuple[int, ...]:
    """The values of `keys` in `doc`, each a JSON integer > 0."""
    for key in keys:
        value = doc.get(key)
        if type(value) is not int or value <= 0:  # bool is not int here
            raise ValueError(f"{what}: {key} must be a positive integer, got {value!r}")
    return tuple(doc[key] for key in keys)


def check_payload_size(path: str | os.PathLike, dtype, count: int, what: str) -> None:
    """Raise ValueError unless the file at `path` holds exactly `count`
    samples of `dtype`."""
    n, stray = divmod(os.path.getsize(path), np.dtype(dtype).itemsize)
    if (n, stray) != (count, 0):
        extra = f" and {stray} stray bytes" if stray else ""
        raise ValueError(f"{what}: payload has {n} samples{extra}, expected {count}")


def read_payload(path: str | os.PathLike, dtype, count: int, what: str) -> np.ndarray:
    """Exactly `count` samples of `dtype` from the file at `path`; any other
    byte length raises ValueError."""
    check_payload_size(path, dtype, count, what)
    return np.fromfile(path, dtype=dtype, count=count)


def read_number(doc: dict, what: str, key: str) -> float:
    """doc[key], which must be a JSON number: a string or a bool is not one."""
    value = doc[key]
    if type(value) not in (int, float):
        raise ValueError(f"{what}: {key} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Band:
    """One band's pixel grid (unsigned 16-bit digital numbers)."""

    spec: BandSpec
    pixels: np.ndarray  # (rows, cols) uint16

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a non-empty 2-D grid")
        if px.dtype != np.uint16:
            if not np.issubdtype(px.dtype, np.integer):
                raise ValueError("pixels must be integers")
            if not np.can_cast(px.dtype, np.uint16) and (px.min() < 0 or px.max() > 0xFFFF):
                raise ValueError("pixel values must fit in 16 bits")
            px = px.astype(np.uint16)
        px = np.ascontiguousarray(px)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def rows(self) -> int:
        return self.pixels.shape[0]

    @property
    def cols(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class BandStack:
    """Co-located bands over one square footprint, in canonical order."""

    bands: tuple[Band, ...]
    extent_m: float

    def __post_init__(self):
        if not self.bands:
            raise ValueError("stack has no bands")
        if not self.extent_m > 0:  # also rejects NaN
            raise ValueError("extent_m must be positive")
        ids = [b.spec.id for b in self.bands]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate band id in stack: {ids}")
        ordered = tuple(sorted(self.bands, key=lambda b: canonical_index(b.spec.id)))
        object.__setattr__(self, "bands", ordered)
        for b in ordered:
            for n, what in ((b.rows, "rows"), (b.cols, "cols")):
                if abs(n * b.spec.native_gsd_m - self.extent_m) > 1e-6:
                    raise ValueError(
                        f"band {b.spec.id}: dimension/extent mismatch "
                        f"({what}={n} x {b.spec.native_gsd_m} m != {self.extent_m} m)"
                    )

    @property
    def band_ids(self) -> tuple[str, ...]:
        return tuple(b.spec.id for b in self.bands)


def check_labels(labels: np.ndarray) -> None:
    """Raise ValueError unless every label is 0 or 1. A bool array passes by
    its dtype; any other array is compared as it is, before any cast."""
    if labels.dtype != np.bool_ and not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")


# ---------------------------------------------------------------------------
# band-stack container


def load_stack(manifest_path: str | os.PathLike) -> BandStack:
    """Read a stack manifest and its band payloads."""
    manifest_path = os.fspath(manifest_path)
    doc = read_json_object(manifest_path, "manifest")
    base = os.path.dirname(manifest_path)
    bands = []
    try:
        extent_m = read_number(doc, f"malformed manifest {manifest_path}", "extent_m")
        for ent in doc["bands"]:
            what = f"band {ent['id']}"
            spec = BandSpec(ent["id"], read_number(ent, what, "wavelength_nm"),
                            read_number(ent, what, "native_gsd_m"))
            rows, cols = read_dims(ent, what, "rows", "cols")
            if ent.get("dtype", "u16le") != "u16le":
                raise ValueError(f"{what}: unsupported dtype {ent['dtype']!r}")
            payload_path = os.path.join(base, ent["file"])
            data = read_payload(payload_path, "<u2", rows * cols, f"{what} ({payload_path})")
            bands.append(Band(spec, data.reshape(rows, cols)))
    except (KeyError, TypeError, OverflowError) as e:
        detail = f"missing {e}" if isinstance(e, KeyError) else e
        raise ValueError(f"malformed manifest {manifest_path}: {detail}") from None
    return BandStack(tuple(bands), extent_m)


def save_stack(stack: BandStack, manifest_path: str | os.PathLike) -> None:
    """Write manifest + one raw u16le payload per band next to it."""
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(manifest_path)
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    entries = []
    for b in stack.bands:
        fname = f"{stem}_{b.spec.id}.u16"
        atomic_write(os.path.join(base, fname), b"", b.pixels, "<u2")
        entries.append({
            "id": b.spec.id,
            "wavelength_nm": b.spec.wavelength_nm,
            "native_gsd_m": b.spec.native_gsd_m,
            "rows": b.rows,
            "cols": b.cols,
            "file": fname,
            "dtype": "u16le",
        })
    doc = {"extent_m": stack.extent_m, "bands": entries}
    write_json(manifest_path, doc)


# ---------------------------------------------------------------------------
# PGM

def _read_pgm(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        magic = raw[:2].decode("ascii", "replace")
        raise ValueError(f"unsupported PGM variant {magic!r} (binary P5 required)")
    # header: magic, width, height, maxval as whitespace-separated positive
    # decimal integers; '#' comments run to the end of the line or the file
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            pos = raw.find(b"\n", pos) + 1 or len(raw)
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit() or int(token) == 0:
            raise ValueError(f"bad PGM header: expected a positive integer, got {token!r}")
        tokens.append(int(token))
    pos += 1  # single whitespace after maxval
    cols, rows, maxval = tokens
    if maxval not in (255, 65535):
        raise ValueError(f"PGM maxval {maxval} not supported (255 or 65535)")
    dtype = np.dtype(np.uint8 if maxval == 255 else ">u2")
    have = max(len(raw) - pos, 0) // dtype.itemsize
    if have < rows * cols:  # trailing bytes after the payload are ignored
        raise ValueError(f"truncated PGM payload: {have} < {rows * cols}")
    return np.frombuffer(raw, dtype=dtype, count=rows * cols, offset=pos).reshape(rows, cols)


def import_pgm_band(path: str | os.PathLike, spec: BandSpec) -> Band:
    """Read a binary PGM as a band; 8-bit values are widened, not rescaled."""
    return Band(spec, _read_pgm(path))


def read_mask(path: str | os.PathLike) -> np.ndarray:
    """A PGM mask as a 2-D bool array: True (plastic) where the value is > 0."""
    return _read_pgm(path) > 0


def write_mask(labels: np.ndarray, path: str | os.PathLike) -> None:
    """A non-empty 2-D array of {0, 1} labels, of any dtype, as a PGM mask."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.size == 0:
        raise ValueError("labels must be a non-empty 2-D grid")
    check_labels(labels)
    write_map(labels, *labels.shape, mask=path)


# ---------------------------------------------------------------------------
# float raster

def write_float_raster(values: np.ndarray, path: str | os.PathLike) -> None:
    """values: 2-D grid of finite numbers -> raw f32le + JSON sidecar."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("values must be a non-empty 2-D grid")
    write_map(values, *values.shape, raster=path)


def read_float_raster(path: str | os.PathLike) -> np.ndarray:
    sidecar = os.fspath(path) + ".json"
    rows, cols = read_dims(read_json_object(sidecar, "float raster sidecar"),
                           f"float raster sidecar {sidecar}", "rows", "cols")
    data = read_payload(path, "<f4", rows * cols, "float raster")
    return data.reshape(rows, cols).astype(np.float64)
