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
are renamed into place only when their `commit` ends without error, so a
failure leaves no partial artifact. The command line runs each subcommand in
one commit, which also refuses to write over an input or one file twice.
`write_map` writes an index or score map and/or its mask in one pass as its
blocks are computed, and it is where a map's values are checked: a
non-finite one fails the write.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .bands import CANONICAL_ORDER, BandSpec, check_band_ids


# Pixels per row block (one row when a row is wider): the most of a raster
# that is read, resampled or converted for writing at once.
ROW_BLOCK_PIXELS = 1 << 16


def row_ranges(rows: int, cols: int) -> Iterator[tuple[int, int]]:
    """(r0, r1) of each row block of a rows x cols raster, in order."""
    step = max(1, ROW_BLOCK_PIXELS // cols)
    return ((r0, min(r0 + step, rows)) for r0 in range(0, rows, step))


# The open commit: the real paths it read (None when none is open), and real
# path -> (output, temp file) of each file it staged, in order. One thread opens files.
_reads: set[str] | None = None
_staged: dict[str, tuple[str, str]] = {}


def _naming(path: str, call: Callable, *args):
    """call(*args), whose OSError names the output `path`, not its temp file."""
    try:
        return call(*args)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


@contextlib.contextmanager
def commit() -> Iterator[None]:
    """Stage every file written in the block as a temp file beside its
    output, and rename them all into place when the block ends without
    error. On any error, a failed rename included, no output is changed and
    no temp file is left: a file that an output replaces is set aside before
    the rename and moved back. A commit entered inside another joins it. In
    a commit, writing a file already read or written (symlinks resolved)
    raises ValueError before its temp file opens, and so does reading a file
    already staged; writing over a directory raises IsADirectoryError there too."""
    global _reads
    if _reads is not None:
        yield
        return
    _reads, renamed, asides = set(), 0, []
    try:
        yield
        for path, tmp in _staged.values():
            aside = tmp + "~" if os.path.lexists(path) else None
            if aside:
                _naming(path, os.replace, path, aside)
            asides.append(aside)
            _naming(path, os.replace, tmp, path)
            renamed += 1
    except BaseException:
        for i, (path, tmp) in enumerate(_staged.values()):
            os.unlink(path if i < renamed else tmp)
            if i < len(asides) and asides[i]:
                os.replace(asides[i], path)
        raise
    else:
        for aside in filter(None, asides):
            os.unlink(aside)
    finally:
        _reads = None
        _staged.clear()


def _note_read(path: str | os.PathLike) -> None:
    """Note in the open commit that `path` is read: an input may not be written."""
    if _reads is not None:
        real = os.path.realpath(path)
        if real in _staged:
            raise ValueError(f"output {os.fspath(path)} would overwrite an input")
        _reads.add(real)


def _stage(path: str | os.PathLike) -> BinaryIO:
    """A new temp file in the open commit that becomes `path` when it ends."""
    path = os.fspath(path)
    real = os.path.realpath(path)
    if real in _reads or real in _staged:
        clash = "overwrite an input" if real in _reads else "be written twice"
        raise ValueError(f"output {path} would {clash}")
    if os.path.isdir(path):  # its rename would fail after other outputs had replaced theirs
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    out = _naming(path, open, tmp, "xb")  # 0o666 less the umask
    _staged[real] = (path, tmp)
    return out


def _write(files: list[tuple[str, bytes, Callable | None]], values=()) -> None:
    """Stage each of `files`, (path, header, encoder), in a commit: its
    header, then each row block of `values` (an array or an iterable of
    blocks) as its encoder makes it; a file whose encoder is None is its
    header only. The temp files, and a generator of blocks, are closed when
    the writing ends or fails."""
    blocks = values if not isinstance(values, np.ndarray) else (
        values[r0:r1] for r0, r1 in row_ranges(*values.shape[:2]))
    with commit(), contextlib.ExitStack() as stack:
        if hasattr(blocks, "close"):  # a stream stops its threads when closed
            stack.callback(blocks.close)
        outs = [stack.enter_context(_stage(path)) for path, _, _ in files]
        for out, (_, header, _) in zip(outs, files):
            out.write(header)
        for block in blocks:
            for out, (_, _, encode) in zip(outs, files):
                if encode is not None:
                    out.write(encode(block))
            del block  # not held while the next block is built


def _f4(what: str) -> Callable[[np.ndarray], np.ndarray]:
    """The encoder of a block of `what` values as <f4, every value of which
    must be finite: a value beyond float32's range would be cast to inf."""
    def encode(block: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            f4 = np.ascontiguousarray(block, dtype="<f4")
        if not np.isfinite(f4).all():
            raise ValueError(f"{what} values must be finite in float32")
        return f4
    return encode


def write_f4(path: str | os.PathLike, values: np.ndarray | Iterable[np.ndarray],
             what: str) -> None:
    """`values`, an array or its row blocks, as raw <f4 at `path`; a value
    not finite in float32 raises ValueError naming `what`, and no file is left."""
    _write([(path, b"", _f4(what))], values)


def _pgm(threshold: float | None) -> Callable[[np.ndarray], np.ndarray]:
    """The mask encoder, one byte per pixel: 255 where the block is >=
    `threshold` or, when `threshold` is None, where the block, a mask, is
    True. A block to be thresholded must be finite, so that no NaN becomes
    a 0 unseen."""
    def encode(block: np.ndarray) -> np.ndarray:
        if threshold is None:
            return (block != 0) * np.uint8(255)
        if not np.isfinite(block).all():
            raise ValueError("map values must be finite")
        return (block >= threshold) * np.uint8(255)
    return encode


def write_map(blocks: np.ndarray | Iterable[np.ndarray], rows: int, cols: int,
              raster=None, mask=None, threshold: float | None = None) -> None:
    """Write a rows x cols map, an array or its row blocks, in one pass: as
    a float raster at path `raster`, with its sidecar, and/or as a PGM mask
    at path `mask` of the pixels >= `threshold`, or of the map itself as a
    mask when `threshold` is None. When it writes a raster or applies a
    threshold, a value that is not finite (in float32, for a raster) in any
    block raises ValueError and no file is left."""
    files = []
    if raster is not None:
        sidecar = json.dumps({"rows": rows, "cols": cols}).encode()
        files += [(raster, b"", _f4("map")), (f"{os.fspath(raster)}.json", sidecar, None)]
    if mask is not None:
        files.append((mask, f"P5\n{cols} {rows}\n255\n".encode("ascii"), _pgm(threshold)))
    _write(files, blocks)


def write_json(path: str | os.PathLike, doc) -> None:
    """`doc` as indented JSON: manifests, models, reports and metrics. NaN
    and Infinity are not JSON: a document holding one raises ValueError."""
    _write([(path, json.dumps(doc, indent=2, allow_nan=False).encode(), None)])


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json_object(path: str | os.PathLike, what: str) -> dict:
    """Parse a UTF-8 JSON file that must hold an object; NaN and Infinity are not JSON."""
    path = os.fspath(path)
    _note_read(path)
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
    _note_read(path)
    n, stray = divmod(os.path.getsize(path), np.dtype(dtype).itemsize)
    if (n, stray) != (count, 0):
        extra = f" and {stray} stray bytes" if stray else ""
        raise ValueError(f"{what}: payload has {n} samples{extra}, expected {count}")


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
        px = np.ascontiguousarray(self.pixels, dtype=np.uint16)  # from a PGM or a u16le payload
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
        check_band_ids([b.spec.id for b in self.bands], "stack")
        ordered = tuple(sorted(self.bands, key=lambda b: CANONICAL_ORDER.index(b.spec.id)))
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
            check_payload_size(payload_path, "<u2", rows * cols, f"{what} ({payload_path})")
            data = np.fromfile(payload_path, dtype="<u2", count=rows * cols)
            bands.append(Band(spec, data.reshape(rows, cols)))
    except (KeyError, TypeError, OverflowError) as e:
        detail = f"missing {e}" if isinstance(e, KeyError) else e
        raise ValueError(f"malformed manifest {manifest_path}: {detail}") from None
    return BandStack(tuple(bands), extent_m)


def save_stack(stack: BandStack, manifest_path: str | os.PathLike) -> None:
    """Write manifest + one raw u16le payload per band next to it,
    `<stem>_<band id>.u16`, in one commit."""
    with commit():
        entries = []
        for b in stack.bands:
            payload = f"{os.path.splitext(manifest_path)[0]}_{b.spec.id}.u16"
            _write([(payload, b"", lambda block: np.ascontiguousarray(block, dtype="<u2"))],
                   b.pixels)
            entries.append({"id": b.spec.id, "wavelength_nm": b.spec.wavelength_nm,
                            "native_gsd_m": b.spec.native_gsd_m, "rows": b.rows, "cols": b.cols,
                            "file": os.path.basename(payload), "dtype": "u16le"})
        write_json(manifest_path, {"extent_m": stack.extent_m, "bands": entries})


# ---------------------------------------------------------------------------
# PGM

def _pgm_header(f: BinaryIO) -> tuple[int, int, np.dtype]:
    """rows, cols and sample dtype of the binary PGM open as `f`, which is
    left at the first payload byte. A payload shorter than rows x cols
    samples raises ValueError; trailing bytes after it are ignored."""
    magic = f.read(2)
    if magic != b"P5":
        raise ValueError(f"unsupported PGM variant {magic.decode('ascii', 'replace')!r} "
                         "(binary P5 required)")
    # header: magic, width, height, maxval as whitespace-separated positive
    # decimal integers; '#' comments run to the end of the line or the file
    tokens, c = [], f.read(1)
    while len(tokens) < 3:
        while c.isspace():
            c = f.read(1)
        if c == b"#":
            f.readline()
            c = f.read(1)
            continue
        token = bytearray()
        while c and not c.isspace():
            token += c
            c = f.read(1)
        if not token.isdigit() or int(token) == 0:
            raise ValueError(f"bad PGM header: expected a positive integer, got {bytes(token)!r}")
        tokens.append(int(token))
    # `c`, the single whitespace after maxval, has been read
    cols, rows, maxval = tokens
    if maxval not in (255, 65535):
        raise ValueError(f"PGM maxval {maxval} not supported (255 or 65535)")
    dtype = np.dtype(np.uint8 if maxval == 255 else ">u2")
    have = max(os.fstat(f.fileno()).st_size - f.tell(), 0) // dtype.itemsize
    if have < rows * cols:
        raise ValueError(f"truncated PGM payload: {have} < {rows * cols}")
    return rows, cols, dtype


def _pgm_rows(f: BinaryIO, n_rows: int, cols: int, dtype: np.dtype) -> np.ndarray:
    """The next `n_rows` rows of the PGM payload open as `f`."""
    return np.frombuffer(f.read(n_rows * cols * dtype.itemsize), dtype=dtype).reshape(n_rows, cols)


def _read_pgm(path: str | os.PathLike) -> np.ndarray:
    _note_read(path)
    with open(path, "rb") as f:
        rows, cols, dtype = _pgm_header(f)
        return _pgm_rows(f, rows, cols, dtype)


def import_pgm_band(path: str | os.PathLike, spec: BandSpec) -> Band:
    """Read a binary PGM as a band; 8-bit values are widened, not rescaled."""
    return Band(spec, _read_pgm(path))


def read_mask(path: str | os.PathLike) -> np.ndarray:
    """A PGM mask as a 2-D bool array: True (plastic) where the value is > 0."""
    return _read_pgm(path) > 0


@contextlib.contextmanager
def mask_rows(path: str | os.PathLike) -> Iterator[tuple[tuple[int, int], Iterator[np.ndarray]]]:
    """The (rows, cols) of the PGM mask at `path`, from its header alone,
    and an iterator of its row blocks (`row_ranges`) as `read_mask` would
    give them, each read from the payload when it is asked for."""
    _note_read(path)
    with open(path, "rb") as f:
        rows, cols, dtype = _pgm_header(f)
        yield (rows, cols), (_pgm_rows(f, r1 - r0, cols, dtype) > 0
                             for r0, r1 in row_ranges(rows, cols))


def write_mask(labels: np.ndarray, path: str | os.PathLike) -> None:
    """The 2-D bool mask `labels` as a PGM mask."""
    write_map(labels, *labels.shape, mask=path)


# ---------------------------------------------------------------------------
# float raster

def write_float_raster(values: np.ndarray, path: str | os.PathLike) -> None:
    """values: 2-D grid of finite numbers -> raw f32le + JSON sidecar."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("values must be a non-empty 2-D grid")
    write_map(values, *values.shape, raster=path)
