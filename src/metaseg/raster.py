"""Raster containers and file IO for the anomaly-segmentation pipeline.

Three rasters flow through the pipeline: per-pixel class probabilities
(H x W x C), ground-truth label masks (H x W), and anomaly score maps
(H x W).  Probability and score rasters live in a small binary format
("RAST"): 8-byte magic ``RASTv001``, three little-endian u32 dimensions
H, W, C, then H*W*C little-endian float32 values, row-major with the
class axis fastest-varying.  Masks are binary (P5) PGM files, maxval
255.

Label conventions: class indices run dense from 0.  Pixels labeled
``OOD_LABEL`` (254) are out-of-distribution ground truth; pixels labeled
``IGNORE_LABEL`` (255) are excluded from every loss, metric, and
evaluation.  Loader arguments remap other file conventions onto these
canonical values.

Every pass over a map's pixels walks N x C blocks of one size,
``_BLOCK_VALUES`` (64 Ki values, rounded down to whole pixels): an
array in memory through ``_array_blocks``, a file through the one RAST
read loop, which checks the header and payload size before any value is
read.  A probability map is validated in one place, a block-wise check
(which also renormalizes small sum drift in place) that the
``ProbabilityMap`` constructor runs over the blocks of its own array and
``iter_probability_blocks`` over the blocks as they are read; both
loaders report a rejected map as a ``RasterFormatError`` naming the
file.  ``load_probability_map`` converts the blocks straight into the
float64 array the returned map keeps; ``iter_probability_blocks`` holds
no map at all.  A score map's checks and clamp are likewise one
block-wise check, run by the ``ScoreMap`` constructor and by
``_open_score_map``, the one reader of score files, as the file is read:
``load_score_map`` reads a file into the float64 array its map keeps,
and pixel evaluation reads only the kept values, straight into its
pooled array.  A ``Sample`` and a ``SampleFile`` hand out their map as
the same block stream (``probability_blocks``).  ``iter_sample_files``
lists a sample directory (``probability_map_paths``) reading only each
map's header, and refuses a map whose class count is not the first
map's.  A RAST file is written header first, then block by block as
float32.

All container types are immutable after construction (their arrays are
marked read-only, and an array the caller still holds is copied rather
than frozen) and safe to share across threads.  `thread_map` is the one
way the package starts threads: an ordered map over at most
`worker_count()` threads, on which the `score`, `segments` and
`metrics` steps work their maps of at least `_THREAD_MIN_VALUES` values.
"""

from __future__ import annotations

import os
import struct
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OOD_LABEL = 254
IGNORE_LABEL = 255

_MAGIC = b"RASTv001"
_HEADER_LEN = len(_MAGIC) + 12
# Refuse payloads above 2^28 values (1 GiB of f32) as corrupt headers.
_MAX_VALUES = 1 << 28

# Per-pixel probability sums within this tolerance of 1 are accepted.
PROB_SUM_TOL = 1e-5
# Deviations at or below this level are float32 quantization noise of an
# already-normalized vector; renormalizing them would break bit-exact
# round-trips, so they pass through untouched.
_PROB_SUM_EXACT = 1e-7

# Values per block of every pass over a map's pixels (the constructor's
# check, RAST reads and writes, the per-pixel kernels), rounded down to
# whole pixels and at least one pixel: 512 KiB as float64.
_BLOCK_VALUES = 1 << 16
# Values (H*W*C) a map must hold for `thread_map` to give its work to a
# thread.  `metrics` at 2 threads against
# one, wall (CPU) seconds, medians of 9 runs on a 2-CPU host: 50 maps of
# 64x64x19, 0.29 -> 0.30 (0.29 -> 0.39); two 128x256x19 maps of 1.6k
# components each (0.62 Mi values), 0.22 -> 0.23 (0.22 -> 0.28); two
# such maps at 192x384x19 (1.4 Mi), 0.49 -> 0.44 (0.48 -> 0.55); two
# 512x1024x19 maps (10 Mi), 0.54 -> 0.34 (0.54 -> 0.60).  Maps with few
# components gain from 1.4 Mi values on; maps with many gain little below
# a few Mi and pay for it in CPU.
_THREAD_MIN_VALUES = 1 << 21


class RasterFormatError(ValueError):
    """A raster file violates the RAST or PGM format contract."""


def _array_blocks(values: np.ndarray):
    """The pixels of the ... x C array `values` in raster order, as N x C
    views of floor(`_BLOCK_VALUES` / C) pixels (at least one) each, the
    last one partial."""
    pixels = values.reshape(-1, values.shape[-1])
    step = max(1, _BLOCK_VALUES // pixels.shape[1])
    for lo in range(0, len(pixels), step):
        yield pixels[lo : lo + step]


def _frozen(arr: np.ndarray, given) -> np.ndarray:
    """`arr`, derived from the caller's value `given`, as a read-only
    C-contiguous array for a container to keep; copied only while it
    shares memory with the caller's array, which thus stays writeable."""
    arr = np.ascontiguousarray(arr)
    if isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


class _Unshared:
    """An array that no caller holds, handed to `ProbabilityMap` or
    `ScoreMap` to keep as it is instead of a copy of a caller's array."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


class _ProbabilityCheck:
    """The checks of an H x W x C probability map, fed its pixels in
    raster order as float64 N x C blocks, so that no array of the map's
    size is needed beyond the map itself.

    The shape is checked on construction.  `add` renormalizes in place
    every pixel of a block whose sum drifts from 1 by more than float32
    quantization noise but within ``PROB_SUM_TOL``.  `finish` raises the
    map's first fault in this order: the first non-finite value in raster
    order, a value outside [0, 1], then the pixel whose sum is furthest
    from 1 (the first of several equally far).
    """

    def __init__(self, shape: tuple) -> None:
        h, w, c = shape
        if h < 1 or w < 1 or c < 2:
            raise ValueError(f"invalid probability map shape {shape}")
        self.shape = shape
        self.pixels = 0
        self.lo, self.hi = np.inf, -np.inf
        self.non_finite = None  # flat index of the first non-finite value
        self.dev, self.dev_pixel, self.dev_sum = -1.0, 0, 1.0

    def add(self, block: np.ndarray) -> None:
        """Check the map's next pixels, the rows of `block`."""
        start = self.pixels
        self.pixels += len(block)
        if self.non_finite is not None:
            return
        # min and max propagate NaN, so both are finite only when every
        # value is; only then are the sums taken.
        lo, hi = block.min(), block.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            first = int(np.isfinite(block).reshape(-1).argmin())
            self.non_finite = start * self.shape[2] + first
            return
        self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
        sums = block.sum(axis=1)
        dev = np.abs(sums - 1.0)
        i = int(dev.argmax())
        if dev[i] > self.dev:
            self.dev, self.dev_pixel, self.dev_sum = dev[i], start + i, sums[i]
        renorm = (dev > _PROB_SUM_EXACT) & (dev <= PROB_SUM_TOL)
        if renorm.any():
            block[renorm] /= sums[renorm][:, None]

    def finish(self) -> None:
        """Raise `ValueError` for the first fault of the pixels added."""
        if self.non_finite is not None:
            r, col, k = np.unravel_index(self.non_finite, self.shape)
            raise ValueError(f"non-finite value at ({r}, {col}, {k})")
        if self.lo < 0.0 or self.hi > 1.0:
            raise ValueError("probabilities outside [0, 1]")
        if self.dev > PROB_SUM_TOL:
            r, col = divmod(self.dev_pixel, self.shape[1])
            raise ValueError(f"pixel ({r}, {col}) probabilities sum to {self.dev_sum:.8f}")


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """H x W x C per-pixel class probabilities, each pixel summing to 1.

    Pixels whose probability sum drifts from 1 by more than float32
    quantization noise (1e-7) but at most ``PROB_SUM_TOL`` (1e-5) are
    renormalized, whether the map was loaded or built in memory; larger
    deviations are rejected.  Sums exact to that noise are left untouched
    so that an unmodified save reproduces a loaded file bit for bit.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.values, _Unshared):
            arr = self.values.array
        else:
            # A copy of the caller's values.  A float32 signalling NaN
            # warns in the cast; the check below rejects it.
            with np.errstate(invalid="ignore"):
                arr = np.array(self.values, dtype=np.float64, order="C")
        if arr.ndim != 3:
            raise ValueError(f"probability map must be 3-d, got shape {arr.shape}")
        check = _ProbabilityCheck(arr.shape)
        for block in _array_blocks(arr):
            check.add(block)
        check.finish()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def num_classes(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class LabelMask:
    """H x W ground-truth labels: class indices plus OOD/IGNORE markers."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"label mask must be 2-d and nonempty, got {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("labels must be integers")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("labels must fit in a byte")
            arr = arr.astype(np.uint8)
        object.__setattr__(self, "labels", _frozen(arr, self.labels))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def is_ood(self) -> np.ndarray:
        return self.labels == OOD_LABEL

    def is_ignore(self) -> np.ndarray:
        return self.labels == IGNORE_LABEL

    def is_class(self) -> np.ndarray:
        return (self.labels != OOD_LABEL) & (self.labels != IGNORE_LABEL)


class _ScoreCheck:
    """The checks of an H x W score map, fed its values in blocks, so that
    a map read from a file is checked as it is read.

    The shape is checked on construction.  `add` tells whether a block
    holds values to clamp into [0, 1].  `finish` raises the map's first
    fault in this order: a non-finite value, then a value more than
    1e-12 outside [0, 1]."""

    def __init__(self, shape: tuple) -> None:
        if len(shape) != 2 or 0 in shape:
            raise ValueError(f"score map must be 2-d and nonempty, got {shape}")
        self.finite = True
        self.lo, self.hi = np.inf, -np.inf

    def add(self, block: np.ndarray) -> bool:
        """Check the map's next values, `block`; True if it holds finite
        values outside [0, 1]."""
        # min and max propagate NaN: both are finite iff every value is.
        lo, hi = float(block.min()), float(block.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            self.finite = False
            return False
        self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
        return lo < 0.0 or hi > 1.0

    def finish(self) -> None:
        """Raise `ValueError` for the first fault of the values added."""
        if not self.finite:
            raise ValueError("score map contains non-finite values")
        if self.lo < -1e-12 or self.hi > 1.0 + 1e-12:
            raise ValueError("scores must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class ScoreMap:
    """H x W anomaly scores in [0, 1]; higher means more anomalous.  Values
    up to 1e-12 outside [0, 1] are clamped; in-range values keep their bits."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.scores, _Unshared):
            arr = self.scores.array
        else:
            with np.errstate(invalid="ignore"):  # as in ProbabilityMap
                arr = np.asarray(self.scores, dtype=np.float64)
        check = _ScoreCheck(arr.shape)
        clamp = check.add(arr)
        check.finish()
        if clamp:
            arr = np.clip(arr, 0.0, 1.0)
        object.__setattr__(self, "scores", _frozen(arr, self.scores))

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]


def _check_sample_dims(sample_id: str, dims: tuple, mask: LabelMask) -> None:
    if tuple(dims) != (mask.height, mask.width):
        raise ValueError(
            f"sample {sample_id!r}: probability map is {dims[0]}x{dims[1]} "
            f"but mask is {mask.height}x{mask.width}"
        )


@dataclass(frozen=True, eq=False)
class Sample:
    """A probability map paired with its ground-truth mask."""

    id: str
    pmap: ProbabilityMap
    mask: LabelMask

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be nonempty")
        _check_sample_dims(self.id, self.dims[:2], self.mask)

    @property
    def dims(self) -> tuple:
        """The map's (H, W, C), as `SampleFile.dims`."""
        return self.pmap.values.shape

    def probability_blocks(self):
        """The map's (H, W, C), then its pixels in raster order as N x C
        blocks, as `SampleFile.probability_blocks` yields those of a file."""
        yield self.dims
        yield from _array_blocks(self.pmap.values)


@dataclass(frozen=True, eq=False)
class SampleFile:
    """A sample whose probability map stays on disk: the RAST file at
    `path`, its (H, W, C) `dims` checked from the header and the file
    size, and its loaded ground-truth mask."""

    id: str
    path: Path
    dims: tuple
    mask: LabelMask

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be nonempty")
        _check_sample_dims(self.id, self.dims[:2], self.mask)

    def probability_blocks(self):
        """The map's (H, W, C), then its pixels read, checked and
        renormalized block by block (`iter_probability_blocks`)."""
        return iter_probability_blocks(self.path)


# ---------------------------------------------------------------------------
# RAST binary format
# ---------------------------------------------------------------------------


@contextmanager
def _open_rast(path):
    """Open the RAST file at `path` for one pass over its values.

    Yields its (H, W, C), after checking the magic, the dimensions and
    that the payload holds exactly H*W*C float32 values, before any value
    is read, and `blocks`, a generator function of the values in
    raster order as float64 N x C blocks of whole pixels.  The payload is
    read in the blocks `_array_blocks` walks, so the file's bytes are
    never held whole.  `blocks(out)` converts each block into the
    matching rows of `out`, an H*W x C float64 array; `blocks()` converts
    them into one reused block, which the consumer is done with before it
    asks for the next.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_LEN)
        if len(head) < _HEADER_LEN:
            raise RasterFormatError(f"{path}: truncated header")
        if head[:8] != _MAGIC:
            raise RasterFormatError(f"{path}: bad magic {head[:8]!r}")
        h, w, c = dims = struct.unpack("<III", head[8:])
        if h == 0 or w == 0 or c == 0 or h * w * c > _MAX_VALUES:
            raise RasterFormatError(f"{path}: dimension overflow ({h}x{w}x{c})")
        size, expected = os.fstat(fh.fileno()).st_size, _HEADER_LEN + 4 * h * w * c
        if size != expected:
            raise RasterFormatError(f"{path}: payload is {size} bytes, expected {expected}")

        def blocks(out=None):
            pixels = h * w
            step = max(1, _BLOCK_VALUES // c)
            chunk = np.empty((min(pixels, step), c), dtype="<f4")
            reused = np.empty(chunk.shape) if out is None else None
            for lo in range(0, pixels, step):
                part = chunk[: pixels - lo]
                if fh.readinto(part) != part.nbytes:
                    raise RasterFormatError(f"{path}: file shrank while being read")
                block = reused[: len(part)] if out is None else out[lo : lo + len(part)]
                # A float32 signalling NaN warns in the cast; the
                # containers reject it.
                with np.errstate(invalid="ignore"):
                    block[...] = part
                yield block

        yield dims, blocks


def _read_rast(path) -> np.ndarray:
    """The values of a RAST file as a new float64 H x W x C array, each
    block of the file converted into its slice of the array."""
    with _open_rast(path) as (dims, blocks):
        out = np.empty(dims)
        for _ in blocks(out.reshape(-1, dims[2])):
            pass
    return out


def _read_file(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@contextmanager
def _atomic_file(path):
    """A binary file opened for writing at a temp sibling of `path` and
    renamed onto it when the block ends without an exception, so readers
    never see a partial file; on an exception the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file via a temp sibling and rename, so readers never see
    a partial file."""
    with _atomic_file(path) as fh:
        fh.write(data)


def check_rast_size(h: int, w: int, c: int) -> None:
    """Raise ValueError if an H x W x C map holds more values than a RAST
    file may (`_MAX_VALUES`, read at call time)."""
    if h * w * c > _MAX_VALUES:
        raise ValueError(f"a {h}x{w}x{c} map has {h * w * c} values, "
                         f"above the RAST limit of {_MAX_VALUES}")


def _write_rast(fh, arr: np.ndarray) -> None:
    """Write the H x W x C array `arr` to the binary file `fh` as RAST:
    the header, then the blocks of `_array_blocks` converted to float32
    one at a time, so no copy of the array or of the file's bytes is ever
    held.  An array that no reader would accept is refused before the
    header is written."""
    check_rast_size(*arr.shape)
    fh.write(_MAGIC + struct.pack("<III", *arr.shape))
    for block in _array_blocks(arr):
        fh.write(block.astype("<f4"))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def csv_field(text: str) -> str:
    """`text` as one CSV field, quoted when it holds a comma, a quote or
    a line break (`csv.writer`'s minimal quoting as of Python 3.13;
    earlier versions leave a lone carriage return unquoted, which a
    reader takes for the end of the record)."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(records) -> str:
    """CSV text of `records` (sequences of two or more strings) as every
    CSV of the pipeline writes it: minimal quoting, "\n" line ends."""
    return "".join(",".join(map(csv_field, rec)) + "\n" for rec in records)


def worker_count() -> int:
    """The number of workers a step may run at once: the threads of
    `thread_map` (the maps of `score`, `segments` and `metrics`) and the
    fold processes of leave-one-out and incremental evaluation.
    `METASEG_THREADS` sets it (1 keeps every step in one thread); by
    default it is the number of CPUs this process may run on, at most 8."""
    raw = os.environ.get("METASEG_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        return min(cpus, 8)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"METASEG_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError("METASEG_THREADS must be >= 1")
    return n


def thread_map(fn, items, values):
    """`fn(item)` of each of `items`, yielded in item order, computed on
    up to `worker_count()` threads.

    At most `worker_count()` items are drawn ahead of the result being
    consumed, so at most that many are in work or waiting at once.  An
    item goes to a thread only if `values(item)`, the number of map
    values its work walks, is at least `_THREAD_MIN_VALUES`; any other
    item runs in the calling thread when it is drawn.  A result
    does not depend on the thread that computes it.  Errors come out as
    from `map(fn, items)`: the first failing item's, or the one raised
    while drawing or sizing an item, held until every item drawn before
    it has been consumed.  Once an error is raised, or the consumer stops
    early, no item is drawn, the queued ones are cancelled, and the
    threads are joined (so the running ones close their files) before it
    returns.
    """
    workers = worker_count()
    items = iter(items)
    if workers < 2:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    draw_error = None
    try:
        while True:
            while items is not None and len(pending) < workers:
                try:
                    item = next(items)
                    threaded = values(item) >= _THREAD_MIN_VALUES
                except StopIteration:
                    items = None
                    break
                except Exception as exc:
                    draw_error, items = exc, None
                    break
                if threaded:
                    pending.append(pool.submit(fn, item))
                else:
                    done = Future()
                    try:
                        done.set_result(fn(item))
                    except Exception as exc:
                        done.set_exception(exc)
                        items = None  # as `map`, draw nothing after it
                    pending.append(done)
                # Drop the item, so that only its work holds it.
                del item
            if not pending:
                if draw_error is not None:
                    raise draw_error
                return
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def load_probability_map(path) -> ProbabilityMap:
    """Load a RAST probability map into the array the map keeps;
    `ProbabilityMap` validates it and renormalizes small sum drift."""
    arr = _read_rast(path)
    try:
        return ProbabilityMap(_Unshared(arr))
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc


def iter_probability_blocks(path):
    """The (H, W, C) of the RAST probability map at `path`, then its
    values in raster order as float64 N x C blocks of whole pixels,
    checked and renormalized as `load_probability_map` does, with no
    H x W x C array ever held.

    One block is reused for the next, so a consumer is done with a block
    before it asks for the next.  A map `load_probability_map` refuses
    raises the same `RasterFormatError`: a bad shape before the first
    block, a bad value only after the last one, so nothing computed from
    the blocks holds until the generator is exhausted.
    """
    with _open_rast(path) as (dims, blocks):
        try:
            check = _ProbabilityCheck(dims)
            yield dims
            for block in blocks():
                check.add(block)
                yield block
            check.finish()
        except RasterFormatError:
            raise
        except ValueError as exc:
            raise RasterFormatError(f"{path}: {exc}") from exc


def save_probability_map(pmap: ProbabilityMap, path) -> None:
    with _atomic_file(path) as fh:
        _write_rast(fh, pmap.values)


@contextmanager
def _open_score_map(path):
    """Open the RAST score map at `path` for one read, the one way a score
    file is read.

    Yields its (H, W), checked together with the file size, and refused
    unless the file has one channel, before any value is read; and
    `read(out, keep=None)`, which reads the values in raster order block
    by block, checks and clamps each block as `ScoreMap` does, and writes
    it into `out`: every value into the H x W float64 array `out`, or,
    given `keep`, an H x W bool array, the values where it is True in
    order into the 1-d float array `out`.  A map `ScoreMap` refuses
    raises a `RasterFormatError` naming the file once every value is
    read.
    """
    with _open_rast(path) as ((h, w, c), blocks):
        if c != 1:
            raise RasterFormatError(f"{path}: score map must have C=1, got {c}")

        def read(out, keep=None):
            if keep is not None:
                # A caller that checked the header against the mask may
                # read a file replaced since.
                if keep.shape != (h, w):
                    raise RasterFormatError(
                        f"{path}: score map {h}x{w} does not match "
                        f"mask {keep.shape[0]}x{keep.shape[1]}"
                    )
                keep = keep.reshape(-1)
            check = _ScoreCheck((h, w))
            lo = at = 0
            for block in blocks(out.reshape(-1, 1) if keep is None else None):
                if check.add(block):
                    np.clip(block, 0.0, 1.0, out=block)
                if keep is not None:
                    kept = keep[lo : lo + len(block)]
                    n = int(np.count_nonzero(kept))
                    out[at : at + n] = block[kept, 0]
                    at += n
                lo += len(block)
            try:
                check.finish()
            except ValueError as exc:
                raise RasterFormatError(f"{path}: {exc}") from exc

        yield (h, w), read


def load_score_map(path) -> ScoreMap:
    """Load a single-channel RAST score map into the float64 array the map
    keeps, checked and clamped as it is read (`_open_score_map`).  A file
    with more channels is refused before any value is read."""
    with _open_score_map(path) as (dims, read):
        scores = np.empty(dims)
        read(scores)
    return ScoreMap(_Unshared(scores))


def save_score_map(smap: ScoreMap, path) -> None:
    with _atomic_file(path) as fh:
        _write_rast(fh, smap.scores[:, :, None])


# ---------------------------------------------------------------------------
# PGM masks
# ---------------------------------------------------------------------------


def _pgm_tokens(data: bytes, count: int, source: str) -> tuple:
    """Read `count` whitespace-separated header tokens, honoring # comments.

    Returns (tokens, offset of the byte after the single whitespace that
    terminates the last token).
    """
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise RasterFormatError(f"{source}: truncated PGM header")
        tokens.append(data[start:i])
    if i >= n:
        raise RasterFormatError(f"{source}: truncated PGM header")
    return tokens, i + 1


def _read_pgm(path) -> np.ndarray:
    data = _read_file(path)
    tokens, offset = _pgm_tokens(data, 4, str(path))
    if tokens[0] != b"P5":
        raise RasterFormatError(f"{path}: expected binary PGM (P5), got {tokens[0]!r}")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise RasterFormatError(f"{path}: malformed PGM header") from exc
    if w < 1 or h < 1:
        raise RasterFormatError(f"{path}: invalid PGM dimensions {w}x{h}")
    if not 0 < maxval <= 255:
        raise RasterFormatError(f"{path}: PGM maxval {maxval} unsupported (need <=255)")
    if len(data) - offset != w * h:
        raise RasterFormatError(
            f"{path}: PGM payload is {len(data) - offset} bytes, expected {w * h}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(h, w)
    if maxval < 255 and pixels.max() > maxval:
        r, c = np.argwhere(pixels > maxval)[0]
        raise RasterFormatError(
            f"{path}: pixel {pixels[r, c]} at ({r}, {c}) above PGM maxval {maxval}"
        )
    return pixels


def load_mask(
    path,
    ood_label: int = OOD_LABEL,
    ignore_label: int = IGNORE_LABEL,
    num_classes: int | None = None,
) -> LabelMask:
    """Load a PGM mask, remapping `ood_label`/`ignore_label` pixel values
    onto the canonical OOD_LABEL/IGNORE_LABEL markers.

    Both labels must fit in a byte and differ.  When `num_classes` is
    given, any other pixel value >= num_classes is rejected as an unknown
    label.
    """
    for name, v in (("ood_label", ood_label), ("ignore_label", ignore_label)):
        if not 0 <= v <= 255:
            raise ValueError(f"{name} must fit in a byte, got {v}")
    if ood_label == ignore_label:
        raise ValueError("ood_label and ignore_label must differ")
    raw = _read_pgm(path)
    ood_sel = raw == ood_label
    ign_sel = raw == ignore_label
    if num_classes is not None:
        if num_classes < 1 or num_classes > 254:
            raise ValueError(f"num_classes {num_classes} out of range")
        if ood_label < num_classes or ignore_label < num_classes:
            raise ValueError("ood/ignore labels collide with the class range")
        bad = ~ood_sel & ~ign_sel & (raw >= num_classes)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise RasterFormatError(f"{path}: unknown label {raw[r, c]} at ({r}, {c})")
    labels = raw.copy()
    labels[ood_sel] = OOD_LABEL
    labels[ign_sel] = IGNORE_LABEL
    return LabelMask(labels)


def save_mask(mask: LabelMask, path) -> None:
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + mask.labels.tobytes())


# ---------------------------------------------------------------------------
# Sample directories (<id>.rast + <id>.pgm pairs)
# ---------------------------------------------------------------------------


def _distinct_ids(samples):
    """`samples`, drawn one at a time as they are asked for, refusing
    with `ValueError` a sample whose id an earlier one has.  Nothing
    drawn is kept but its id."""
    seen = set()

    def checked(sample):
        if sample.id in seen:
            raise ValueError(f"sample ids must be unique: {sample.id!r} is repeated")
        seen.add(sample.id)
        return sample

    return map(checked, samples)


def save_samples(samples, out_dir) -> None:
    """Write `samples`, any iterable of `Sample`s such as a list or the
    scenes of `synth.generate`, as `<id>.rast` + `<id>.pgm` pairs
    under `out_dir`, in order.  Each sample is dropped before the next is
    drawn, so samples built as they are drawn are held one at a time.  A
    repeated id is refused before its files are written; the files
    written before an error stay."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in _distinct_ids(samples):
        save_probability_map(s.pmap, out / f"{s.id}.rast")
        save_mask(s.mask, out / f"{s.id}.pgm")
        # The loop would rebind `s` only after drawing the next sample.
        del s


def _probability_dims(path) -> tuple:
    """The (H, W, C) of the RAST probability map at `path`, checked
    against the file size and the shape a probability map needs before
    any value is read."""
    with _open_rast(path) as (dims, _):
        pass
    try:
        _ProbabilityCheck(dims)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc
    return dims


def probability_map_paths(in_dir) -> list:
    """The probability maps of a sample directory: its `*.rast` files
    but the `*.score.rast` score maps, sorted by name."""
    return [
        p for p in sorted(Path(in_dir).glob("*.rast"))
        if not p.name.endswith(".score.rast")
    ]


def iter_sample_files(
    in_dir,
    ood_label: int = OOD_LABEL,
    ignore_label: int = IGNORE_LABEL,
):
    """Every `<id>.rast` + `<id>.pgm` pair under a directory
    (`probability_map_paths`) as a `SampleFile`, one at a time, in id
    order.

    Only the map's header is read, and the mask is loaded and checked
    against the map's class count and dims.  Every map must have the
    class count of the first.  Errors surface when the iterator reaches
    the offending pair, or at the end when the directory has none.
    """
    root = Path(in_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"{root} is not a directory")
    classes = None
    for rast in probability_map_paths(root):
        pgm = rast.with_suffix(".pgm")
        if not pgm.exists():
            raise RasterFormatError(f"{rast}: no matching mask {pgm.name}")
        dims = _probability_dims(rast)
        if classes is None:
            classes = dims[2]
        elif dims[2] != classes:
            raise RasterFormatError(
                f"{rast}: probability map has C={dims[2]}, the first map has C={classes}"
            )
        mask = load_mask(
            pgm, ood_label=ood_label, ignore_label=ignore_label, num_classes=dims[2]
        )
        yield SampleFile(rast.stem, rast, dims, mask)
    if classes is None:
        raise RasterFormatError(f"{root}: no sample pairs found")
