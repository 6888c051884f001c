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

A RAST file is read in one place, a loop that checks the header and
payload size before any value is read and then converts fixed-size
chunks of whole pixels to float64 blocks.  A probability map is
validated in one place, a block-wise check (which also renormalizes
small sum drift in place) that the ``ProbabilityMap`` constructor runs
over its own array and ``iter_probability_blocks`` over the blocks as
they are read.  ``load_probability_map`` converts the chunks straight
into the float64 array the returned map keeps, so no copy of the file's
bytes or of the map exists next to it; ``iter_probability_blocks``
holds no map at all.  Both report a rejected map as a
``RasterFormatError`` naming the file.

All container types are immutable after construction (their arrays are
marked read-only, and an array the caller still holds is copied rather
than frozen) and safe to share across threads.
"""

from __future__ import annotations

import os
import struct
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

# float32 values read from a RAST file at a time, rounded down to whole
# pixels: 1 MiB.
_CHUNK_VALUES = 1 << 18
# Values per block of the constructor's check of a probability map,
# rounded down to whole pixels.
_BLOCK_VALUES = 1 << 16


class RasterFormatError(ValueError):
    """A raster file violates the RAST or PGM format contract."""


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
    """An array that no caller holds, handed to `ProbabilityMap` to keep
    as it is instead of the copy it makes of a caller's array."""

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
        pixels = arr.reshape(-1, arr.shape[2])
        step = max(1, _BLOCK_VALUES // arr.shape[2])
        for lo in range(0, len(pixels), step):
            check.add(pixels[lo : lo + step])
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


@dataclass(frozen=True, eq=False)
class ScoreMap:
    """H x W anomaly scores in [0, 1]; higher means more anomalous."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        with np.errstate(invalid="ignore"):  # as in ProbabilityMap
            arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"score map must be 2-d and nonempty, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("score map contains non-finite values")
        # Tolerate (and clamp) rounding excursions up to 1e-12 outside [0, 1].
        if arr.min() < -1e-12 or arr.max() > 1.0 + 1e-12:
            raise ValueError("scores must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        object.__setattr__(self, "scores", _frozen(arr, self.scores))

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True, eq=False)
class Sample:
    """A probability map paired with its ground-truth mask."""

    id: str
    pmap: ProbabilityMap
    mask: LabelMask

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be nonempty")
        if (self.pmap.height, self.pmap.width) != (self.mask.height, self.mask.width):
            raise ValueError(
                f"sample {self.id!r}: probability map is "
                f"{self.pmap.height}x{self.pmap.width} but mask is "
                f"{self.mask.height}x{self.mask.width}"
            )


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An ordered collection of samples with unique identifiers."""

    samples: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("sample identifiers must be unique")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    @property
    def ids(self) -> tuple:
        return tuple(s.id for s in self.samples)


# ---------------------------------------------------------------------------
# RAST binary format
# ---------------------------------------------------------------------------


def _rast_bytes(arr: np.ndarray) -> bytes:
    h, w, c = arr.shape
    header = _MAGIC + struct.pack("<III", h, w, c)
    return header + np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _rast_dims(head: bytes, size: int, source: str) -> tuple:
    """(H, W, C) of a RAST file of `size` bytes that begins with `head`,
    after checking the magic, the dimensions and that the payload holds
    exactly H*W*C float32 values."""
    if len(head) < _HEADER_LEN:
        raise RasterFormatError(f"{source}: truncated header")
    if head[:8] != _MAGIC:
        raise RasterFormatError(f"{source}: bad magic {head[:8]!r}")
    h, w, c = struct.unpack("<III", head[8:_HEADER_LEN])
    if h == 0 or w == 0 or c == 0 or h * w * c > _MAX_VALUES:
        raise RasterFormatError(f"{source}: dimension overflow ({h}x{w}x{c})")
    expected = _HEADER_LEN + 4 * h * w * c
    if size != expected:
        raise RasterFormatError(f"{source}: payload is {size} bytes, expected {expected}")
    return h, w, c


def _parse_rast(data: bytes, source: str) -> np.ndarray:
    """The values of the RAST bytes `data` as a read-only float32 view."""
    dims = _rast_dims(data, len(data), source)
    return np.frombuffer(data, dtype="<f4", offset=_HEADER_LEN).reshape(dims)


@contextmanager
def _open_rast(path):
    """Open the RAST file at `path` for one pass over its values.

    Yields its (H, W, C), checked together with the file size before any
    value is read, and `blocks`, a generator function of the values in
    raster order as float64 N x C blocks of whole pixels.  The payload is
    read floor(`_CHUNK_VALUES` / C) pixels (at least one) at a time, so
    the file's bytes are never held whole.  `blocks(out)` converts each
    chunk into the matching rows of `out`, an H*W x C float64 array;
    `blocks()` converts them into one reused block, which the consumer is
    done with before it asks for the next.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_LEN)
        h, w, c = dims = _rast_dims(head, os.fstat(fh.fileno()).st_size, str(path))

        def blocks(out=None):
            pixels = h * w
            step = max(1, _CHUNK_VALUES // c)
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
    chunk of the file converted into its slice of the array."""
    with _open_rast(path) as (dims, blocks):
        out = np.empty(dims)
        for _ in blocks(out.reshape(-1, dims[2])):
            pass
    return out


def _read_file(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file via a temp sibling and rename, so readers never see
    a partial file."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    atomic_write_bytes(path, _rast_bytes(pmap.values))


def load_score_map(path) -> ScoreMap:
    """Load a single-channel RAST score map; `ScoreMap` validates it.  A
    file with more channels is refused before any value is read."""
    with _open_rast(path) as ((h, w, c), blocks):
        if c != 1:
            raise RasterFormatError(f"{path}: score map must have C=1, got {c}")
        scores = np.empty((h, w))
        for _ in blocks(scores.reshape(-1, 1)):
            pass
    try:
        return ScoreMap(scores)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from exc


def save_score_map(smap: ScoreMap, path) -> None:
    atomic_write_bytes(path, _rast_bytes(smap.scores[:, :, None]))


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
    return np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(h, w)


def load_mask(
    path,
    ood_label: int = OOD_LABEL,
    ignore_label: int = IGNORE_LABEL,
    num_classes: int | None = None,
) -> LabelMask:
    """Load a PGM mask, remapping `ood_label`/`ignore_label` pixel values
    onto the canonical OOD_LABEL/IGNORE_LABEL markers.

    When `num_classes` is given, any other pixel value >= num_classes is
    rejected as an unknown label.
    """
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


def save_samples(samples: SampleSet, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in samples:
        save_probability_map(s.pmap, out / f"{s.id}.rast")
        save_mask(s.mask, out / f"{s.id}.pgm")


def _load_pair(rast: Path, ood_label: int, ignore_label: int) -> Sample:
    pgm = rast.with_suffix(".pgm")
    if not pgm.exists():
        raise RasterFormatError(f"{rast}: no matching mask {pgm.name}")
    pmap = load_probability_map(rast)
    mask = load_mask(
        pgm, ood_label=ood_label, ignore_label=ignore_label,
        num_classes=pmap.num_classes,
    )
    return Sample(rast.stem, pmap, mask)


def iter_samples(
    in_dir,
    ood_label: int = OOD_LABEL,
    ignore_label: int = IGNORE_LABEL,
):
    """Load every `<id>.rast` + `<id>.pgm` pair under a directory, one at
    a time, in id order; `.score.rast` files are ignored.

    The iterator keeps no reference to a sample it has yielded, so a
    consumer that drops each sample before asking for the next holds one
    probability map at a time.  Errors surface when the iterator reaches
    the offending pair, or at the end when the directory has none.
    """
    root = Path(in_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"{root} is not a directory")
    found = False
    for rast in sorted(root.glob("*.rast")):
        if rast.name.endswith(".score.rast"):
            continue
        found = True
        # Yielded straight from the call: no local of this frame keeps the
        # sample while the consumer works on it or the next one loads.
        yield _load_pair(rast, ood_label, ignore_label)
    if not found:
        raise RasterFormatError(f"{root}: no sample pairs found")


def load_samples(
    in_dir,
    ood_label: int = OOD_LABEL,
    ignore_label: int = IGNORE_LABEL,
) -> SampleSet:
    """Every sample of `iter_samples`, loaded at once into a `SampleSet`."""
    return SampleSet(tuple(iter_samples(in_dir, ood_label, ignore_label)))
