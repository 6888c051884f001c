"""Output checks for one workload run, written independently of metaseg.

Nothing here imports the package under test.  Files are parsed with
numpy and the csv module, and every recomputed value uses its own
algorithm: pair counting for the LOO AUROC, a sort-based tie-aware
Mann-Whitney statistic for the pixel AUROC, and entropy from the raw
probabilities for score maps and hot-pixel totals.

For the default seed the artifacts promised to be byte-stable are also
compared by SHA-256 against `digests.json`, taken on the commit that
introduced the benchmark.  Model files are not compared byte for byte;
they are checked through the `eval-meta` report they produce.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np

OOD, IGNORE = 254, 255
THRESHOLD = 0.7
DIGESTS = Path(__file__).with_name("digests.json")

# Byte-stable artifacts of each workload; a trailing "/" digests every
# file of a directory as one artifact.
ARTIFACTS = {
    "walkthrough": ["scored/", "segments.csv", "mu.csv", "report.csv",
                    "loo.csv", "scores.csv", "loo_mlp.csv", "ordering.csv",
                    "split.csv", "pixel_report.csv", "roc.svg", "pr.svg"],
    "dense": ["segments.csv", "mu.csv", "report.csv"],
    "cityscapes": ["scored/", "pixel_report.csv", "mu.csv"],
}


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------


def read_rast(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != b"RASTv001":
        raise ValueError(f"{path}: not a RAST file")
    h, w, c = struct.unpack("<III", data[8:20])
    return np.frombuffer(data, dtype="<f4", offset=20).reshape(h, w, c)


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    # One whitespace byte ends the header; pixel bytes may look like spaces.
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if m is None:
        raise ValueError(f"{path}: not a binary 8-bit PGM")
    w, h = int(m.group(1)), int(m.group(2))
    return np.frombuffer(data, dtype=np.uint8, offset=m.end()).reshape(h, w)


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_report(path) -> dict:
    return {r["metric"]: r["value"] for r in read_rows(path)}


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digest(workdir: Path, artifact: str) -> str:
    if artifact.endswith("/"):
        h = hashlib.sha256()
        for p in sorted((workdir / artifact).iterdir()):
            h.update(f"{p.name} {sha256_file(p)}\n".encode())
        return h.hexdigest()
    return sha256_file(workdir / artifact)


# ---------------------------------------------------------------------------
# Independent recomputations
# ---------------------------------------------------------------------------


def normalized_entropy(probs: np.ndarray) -> np.ndarray:
    p = probs.astype(np.float64)
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -plogp.sum(axis=-1) / np.log(p.shape[-1])


def pair_count_auroc(scores, positive):
    """AUROC by counting positive-negative pairs, ties counted half.

    Also returns the share of pairs tied in `scores`: when the scores are
    rounded copies, each such pair may have been ordered either way in
    the unrounded data, so the true AUROC lies within half of it.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(positive, dtype=bool)
    pos, neg = s[y][:, None], s[~y][None, :]
    pairs = pos.size * neg.size
    wins = np.count_nonzero(pos > neg)
    ties = np.count_nonzero(pos == neg)
    return (wins + 0.5 * ties) / pairs, ties / pairs


def mann_whitney_auroc(scores, positive) -> tuple:
    """Tie-aware Mann-Whitney AUROC by one sort and mid-ranks.

    Returns (auroc, positives, negatives)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(positive, dtype=bool)
    order = np.argsort(s, kind="mergesort")
    ss = s[order]
    starts = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    ends = np.r_[starts[1:], ss.size]
    midrank = (starts + 1 + ends) / 2.0
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(midrank, ends - starts)
    p = int(y.sum())
    n = s.size - p
    return (ranks[y].sum() - p * (p + 1) / 2.0) / (p * n), p, n


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------


class Results:
    """Named pass/fail outcomes of one run's checks."""

    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})

    def run(self, name: str, fn, *args) -> None:
        """Run one check; an exception, such as a missing file, fails it."""
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _check_counts(wd: Path, report: str):
    labels = [int(r["label"]) for r in read_rows(wd / "mu.csv")]
    rep = read_report(wd / report)
    want = (sum(labels), len(labels) - sum(labels))
    got = (int(rep["positives"]), int(rep["negatives"]))
    auroc = float(rep["auroc"])
    return got == want and 0.0 <= auroc <= 1.0, f"counts {got} vs mu.csv {want}"


def _check_segments_vs_mu(wd: Path):
    seg = read_rows(wd / "segments.csv")
    mu = read_rows(wd / "mu.csv")
    same = len(seg) == len(mu) and all(
        s["group_id"] == m["group_id"]
        and s["is_false_positive"] == m["label"]
        and float(s["size"]) == float(m["size"])
        for s, m in zip(seg, mu)
    )
    return same, f"{len(seg)} components, {len(mu)} metric rows"


def _check_loo_auroc(wd: Path):
    rows = read_rows(wd / "scores.csv")
    mu = read_rows(wd / "mu.csv")
    scores = [float(r["score"]) for r in rows]
    labels = [r["label"] == "1" for r in rows]
    aligned = labels == [m["label"] == "1" for m in mu] and \
        [r["group_id"] for r in rows] == [m["group_id"] for m in mu]
    ours, tied = pair_count_auroc(scores, labels)
    reported = float(read_report(wd / "loo.csv")["auroc"])
    ok = aligned and _close(ours, reported, 0.5 * tied + 1e-8)
    return ok, f"pair count {ours:.9g} vs reported {reported:.9g} (tied {tied:.3g})"


def _check_pixel_auroc(wd: Path, masks_dir: Path):
    scores, positive = [], []
    for sp in sorted((wd / "scored").glob("*.score.rast")):
        mask = read_pgm(masks_dir / sp.name.replace(".score.rast", ".pgm"))
        keep = mask != IGNORE
        scores.append(read_rast(sp)[:, :, 0][keep])
        positive.append(mask[keep] == OOD)
    ours, p, n = mann_whitney_auroc(np.concatenate(scores), np.concatenate(positive))
    rep = read_report(wd / "pixel_report.csv")
    ok = (_close(ours, float(rep["auroc"]), 1e-8)
          and (p, n) == (int(rep["positives"]), int(rep["negatives"])))
    return ok, f"Mann-Whitney {ours:.9g} vs reported {rep['auroc']}; {p}/{n} pixels"


def _check_score_maps(wd: Path, scenes: Path):
    worst = 0.0
    paths = sorted(scenes.glob("*.rast"))
    for p in paths:
        ours = normalized_entropy(read_rast(p))
        theirs = read_rast(wd / "scored" / f"{p.stem}.score.rast")[:, :, 0]
        worst = max(worst, float(np.abs(ours - theirs).max()))
    return bool(paths) and worst <= 1e-5, f"{len(paths)} maps, max |diff| {worst:.3g}"


def _check_split(wd: Path, scenes: Path):
    rows = read_rows(wd / "split.csv")
    masks = sorted(scenes.glob("*.pgm"))
    ok = len(rows) == len(masks)
    for r, p in zip(rows, masks):
        m = read_pgm(p)
        frac = np.count_nonzero(m == OOD) / np.count_nonzero(m != IGNORE)
        bucket = "low" if frac <= 0.2 else "high" if frac >= 0.8 else "rest"
        ok &= (r["id"] == p.stem and r["ood_fraction"] == f"{frac:.9g}"
               and r["bucket"] == bucket)
    return ok, f"{len(rows)} masks"


def _check_hot_pixels(wd: Path, inputs: Path):
    hot = sum(int(np.count_nonzero(normalized_entropy(read_rast(p)) >= THRESHOLD))
              for p in sorted(inputs.glob("*.rast")))
    total = sum(int(r["size"]) for r in read_rows(wd / "segments.csv"))
    return hot == total, f"entropy >= t: {hot} px; segments.csv sizes: {total} px"


def _check_mu_sizes(wd: Path):
    hot = sum(int(np.count_nonzero(read_rast(p) >= THRESHOLD))
              for p in sorted((wd / "scored").glob("*.score.rast")))
    total = sum(float(r["size"]) for r in read_rows(wd / "mu.csv"))
    return hot == total, f"score >= t: {hot} px; mu.csv sizes: {total:.0f} px"


def _check_digest(wd: Path, artifact: str, want: str | None):
    got = artifact_digest(wd, artifact)
    return got == want, f"sha256 {got[:16]} vs recorded {str(want)[:16]}"


def check_outputs(workload: str, wd: Path, inputs: Path, default_seed: bool):
    """Run every check of a workload on the outputs in `wd`.  Returns
    (Results, digests of the byte-stable artifacts that exist)."""
    res = Results()
    if workload == "walkthrough":
        scenes = wd / "scenes"
        res.run("score_maps_match_entropy", _check_score_maps, wd, scenes)
        res.run("segments_match_metric_rows", _check_segments_vs_mu, wd)
        for report in ("report.csv", "loo.csv", "loo_mlp.csv"):
            res.run(f"{report}_counts", _check_counts, wd, report)
        res.run("loo_auroc_pair_count", _check_loo_auroc, wd)
        res.run("split_fractions", _check_split, wd, scenes)
        res.run("pixel_auroc_mann_whitney", _check_pixel_auroc, wd, scenes)
    elif workload == "dense":
        res.run("hot_pixel_total", _check_hot_pixels, wd, inputs)
        res.run("segments_match_metric_rows", _check_segments_vs_mu, wd)
        res.run("report.csv_counts", _check_counts, wd, "report.csv")
    elif workload == "cityscapes":
        res.run("pixel_auroc_mann_whitney", _check_pixel_auroc, wd, inputs)
        res.run("mu_sizes_match_hot_pixels", _check_mu_sizes, wd)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    digests = {}
    for artifact in ARTIFACTS[workload]:
        try:
            digests[artifact] = artifact_digest(wd, artifact)
        except OSError:
            pass
    if default_seed:
        recorded = json.loads(DIGESTS.read_text()).get(workload, {})
        for artifact in ARTIFACTS[workload]:
            res.run(f"digest:{artifact}", _check_digest, wd, artifact,
                    recorded.get(artifact))
    return res, digests
