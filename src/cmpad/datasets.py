"""On-disk dataset format, ingestion, and protocol construction.

Directory layout:

    <root>/manifest.tsv
    <root>/data/<id>_a.ppm   (channel A, 8-bit; .pgm when single-channel)
    <root>/data/<id>_b.pgm   (channel B, 8-bit synthetic; .ppm when 3-channel)
    <root>/data/<id>_b.d16   (channel B, 16-bit raw depth from real sensors)

The manifest is one tab-separated record per line with a fixed column
order and a header. 8-bit rasters are binary Netpbm (P6/P5, maxval
255). Raw depth uses the D16L container: ASCII header "D16L <w> <h>\\n"
followed by row-major little-endian uint16. Depth rasters are MAD
normalized on load; 8-bit rasters are divided by 255 as-is.

Protocols split at the identity level, so no identity ever appears in
two folds. Leave-one-out protocols additionally remove the excluded
attack from train/dev and reduce eval to bonafide plus that attack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .datagen import BONAFIDE, MultiModalSample
from .errors import DataError
from .preprocessing import mad_normalize

MANIFEST_NAME = "manifest.tsv"
MANIFEST_COLUMNS = ["id", "path_a", "path_b", "label", "attack_type", "identity", "fold_hint"]


@dataclass(frozen=True)
class ManifestRecord:
    id: str
    path_a: str
    path_b: str
    label: int
    attack_type: str
    identity: str
    fold_hint: str = ""


@dataclass(frozen=True)
class ProtocolSplit:
    """Identity-disjoint train/dev/eval partition by sample id."""

    name: str
    train: tuple[str, ...]
    dev: tuple[str, ...]
    eval: tuple[str, ...]
    excluded_attack: str | None = None


# ---------------------------------------------------------------------------
# rasters


def write_raster_8bit(path: Path, img: np.ndarray) -> None:
    """img: (C, H, W) floats in [0, 1]; C must be 1 (PGM) or 3 (PPM)."""
    c, h, w = img.shape
    data = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    if c == 3:
        header = f"P6\n{w} {h}\n255\n".encode()
        payload = data.transpose(1, 2, 0).tobytes()
    elif c == 1:
        header = f"P5\n{w} {h}\n255\n".encode()
        payload = data[0].tobytes()
    else:
        raise DataError(f"unsupported channel count {c} for 8-bit raster")
    path.write_bytes(header + payload)


def write_raster_d16(path: Path, depth: np.ndarray) -> None:
    """depth: (H, W) non-negative integers (sensor units), zero = invalid."""
    arr = np.asarray(depth)
    h, w = arr.shape
    if arr.min() < 0 or arr.max() > 0xFFFF:
        raise DataError("depth values out of uint16 range")
    path.write_bytes(
        f"D16L {w} {h}\n".encode() + arr.astype("<u2").tobytes()
    )


# Magic, width, height and maxval: each token a run of non-whitespace,
# led by any whitespace and `#` comments (to the end of their line). A
# `#` inside a token is part of it; a header cut short gives empty tokens.
_NETPBM_HEADER = re.compile(rb"(?:\s|#[^\n]*)*(\S*)" * 4)


def _read_netpbm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    header = _NETPBM_HEADER.match(raw)
    fields = list(header.groups())
    pos = header.end() + 1  # single whitespace after maxval
    try:
        magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
        if min(w, h) < 1:
            raise ValueError("raster size must be >= 1")
    except ValueError as exc:
        raise DataError(f"{path.name}: bad netpbm header {fields}") from exc
    if maxval != 255:
        raise DataError(f"{path.name}: only maxval 255 rasters supported")
    channels = {b"P6": 3, b"P5": 1}.get(magic)
    if channels is None:
        raise DataError(f"{path.name}: unsupported raster magic {magic!r}")
    count = w * h * channels
    if len(raw) - pos < count:
        raise DataError(f"{path.name}: truncated raster")
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    return data.reshape(h, w, channels).transpose(2, 0, 1) / 255.0


def _read_d16(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    try:
        header_end = raw.index(b"\n")
        magic, w, h = raw[:header_end].split()
        w, h = int(w), int(h)
        if min(w, h) < 1:
            raise ValueError("raster size must be >= 1")
    except ValueError as exc:
        raise DataError(f"{path.name}: bad D16L header") from exc
    if magic != b"D16L":
        raise DataError(f"{path.name}: unsupported raster magic {magic!r}")
    payload = raw[header_end + 1 :]
    if len(payload) < 2 * w * h:
        raise DataError(f"{path.name}: truncated raster")
    data = np.frombuffer(payload[: 2 * w * h], dtype="<u2")
    return data.reshape(h, w).astype(np.int64)


def read_channel(path: Path) -> np.ndarray:
    """Decode one channel raster to (C, H, W) floats in [0, 1]: a binary
    Netpbm raster (P5/P6, maxval 255; whitespace-separated header tokens,
    `#` comments to the end of their line, bytes after the raster ignored)
    divided by 255, or `.d16` raw depth MAD normalized at k = 3."""
    if path.suffix == ".d16":
        return mad_normalize(_read_d16(path))[None, :, :]
    return _read_netpbm(path)


# ---------------------------------------------------------------------------
# manifest + dataset IO


def write_manifest(path: Path, records: Sequence[ManifestRecord]) -> None:
    lines = ["\t".join(MANIFEST_COLUMNS)]
    for r in records:
        lines.append(
            "\t".join(
                [r.id, r.path_a, r.path_b, str(r.label), r.attack_type, r.identity, r.fold_hint]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def load_manifest(root: str | Path) -> list[ManifestRecord]:
    root = Path(root)
    path = root / MANIFEST_NAME
    if not path.is_file():
        raise DataError(f"missing manifest: {path}")
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].split("\t") != MANIFEST_COLUMNS:
        raise DataError(f"bad manifest header in {path}")
    records = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(MANIFEST_COLUMNS):
            raise DataError(f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} columns")
        if parts[3] not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {parts[3]!r}")
        rec = ManifestRecord(
            id=parts[0], path_a=parts[1], path_b=parts[2], label=int(parts[3]),
            attack_type=parts[4], identity=parts[5], fold_hint=parts[6],
        )
        if rec.id in seen:
            raise DataError(f"duplicate sample id: {rec.id}")
        seen.add(rec.id)
        # it names make_loo's leg directory, loo_<attack type lower-cased>
        if any(c in rec.attack_type for c in "/\\\0"):
            raise DataError(
                f"{path}:{lineno}: path separator or NUL in attack type {rec.attack_type!r}"
            )
        if len(f"loo_{rec.attack_type.lower()}".encode()) > 255:  # the usual file-name limit
            raise DataError(
                f"{path}:{lineno}: attack type {rec.attack_type[:20]!r}... makes a leg "
                "directory name longer than 255 bytes"
            )
        expected_label = 1 if rec.attack_type == BONAFIDE else 0
        if rec.label != expected_label:
            raise DataError(
                f"label {rec.label} inconsistent with attack_type "
                f"{rec.attack_type!r} for sample {rec.id}"
            )
        records.append(rec)
    kinds = sorted({r.attack_type for r in records})
    clashes = [k for k in kinds if [o.lower() for o in kinds].count(k.lower()) > 1]
    if clashes:  # make_loo's leg directories would be shared
        raise DataError(f"{path}: attack types differ only in case: {clashes}")
    return records


def save_dataset(
    samples: Sequence[MultiModalSample], root: str | Path, force: bool = False
) -> list[ManifestRecord]:
    root = Path(root)
    if root.exists() and any(root.iterdir()) and not force:
        raise DataError(f"output directory {root} is not empty (use force)")
    (root / "data").mkdir(parents=True, exist_ok=True)
    records = []
    for s in samples:
        path_a, path_b = (f"data/{s.id}_{ch}.{'ppm' if x.shape[0] == 3 else 'pgm'}"
                          for ch, x in (("a", s.x_a), ("b", s.x_b)))
        write_raster_8bit(root / path_a, s.x_a)
        write_raster_8bit(root / path_b, s.x_b)
        records.append(
            ManifestRecord(
                id=s.id, path_a=path_a, path_b=path_b, label=s.label,
                attack_type=s.attack_type, identity=s.identity,
            )
        )
    write_manifest(root / MANIFEST_NAME, records)
    return records


def load_dataset(
    root: str | Path,
    channels: tuple[str, ...] = ("a", "b"),
) -> tuple[list[MultiModalSample], list[ManifestRecord]]:
    """Decode a dataset directory into memory.

    `channels` restricts which rasters are opened; a channel that is not
    requested is never read from disk and its array is None in the
    returned samples (single-channel deployment relies on this).
    """
    root = Path(root)
    records = load_manifest(root)
    unknown = set(channels) - {"a", "b"}
    if unknown:
        raise DataError(f"unknown channels requested: {sorted(unknown)}")
    samples = []
    shapes: dict[str, tuple] = {}
    for rec in records:
        arrays: dict[str, np.ndarray | None] = {"a": None, "b": None}
        for ch, rel in (("a", rec.path_a), ("b", rec.path_b)):
            if ch not in channels:
                continue
            path = root / rel
            if not path.is_file():
                raise DataError(f"missing file: {path}")
            arr = read_channel(path)
            if ch in shapes and arr.shape != shapes[ch]:
                raise DataError(
                    f"shape mismatch for channel {ch} at {rec.id}: "
                    f"{arr.shape} != {shapes[ch]}"
                )
            shapes[ch] = arr.shape
            arrays[ch] = arr
        samples.append(
            MultiModalSample(
                id=rec.id, identity=rec.identity, x_a=arrays["a"], x_b=arrays["b"],
                label=rec.label, attack_type=rec.attack_type,
            )
        )
    return samples, records


# ---------------------------------------------------------------------------
# protocols


def _apportion(n: int, ratios: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment; earlier folds win remainder ties."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    ideal = [n * r for r in ratios]
    counts = [int(x) for x in ideal]
    remainders = sorted(
        range(len(ratios)), key=lambda i: (-(ideal[i] - counts[i]), i)
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _identity_folds(
    records: Sequence[ManifestRecord], ratios: Sequence[float], seed: int
) -> tuple[set[str], set[str], set[str]]:
    identities = sorted({r.identity for r in records})
    if len(identities) < 3:
        raise DataError(f"too few identities for a 3-fold split: {len(identities)}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    order = list(identities)
    rng.shuffle(order)
    counts = _apportion(len(order), ratios)
    if min(counts) == 0:  # every fold needs at least one identity
        counts = [max(1, c) for c in counts]
        while sum(counts) > len(order):
            counts[counts.index(max(counts))] -= 1
    a, b = counts[0], counts[0] + counts[1]
    return set(order[:a]), set(order[a:b]), set(order[b:])


def make_grandtest(
    records: Sequence[ManifestRecord],
    ratios: Sequence[float] = (0.5, 0.25, 0.25),
    seed: int = 0,
) -> ProtocolSplit:
    """All attack types distributed across identity-disjoint folds."""
    train_ids, dev_ids, eval_ids = _identity_folds(records, ratios, seed)
    pick = lambda idents: tuple(r.id for r in records if r.identity in idents)
    return ProtocolSplit(
        name="grandtest",
        train=pick(train_ids),
        dev=pick(dev_ids),
        eval=pick(eval_ids),
    )


def make_loo(
    records: Sequence[ManifestRecord],
    attack: str,
    ratios: Sequence[float] = (0.5, 0.25, 0.25),
    seed: int = 0,
) -> ProtocolSplit:
    """Unseen-attack protocol: `attack` is absent from train and dev, and
    eval holds only bonafide and `attack` samples.

    Folds stay identity-disjoint, so the excluded attack's samples from
    train/dev identities are dropped rather than leaked into eval.
    """
    known = {r.attack_type for r in records if r.attack_type != BONAFIDE}
    if attack not in known:
        raise DataError(f"unknown attack {attack!r}; manifest has {sorted(known)}")
    split = make_grandtest(records, ratios=ratios, seed=seed)
    kind = {r.id: r.attack_type for r in records}
    return ProtocolSplit(
        name=f"loo_{attack.lower()}",
        train=tuple(sid for sid in split.train if kind[sid] != attack),
        dev=tuple(sid for sid in split.dev if kind[sid] != attack),
        eval=tuple(sid for sid in split.eval if kind[sid] in (BONAFIDE, attack)),
        excluded_attack=attack,
    )


def validate_split(
    records: Sequence[ManifestRecord], split: ProtocolSplit
) -> None:
    """Assert the protocol invariants; raises DataError on violation."""
    by_id = {r.id: r for r in records}
    folds = {"train": split.train, "dev": split.dev, "eval": split.eval}
    ids_seen: set[str] = set()
    for fold_name, ids in folds.items():
        for sid in ids:
            if sid not in by_id:
                raise DataError(f"{split.name}: unknown sample id {sid} in {fold_name}")
        if ids_seen & set(ids):
            raise DataError(f"{split.name}: folds share sample ids")
        ids_seen |= set(ids)
        labels = {by_id[sid].label for sid in ids}
        for label, kind in ((1, "bonafide"), (0, "attack")):
            if label not in labels:  # no threshold or rate can be taken without both
                raise DataError(f"{split.name}: {fold_name} fold has no {kind} sample")
    identities = {
        fold_name: {by_id[sid].identity for sid in ids}
        for fold_name, ids in folds.items()
    }
    for a in ("train", "dev"):
        for b in ("dev", "eval"):
            if a != b and identities[a] & identities[b]:
                raise DataError(
                    f"{split.name}: identities overlap between {a} and {b}: "
                    f"{sorted(identities[a] & identities[b])}"
                )
    if split.excluded_attack is not None:
        for fold_name in ("train", "dev"):
            leaked = [
                sid
                for sid in folds[fold_name]
                if by_id[sid].attack_type == split.excluded_attack
            ]
            if leaked:
                raise DataError(
                    f"{split.name}: excluded attack present in {fold_name}: {leaked[:3]}"
                )
        bad = [
            sid
            for sid in split.eval
            if by_id[sid].attack_type not in (BONAFIDE, split.excluded_attack)
        ]
        if bad:
            raise DataError(f"{split.name}: eval contains foreign attacks: {bad[:3]}")
