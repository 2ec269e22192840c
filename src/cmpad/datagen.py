"""Synthetic paired-channel dataset generator.

The generator's contract is per-channel visibility of attack classes:
A_VISIBLE attacks perturb only channel A, B_VISIBLE only channel B,
BOTH_VISIBLE both. The untouched channel of an attack sample is drawn
from the bonafide process for that identity/slot, byte for byte, so the
attack is genuinely invisible there. `oracle_separability` (a nearest
centroid classifier) is the acceptance bar for those contracts.

All randomness flows through counter-based streams keyed by
(seed, identity, slot, purpose), so generation is order- and
thread-independent. Pixel values land on the 8-bit grid k/255 so a
dataset round-trips through the on-disk raster format exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATTACK_TYPES = ("A_VISIBLE", "B_VISIBLE", "BOTH_VISIBLE")
BONAFIDE = "bonafide"

# purpose codes for per-sample random substreams
_STREAM_NOISE_A = 0
_STREAM_NOISE_B = 1
_STREAM_IDENTITY = 1_000_003


@dataclass(frozen=True)
class GeneratorSpec:
    image_size: int = 32
    n_identities: int = 12
    samples_per_identity: int = 12
    attack_types: tuple[str, ...] = ATTACK_TYPES
    attack_strength: float = 0.5
    noise_sigma: float = 0.05
    channels_a: int = 3
    channels_b: int = 1
    seed: int = 7

    def __post_init__(self) -> None:
        # 6 identities is the least an identity-disjoint 3-fold split takes
        for key, least in (("image_size", 8), ("n_identities", 6), ("samples_per_identity", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"generator.{key} must be >= {least}, got {getattr(self, key)!r}")
        if not 0.0 < self.attack_strength <= 1.0:
            raise ValueError(
                f"generator.attack_strength must be in (0, 1], got {self.attack_strength!r}"
            )
        if not 0 <= self.noise_sigma < float("inf"):  # written so that NaN fails it
            raise ValueError(
                f"generator.noise_sigma must be finite and >= 0, got {self.noise_sigma!r}"
            )
        unknown = [t for t in self.attack_types if t not in ATTACK_TYPES]
        if unknown:
            raise ValueError(f"generator.attack_types holds unknown attack types: {unknown}")
        if not self.attack_types:
            raise ValueError("generator.attack_types must name at least one attack type")
        if len(set(self.attack_types)) != len(self.attack_types):  # a repeat doubles its samples
            raise ValueError(
                f"generator.attack_types must be distinct, got {list(self.attack_types)}"
            )
        for key in ("channels_a", "channels_b"):
            if getattr(self, key) not in (1, 3):  # what an 8-bit PGM or PPM raster holds
                raise ValueError(f"generator.{key} must be 1 or 3, got {getattr(self, key)!r}")
        object.__setattr__(self, "attack_types", tuple(self.attack_types))


@dataclass(frozen=True)
class MultiModalSample:
    """One paired observation: both channel images plus protocol metadata."""

    id: str
    identity: str
    x_a: np.ndarray  # (channels_a, S, S) in [0, 1]
    x_b: np.ndarray  # (channels_b, S, S) in [0, 1]
    label: int  # 1 bonafide, 0 attack
    attack_type: str  # "bonafide" or one of ATTACK_TYPES


def _rng(spec: GeneratorSpec, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed & 0x7FFFFFFF, *key]))


def _identity_basis(spec: GeneratorSpec, identity_idx: int):
    """Per-identity smooth field (low-frequency cosine mix) and color gains."""
    rng = _rng(spec, _STREAM_IDENTITY, identity_idx)
    n_modes = 4
    coeffs = rng.normal(size=(n_modes, n_modes))
    for u in range(n_modes):
        for v in range(n_modes):
            coeffs[u, v] /= 1.0 + u + v
    s = spec.image_size
    pos = (np.arange(s) + 0.5) / s
    basis = [np.cos(np.pi * k * pos) for k in range(n_modes)]
    field = np.zeros((s, s))
    for u in range(n_modes):
        for v in range(n_modes):
            field += coeffs[u, v] * np.outer(basis[u], basis[v])
    field = (field - field.min()) / (field.max() - field.min() + 1e-12)
    gains = rng.uniform(0.5, 1.0, size=spec.channels_a)
    return field, gains


def _box_blur(img: np.ndarray) -> np.ndarray:
    """3x3 mean over the last two axes, edges replicated; leading axes are a stack."""
    h, w = img.shape[-2:]
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += padded[..., dy : dy + h, dx : dx + w]
    return out / 9.0


def _relief_view(field: np.ndarray) -> np.ndarray:
    """Fixed deterministic transform of the field: gradient magnitude, blurred."""
    gy, gx = np.gradient(field)
    gm = np.sqrt(gy**2 + gx**2)
    gm = _box_blur(_box_blur(gm))
    return (gm - gm.min()) / (gm.max() - gm.min() + 1e-12)


def _quantize(img: np.ndarray) -> np.ndarray:
    """Rounds `img` to the 8-bit grid k/255 in place and returns it."""
    np.clip(img, 0.0, 1.0, out=img)
    img *= 255.0
    img += 0.5
    np.floor(img, out=img)
    img /= 255.0
    return img


def _texture(spec: GeneratorSpec) -> np.ndarray:
    """Fixed high-frequency pattern added to channel A by visible attacks."""
    s = spec.image_size
    pos = (np.arange(s) + 0.5) / s
    wave = np.sin(2.0 * np.pi * 8.0 * pos)
    return 0.5 * np.outer(wave, wave)


def _identity_views(
    spec: GeneratorSpec, identity_idx: int
) -> tuple[np.ndarray, np.ndarray]:
    """The noise-free views of one identity: the channel-A mean (color
    gains times the field), (channels_a, S, S), and the channel-B relief,
    (1, S, S). Every slot of the identity adds its own noise to these."""
    field, gains = _identity_basis(spec, identity_idx)
    return gains[:, None, None] * field[None, :, :], _relief_view(field)[None, :, :]


def _bonafide_stack(
    spec: GeneratorSpec, identity_idx: int, slots: range,
    views: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Quantized bonafide (x_a, x_b) stacks, one row per slot; each slot and
    channel draws its noise from its own (identity, slot, purpose) stream."""
    stacks = []
    for purpose, channels, view in zip(
        (_STREAM_NOISE_A, _STREAM_NOISE_B), (spec.channels_a, spec.channels_b), views
    ):
        shape = (channels, spec.image_size, spec.image_size)
        noisy = np.empty((len(slots), *shape))
        for row, slot in enumerate(slots):
            noisy[row] = _rng(spec, identity_idx, slot, purpose).normal(
                scale=spec.noise_sigma, size=shape
            )
        noisy += view
        stacks.append(_quantize(noisy))
    return stacks[0], stacks[1]


def bonafide_pair(
    spec: GeneratorSpec, identity_idx: int, slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """The bonafide observation for (identity, slot), quantized to the 8-bit
    grid. Attack samples start from exactly this pair, so the channel an
    attack does not touch is byte-equal to the bonafide draw."""
    views = _identity_views(spec, identity_idx)
    x_a, x_b = _bonafide_stack(spec, identity_idx, range(slot, slot + 1), views)
    return x_a[0], x_b[0]


def _apply_attack(
    spec: GeneratorSpec, attack: str, x_a: np.ndarray, x_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The attack on (n, C, S, S) stacks; each sample gets the same arithmetic
    as it would alone."""
    s = spec.attack_strength
    if attack in ("A_VISIBLE", "BOTH_VISIBLE"):
        x_a = _quantize(x_a + s * _texture(spec))
    if attack in ("B_VISIBLE", "BOTH_VISIBLE"):
        # flatten local relief: fine structure (sensor noise, sharp ridges)
        # is smoothed away entirely; the strength sets how much of the
        # remaining large-scale relief collapses toward the image mean
        smooth = _box_blur(_box_blur(x_b))
        flat = x_b.mean(axis=(-2, -1), keepdims=True)
        x_b = _quantize((1.0 - s) * smooth + s * flat)
    return x_a, x_b


def generate(spec: GeneratorSpec) -> list[MultiModalSample]:
    """Deterministic sample list: per identity, samples_per_identity bonafide
    observations followed by the same count of each configured attack type.

    Each identity's noise-free views are built once. The slots of one kind
    are generated as one stack, and samples are views into it, so a stack
    holds exactly the pixels of its own samples."""
    samples: list[MultiModalSample] = []
    n = spec.samples_per_identity
    for ident in range(spec.n_identities):
        identity = f"id{ident:03d}"
        views = _identity_views(spec, ident)
        for k, kind in enumerate([BONAFIDE, *spec.attack_types]):
            slots = range(k * n, (k + 1) * n)
            x_a, x_b = _bonafide_stack(spec, ident, slots, views)
            if kind != BONAFIDE:
                x_a, x_b = _apply_attack(spec, kind, x_a, x_b)
            samples.extend(
                MultiModalSample(
                    id=f"{identity}-{slot:04d}-{kind.lower()}",
                    identity=identity,
                    x_a=x_a[row],
                    x_b=x_b[row],
                    label=1 if kind == BONAFIDE else 0,
                    attack_type=kind,
                )
                for row, slot in enumerate(slots)
            )
    return samples


def oracle_separability(samples: Sequence[MultiModalSample], channel: str) -> float:
    """Accuracy of a brute-force nearest-centroid classifier on one channel.

    Two-fold cross-validated: class centroids are fit on one half of the
    data (even positions, after sorting by sample id) and score the other
    half, then the folds swap. Held-out scoring keeps identical class
    distributions near chance instead of inheriting resubstitution
    optimism. This is the generator's acceptance oracle: a channel an
    attack is supposed to be invisible in must score near chance, a
    channel it is visible in must score high. Each class needs at least
    50 samples. Centroids are running sums over the samples' own rasters,
    so no copy of the group is made.
    """
    if channel not in ("a", "b"):
        raise ValueError(f"channel must be 'a' or 'b', got {channel!r}")
    ordered = sorted(samples, key=lambda s: s.id)
    xs = [s.x_a if channel == "a" else s.x_b for s in ordered]
    ys = np.array([s.label for s in ordered])
    counts = {label: int((ys == label).sum()) for label in (0, 1)}
    if min(counts.values()) == 0:
        raise ValueError("both classes must be present")
    if min(counts.values()) < 50:
        raise ValueError("need at least 50 samples per class")

    # fold assignment: alternate within each class so folds stay balanced
    fold = np.empty(len(ys), dtype=int)
    for label in (0, 1):
        idx = np.nonzero(ys == label)[0]
        fold[idx] = np.arange(len(idx)) % 2

    correct = 0
    for test_fold in (0, 1):
        train = fold != test_fold
        sums = np.zeros((2, xs[0].size))
        for i in np.flatnonzero(train):
            sums[ys[i]] += xs[i].ravel()  # each class's rows in order, as a mean sums them
        centroids = sums / np.bincount(ys[train], minlength=2)[:, None]
        for i in np.flatnonzero(~train):
            x = xs[i].ravel()
            d0, d1 = (np.sqrt(np.square(x - c).sum()) for c in centroids)
            correct += int((d1 < d0) == ys[i])
    return correct / len(ys)
