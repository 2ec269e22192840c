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
    n_identities: int = 8
    samples_per_identity: int = 8
    attack_types: tuple[str, ...] = ATTACK_TYPES
    attack_strength: float = 0.5
    noise_sigma: float = 0.05
    channels_a: int = 3
    channels_b: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_identities < 6:
            raise ValueError("need at least 6 identities for identity-disjoint splits")
        if not 0.0 < self.attack_strength <= 1.0:
            raise ValueError("attack_strength must be in (0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.samples_per_identity < 1 or self.image_size < 8:
            raise ValueError("degenerate generator spec")
        unknown = set(self.attack_types) - set(ATTACK_TYPES)
        if unknown:
            raise ValueError(f"unknown attack types: {sorted(unknown)}")
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
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + img.shape[0], dx : dx + img.shape[1]]
    return out / 9.0


def _relief_view(field: np.ndarray) -> np.ndarray:
    """Fixed deterministic transform of the field: gradient magnitude, blurred."""
    gy, gx = np.gradient(field)
    gm = np.sqrt(gy**2 + gx**2)
    gm = _box_blur(_box_blur(gm))
    return (gm - gm.min()) / (gm.max() - gm.min() + 1e-12)


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5) / 255.0


def _texture(spec: GeneratorSpec) -> np.ndarray:
    """Fixed high-frequency pattern added to channel A by visible attacks."""
    s = spec.image_size
    pos = (np.arange(s) + 0.5) / s
    wave = np.sin(2.0 * np.pi * 8.0 * pos)
    return 0.5 * np.outer(wave, wave)


def bonafide_pair(
    spec: GeneratorSpec, identity_idx: int, slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """The bonafide observation for (identity, slot), quantized to the 8-bit
    grid. Attack samples start from exactly this pair, so the channel an
    attack does not touch is byte-equal to the bonafide draw."""
    field, gains = _identity_basis(spec, identity_idx)
    noise_a = _rng(spec, identity_idx, slot, _STREAM_NOISE_A).normal(
        scale=spec.noise_sigma, size=(spec.channels_a, spec.image_size, spec.image_size)
    )
    noise_b = _rng(spec, identity_idx, slot, _STREAM_NOISE_B).normal(
        scale=spec.noise_sigma, size=(spec.channels_b, spec.image_size, spec.image_size)
    )
    x_a = _quantize(gains[:, None, None] * field[None, :, :] + noise_a)
    x_b = _quantize(_relief_view(field)[None, :, :] + noise_b)
    return x_a, x_b


def _apply_attack(
    spec: GeneratorSpec, attack: str, x_a: np.ndarray, x_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    s = spec.attack_strength
    if attack in ("A_VISIBLE", "BOTH_VISIBLE"):
        x_a = _quantize(x_a + s * _texture(spec)[None, :, :])
    if attack in ("B_VISIBLE", "BOTH_VISIBLE"):
        # flatten local relief: fine structure (sensor noise, sharp ridges)
        # is smoothed away entirely; the strength sets how much of the
        # remaining large-scale relief collapses toward the image mean
        smooth = np.stack([_box_blur(_box_blur(ch)) for ch in x_b])
        flat = x_b.mean(axis=(1, 2), keepdims=True)
        x_b = _quantize((1.0 - s) * smooth + s * flat)
    return x_a, x_b


def generate(spec: GeneratorSpec) -> list[MultiModalSample]:
    """Deterministic sample list: per identity, samples_per_identity bonafide
    observations followed by the same count of each configured attack type."""
    samples: list[MultiModalSample] = []
    kinds = [BONAFIDE, *spec.attack_types]
    for ident in range(spec.n_identities):
        identity = f"id{ident:03d}"
        slot = 0
        for kind in kinds:
            for _ in range(spec.samples_per_identity):
                x_a, x_b = bonafide_pair(spec, ident, slot)
                if kind != BONAFIDE:
                    x_a, x_b = _apply_attack(spec, kind, x_a, x_b)
                samples.append(
                    MultiModalSample(
                        id=f"{identity}-{slot:04d}-{kind.lower()}",
                        identity=identity,
                        x_a=x_a,
                        x_b=x_b,
                        label=1 if kind == BONAFIDE else 0,
                        attack_type=kind,
                    )
                )
                slot += 1
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
    50 samples.
    """
    if channel not in ("a", "b"):
        raise ValueError(f"channel must be 'a' or 'b', got {channel!r}")
    ordered = sorted(samples, key=lambda s: s.id)
    xs = np.stack(
        [(s.x_a if channel == "a" else s.x_b).ravel() for s in ordered]
    )
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
        centroids = np.stack(
            [xs[train & (ys == label)].mean(axis=0) for label in (0, 1)]
        )
        test = ~train
        d0 = np.linalg.norm(xs[test] - centroids[0], axis=1)
        d1 = np.linalg.norm(xs[test] - centroids[1], axis=1)
        predicted = (d1 < d0).astype(int)
        correct += int((predicted == ys[test]).sum())
    return correct / len(ys)
