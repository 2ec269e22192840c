"""Two-stream multi-head classifier, trained from scratch in numpy.

Each branch is a small stack of [3x3 conv -> ReLU -> 2x2 average pool]
blocks with filter count doubling per block, followed by global average
pooling and a linear map to a fixed-dimension embedding. Inside a branch
activations are batch-innermost (C, H, W, N): each conv layer is one
im2col GEMM over the whole batch, (F, C*9) @ (C*9, H*W*N), and every
strided copy and add in im2col, its scatter and the pools runs along the
contiguous batch axis. Scoring runs the same body without backward
caches, so each layer's cols and conv output are freed once it is
pooled. The two branch embeddings are concatenated into a joint
embedding, and three sigmoid heads (branch A, branch B, joint) each
apply one fully connected layer.

Everything runs in float64 so gradient checks can be tight. All
randomness is seeded and parameter draws follow a fixed name order, so
identical configs produce bit-identical parameter sets.
"""

from __future__ import annotations

import io
import json
import math
import struct
import sys
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadCheckpointFormat,
    CheckpointShapeMismatch,
    CheckpointVersionMismatch,
    TruncatedCheckpoint,
)
from .losses import LossParams, LossValue, combined_loss

_SIGMOID_CLIP = 1e-12


@dataclass(frozen=True)
class NetworkConfig:
    input_height: int = 32
    input_width: int = 32
    channels_a: int = 3
    channels_b: int = 1
    blocks_per_branch: int = 3
    base_filters: int = 16
    embedding_dim: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        blocks, dims = self.blocks_per_branch, (self.input_height, self.input_width)
        sizes = (self.channels_a, self.channels_b, self.base_filters, self.embedding_dim)
        if min(blocks, *sizes, *dims) < 1:
            raise ValueError("incompatible geometry: sizes and blocks must be >= 1")
        # shifts rather than 2**blocks, which a corrupt checkpoint could make huge
        if any(dim >> blocks << blocks != dim for dim in dims):
            raise ValueError(f"incompatible geometry: input dims not divisible by 2^{blocks}")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not self.learning_rate > 0:
            raise ValueError(f"optimizer.learning_rate must be > 0, got {self.learning_rate!r}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("optimizer.beta1 and optimizer.beta2 must be in [0, 1)")
        if not self.eps > 0:  # 0 divides by zero wherever a gradient stays 0
            raise ValueError(f"optimizer.eps must be > 0, got {self.eps!r}")
        if not self.weight_decay >= 0:  # < 0 grows every weight each step
            raise ValueError(f"optimizer.weight_decay must be >= 0, got {self.weight_decay!r}")


@dataclass
class ParameterSet:
    """Named weight arrays plus Adam state, owned by one trainer at a time."""

    config: NetworkConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def copy(self) -> "ParameterSet":
        return ParameterSet(
            config=self.config,
            params={k: v.copy() for k, v in self.params.items()},
            adam_m={k: v.copy() for k, v in self.adam_m.items()},
            adam_v={k: v.copy() for k, v in self.adam_v.items()},
            step=self.step,
        )


@dataclass(frozen=True)
class ForwardOutput:
    e_p: np.ndarray  # (N, D) branch-A embeddings
    e_q: np.ndarray  # (N, D) branch-B embeddings
    e_r: np.ndarray  # (N, 2D) concat(e_p, e_q)
    p: np.ndarray  # (N,) branch-A head probability
    q: np.ndarray  # (N,)
    r: np.ndarray  # (N,)


def _branch_channels(config: NetworkConfig, in_channels: int) -> list[tuple[int, int]]:
    chans = []
    c_in = in_channels
    for i in range(config.blocks_per_branch):
        c_out = config.base_filters * 2**i
        chans.append((c_in, c_out))
        c_in = c_out
    return chans


def parameter_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    d = config.embedding_dim
    for branch, c0 in (("a", config.channels_a), ("b", config.channels_b)):
        for i, (c_in, c_out) in enumerate(_branch_channels(config, c0)):
            shapes[f"branch_{branch}/conv{i}/W"] = (c_out, c_in, 3, 3)
            shapes[f"branch_{branch}/conv{i}/b"] = (c_out,)
        c_last = config.base_filters * 2 ** (config.blocks_per_branch - 1)
        shapes[f"branch_{branch}/embed/W"] = (d, c_last)
        shapes[f"branch_{branch}/embed/b"] = (d,)
    shapes["head_a/W"] = (d,)
    shapes["head_a/b"] = ()
    shapes["head_b/W"] = (d,)
    shapes["head_b/b"] = ()
    shapes["head_joint/W"] = (2 * d,)
    shapes["head_joint/b"] = ()
    return shapes


def init_network(config: NetworkConfig) -> ParameterSet:
    """Deterministic fan-in-scaled initialization; biases start at zero.

    Conv weights use sqrt(2/fan_in) (they feed a rectifier), linear maps
    use sqrt(1/fan_in). Draws happen in sorted name order from one
    seeded generator, so equal configs give bit-identical parameters.
    """
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    params: dict[str, np.ndarray] = {}
    for name, shape in sorted(parameter_shapes(config).items()):
        if name.endswith("/b"):
            params[name] = np.zeros(shape, dtype=np.float64)
            continue
        if "/conv" in name:
            fan_in = shape[1] * shape[2] * shape[3]
            std = np.sqrt(2.0 / fan_in)
        else:
            fan_in = shape[-1]
            std = np.sqrt(1.0 / fan_in)
        params[name] = rng.normal(0.0, std, size=shape)
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    return ParameterSet(
        config=config,
        params=params,
        adam_m={k: v.copy() for k, v in zeros.items()},
        adam_v=zeros,
        step=0,
    )


# ---------------------------------------------------------------------------
# primitives


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    # keep strictly inside (0, 1) even for saturating logits
    return np.clip(out, _SIGMOID_CLIP, 1.0 - _SIGMOID_CLIP)


def _conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-padding stride-1 3x3 convolution of a batch-innermost batch
    x (C, H, W, N) as one GEMM; returns (out (F, H, W, N), im2col cols)."""
    c, h, wd, n = x.shape
    f = w.shape[0]
    xp = np.zeros((c, h + 2, wd + 2, n))
    xp[:, 1 : h + 1, 1 : wd + 1] = x
    cols = np.empty((c, 9, h, wd, n))
    for idx in range(9):
        dy, dx = divmod(idx, 3)
        cols[:, idx] = xp[:, dy : dy + h, dx : dx + wd]
    cols = cols.reshape(c * 9, h * wd * n)  # row c*9 + idx matches w.reshape(f, c*9)
    out = w.reshape(f, c * 9) @ cols
    out += b[:, None]
    return out.reshape(f, h, wd, n), cols


def _conv2d_backward(dout: np.ndarray, cols: np.ndarray, w: np.ndarray, need_dx: bool):
    """(dx, dW, db) for dout (F, H, W, N); dx is None unless need_dx."""
    f, h, wd, n = dout.shape
    c = w.shape[1]
    dout2 = dout.reshape(f, h * wd * n)
    dw = (dout2 @ cols.T).reshape(w.shape)
    db = dout2.sum(axis=1)
    if not need_dx:
        return None, dw, db
    dcols = (w.reshape(f, c * 9).T @ dout2).reshape(c, 9, h, wd, n)
    dxp = np.zeros((c, h + 2, wd + 2, n))
    for idx in range(9):
        dy, dx = divmod(idx, 3)
        dxp[:, dy : dy + h, dx : dx + wd] += dcols[:, idx]
    return dxp[:, 1 : h + 1, 1 : wd + 1], dw, db


def _avgpool2(x: np.ndarray) -> np.ndarray:
    c, h, w, n = x.shape
    v = x.reshape(c, h // 2, 2, w // 2, 2, n)
    out = v[:, :, 0, :, 0] + v[:, :, 0, :, 1]
    out += v[:, :, 1, :, 0]
    out += v[:, :, 1, :, 1]
    return np.multiply(out, 0.25, out=out)


def _avgpool2_backward(dout: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Gradient through ReLU then 2x2 average pool: dout broadcasts to
    (C, H/2, W/2, N) and mask is the (C, H, W, N) ReLU mask. Repeating
    along W first keeps the broadcast write's inner loop W*N long."""
    c, h, w, n = mask.shape
    rows = np.repeat(np.broadcast_to(0.25 * dout, (c, h // 2, w // 2, n)), 2, axis=2)
    dx = np.empty((c, h // 2, 2, w, n))
    np.multiply(mask.reshape(dx.shape), rows[:, :, None], out=dx)
    return dx.reshape(mask.shape)


class _BranchCache:
    __slots__ = ("conv_cols", "relu_masks", "gap_in", "gap")

    def __init__(self):
        self.conv_cols: list[np.ndarray] = []
        self.relu_masks: list[np.ndarray] = []


def _branch_forward(params: ParameterSet, branch: str, x: np.ndarray,
                    cache: _BranchCache | None):
    """Branch embeddings (N, D); fills cache for the backward pass when
    one is given. Without one, each layer's cols and conv output are
    dropped as soon as the layer is pooled."""
    cfg = params.config
    cur = x.transpose(1, 2, 3, 0) - 0.5  # rasters arrive in [0, 1]; center them
    for i in range(cfg.blocks_per_branch):
        w = params.params[f"branch_{branch}/conv{i}/W"]
        b = params.params[f"branch_{branch}/conv{i}/b"]
        out, cols = _conv2d_forward(cur, w, b)
        np.maximum(out, 0.0, out=out)
        if cache is not None:
            cache.conv_cols.append(cols)
            cache.relu_masks.append(out > 0)
        cur = _avgpool2(out)
        del out, cols  # freed before the next layer allocates its own
    g = cur.mean(axis=(1, 2)).T  # (N, C_last)
    if cache is not None:
        cache.gap_in, cache.gap = cur, g
    we = params.params[f"branch_{branch}/embed/W"]
    be = params.params[f"branch_{branch}/embed/b"]
    return g @ we.T + be


def _branch_backward(params: ParameterSet, branch: str, cache: _BranchCache,
                     demb: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    cfg = params.config
    we = params.params[f"branch_{branch}/embed/W"]
    grads[f"branch_{branch}/embed/W"] += demb.T @ cache.gap
    grads[f"branch_{branch}/embed/b"] += demb.sum(axis=0)
    dg = demb @ we  # (N, C_last)
    dcur = (dg.T / math.prod(cache.gap_in.shape[1:3]))[:, None, None, :]  # broadcast over GAP input
    for i in reversed(range(cfg.blocks_per_branch)):
        dpre_relu = _avgpool2_backward(dcur, cache.relu_masks[i])
        wname = f"branch_{branch}/conv{i}/W"
        dcur, dw, db = _conv2d_backward(
            dpre_relu, cache.conv_cols[i], params.params[wname], need_dx=i > 0
        )
        grads[wname] += dw
        grads[f"branch_{branch}/conv{i}/b"] += db


def _head_forward(params: ParameterSet, head: str, emb: np.ndarray):
    w = params.params[f"head_{head}/W"]
    b = params.params[f"head_{head}/b"]
    logit = emb @ w + b
    return _sigmoid(logit)


def _as_batch(x: np.ndarray, channels: int, cfg: NetworkConfig, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[1:] != (channels, cfg.input_height, cfg.input_width):
        raise ValueError(
            f"{what} shape {arr.shape} incompatible with config "
            f"(batch, {channels}, {cfg.input_height}, {cfg.input_width})"
        )
    return arr


# Branches each head reads; a pass computes a head only when all of them ran.
HEAD_BRANCHES = {"a": ("a",), "b": ("b",), "joint": ("a", "b")}


def _forward(params: ParameterSet, x_a, x_b, cached: bool = False):
    """(ForwardOutput, caches): a branch runs when its channel is not None,
    and a head whose branches did not run is NaN, as is the embedding of
    a branch not run. caches holds the branches run when cached, else is
    empty. predict_score and harness.score_samples call this uncached, so
    a trace of forward_cached counts only passes that feed a backward."""
    cfg = params.config
    inputs = {}
    for branch, x, depth in (("a", x_a, cfg.channels_a), ("b", x_b, cfg.channels_b)):
        if x is not None:
            inputs[branch] = _as_batch(x, depth, cfg, f"channel-{branch.upper()} input")
    sizes = {x.shape[0] for x in inputs.values()}
    if len(sizes) != 1:
        raise ValueError("channel batches disagree in length" if sizes else "no channel given")
    emb, caches = {}, {}
    for branch, x in inputs.items():
        if cached:
            caches[branch] = _BranchCache()
        emb[branch] = _branch_forward(params, branch, x, caches.get(branch))
    (n,) = sizes
    absent = np.full((n, cfg.embedding_dim), np.nan)
    e_p, e_q = emb.get("a", absent), emb.get("b", absent)
    e_r = np.concatenate([e_p, e_q], axis=1)
    p, q, r = (
        _head_forward(params, head, e) if set(HEAD_BRANCHES[head]) <= emb.keys()
        else np.full(n, np.nan)
        for head, e in (("a", e_p), ("b", e_q), ("joint", e_r))
    )
    return ForwardOutput(e_p=e_p, e_q=e_q, e_r=e_r, p=p, q=q, r=r), caches


def forward_cached(
    params: ParameterSet, x_a: np.ndarray, x_b: np.ndarray
) -> tuple[ForwardOutput, tuple]:
    """Head probabilities for a batch of both channels, plus the
    per-branch caches that `backward_from_head_grads` needs."""
    if x_a is None or x_b is None:
        raise ValueError("forward_cached needs both channels")
    out, caches = _forward(params, x_a, x_b, cached=True)
    return out, (caches["a"], caches["b"])


def backward_from_head_grads(
    params: ParameterSet,
    output: ForwardOutput,
    caches,
    d_p: np.ndarray,
    d_q: np.ndarray,
    d_r: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients of the batch-mean loss, given per-sample partials
    w.r.t. the three head probabilities."""
    cache_a, cache_b = caches
    n = output.p.shape[0]
    d = params.config.embedding_dim
    grads = {k: np.zeros_like(v) for k, v in params.params.items()}

    def head_back(head: str, emb: np.ndarray, prob: np.ndarray, dprob: np.ndarray):
        dlogit = dprob * prob * (1.0 - prob) / n  # (N,)
        grads[f"head_{head}/W"] += dlogit @ emb
        grads[f"head_{head}/b"] += dlogit.sum()
        return dlogit[:, None] * params.params[f"head_{head}/W"][None, :]

    demb_a = head_back("a", output.e_p, output.p, np.asarray(d_p, dtype=np.float64))
    demb_b = head_back("b", output.e_q, output.q, np.asarray(d_q, dtype=np.float64))
    demb_r = head_back("joint", output.e_r, output.r, np.asarray(d_r, dtype=np.float64))
    demb_a = demb_a + demb_r[:, :d]
    demb_b = demb_b + demb_r[:, d:]
    _branch_backward(params, "a", cache_a, demb_a, grads)
    _branch_backward(params, "b", cache_b, demb_b, grads)
    return grads


def backward(
    params: ParameterSet,
    x_a: np.ndarray,
    x_b: np.ndarray,
    labels: Sequence[int],
    loss_params: LossParams,
):
    """Gradients of the batch-mean combined loss for every parameter.

    Returns (grads, batch LossValue, ForwardOutput). Joint-head gradients
    reach both branches through the concatenated embedding; each
    cross-modal term also routes gradient into the other branch through
    the damping weight unless loss_params.detach_weight is set.
    """
    ys = np.asarray(labels, dtype=np.int64)
    if ys.shape[0] == 0:
        raise ValueError("empty batch")
    output, caches = forward_cached(params, x_a, x_b)
    if output.p.shape[0] != ys.shape[0]:
        raise ValueError("labels disagree with batch length")
    lv = combined_loss(output.p, output.q, output.r, ys, loss_params)
    grads = backward_from_head_grads(params, output, caches, lv.d_p, lv.d_q, lv.d_r)
    batch = LossValue(
        value=lv.value.mean(), d_p=lv.d_p.mean(), d_q=lv.d_q.mean(), d_r=lv.d_r.mean()
    )
    return grads, batch, output


def adam_step(
    params: ParameterSet, grads: dict[str, np.ndarray], opt: OptimizerConfig
) -> ParameterSet:
    """One Adam update with bias correction and decoupled weight decay
    (a multiplicative shrink applied before the moment update). Pure:
    returns a new ParameterSet, leaving the input untouched."""
    t = params.step + 1
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    new_params, new_m, new_v = {}, {}, {}
    for name, weight in params.params.items():
        g = grads[name]
        theta = weight * (1.0 - opt.learning_rate * opt.weight_decay)
        m = new_m[name] = opt.beta1 * params.adam_m[name] + (1.0 - opt.beta1) * g
        v = new_v[name] = opt.beta2 * params.adam_v[name] + (1.0 - opt.beta2) * g * g
        new_params[name] = theta - opt.learning_rate * (m / bc1) / (
            np.sqrt(v / bc2) + opt.eps
        )
    return ParameterSet(params.config, new_params, new_m, new_v, t)


def predict_score(
    params: ParameterSet,
    x_a: np.ndarray | None = None,
    x_b: np.ndarray | None = None,
    head: str = "joint",
) -> np.ndarray | float:
    """Score from one head; higher means more bonafide.

    head='a' touches only channel A and branch-A/head-A parameters, so
    it works with channel B absent (and vice versa); 'joint' needs both.
    """
    if head not in HEAD_BRANCHES:
        raise ValueError(f"unknown head {head!r}")
    given = {b: x for b, x in (("a", x_a), ("b", x_b)) if b in HEAD_BRANCHES[head]}
    missing = [b.upper() for b, x in given.items() if x is None]
    if missing:
        raise ValueError(f"channel unavailable for head: need channel {missing[0]}")
    out, _ = _forward(params, given.get("a"), given.get("b"))
    scores = {"a": out.p, "b": out.q, "joint": out.r}[head]
    single = any(np.ndim(x) == 3 for x in given.values())
    return float(scores[0]) if single and scores.shape[0] == 1 else scores


# ---------------------------------------------------------------------------
# checkpoint container

_MAGIC = b"CMPADCKP"
_VERSION = 1
_F8 = 1  # the dtype tag of every record: little-endian float64


def _read_exact(buf: io.BufferedReader, n: int) -> bytes:
    data = buf.read(min(n, sys.maxsize))  # a corrupt size may not fit an index
    if len(data) != n:
        raise TruncatedCheckpoint(f"expected {n} bytes, got {len(data)}")
    return data


def _write_array(out: io.BufferedWriter, name: str, arr: np.ndarray) -> None:
    enc = name.encode("utf-8")
    out.write(struct.pack("<H", len(enc)))
    out.write(enc)
    out.write(struct.pack("<B", _F8))
    out.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        out.write(struct.pack("<I", dim))
    out.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(buf: io.BufferedReader) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(buf, 2))
    try:
        name = _read_exact(buf, name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadCheckpointFormat(f"bad checkpoint format: array name {exc}") from exc
    (code,) = struct.unpack("<B", _read_exact(buf, 1))
    if code != _F8:
        raise BadCheckpointFormat(f"bad checkpoint format: unknown dtype code {code}")
    (ndim,) = struct.unpack("<B", _read_exact(buf, 1))
    shape = tuple(
        struct.unpack("<I", _read_exact(buf, 4))[0] for _ in range(ndim)
    )
    count = math.prod(shape)  # a Python int: no int64 wrap-around on a corrupt shape
    data = _read_exact(buf, count * 8)
    try:
        return name, np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    except ValueError as exc:  # more dims, or a larger size, than numpy allows
        raise BadCheckpointFormat(f"bad checkpoint format: {name} {exc}") from exc


def save_checkpoint(params: ParameterSet, path: str | Path) -> None:
    """Versioned binary container of float64 records; weights and
    optimizer state round-trip bit-exactly."""
    path = Path(path)
    with io.BytesIO() as out:
        out.write(_MAGIC)
        out.write(struct.pack("<I", _VERSION))
        cfg = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
        out.write(struct.pack("<I", len(cfg)))
        out.write(cfg)
        out.write(struct.pack("<Q", params.step))
        names = sorted(params.params)
        out.write(struct.pack("<I", 3 * len(names)))
        for prefix, group in (
            ("p/", params.params),
            ("m/", params.adam_m),
            ("v/", params.adam_v),
        ):
            for name in names:
                _write_array(out, prefix + name, group[name])
        path.write_bytes(out.getvalue())


def load_checkpoint(path: str | Path) -> ParameterSet:
    path = Path(path)
    with io.BytesIO(path.read_bytes()) as buf:
        magic = _read_exact(buf, 8)
        if magic != _MAGIC:
            raise BadCheckpointFormat("bad checkpoint format")
        (version,) = struct.unpack("<I", _read_exact(buf, 4))
        if version != _VERSION:
            raise CheckpointVersionMismatch(
                f"checkpoint version {version}, expected {_VERSION}"
            )
        (cfg_len,) = struct.unpack("<I", _read_exact(buf, 4))
        try:
            fields = json.loads(_read_exact(buf, cfg_len).decode("utf-8"))
            if not isinstance(fields, dict) or any(type(v) is not int for v in fields.values()):
                raise TypeError("not a mapping of integers")
            config = NetworkConfig(**fields)
        except (TypeError, ValueError) as exc:  # bad UTF-8, JSON, type or key; geometry
            raise BadCheckpointFormat(f"bad checkpoint format: config {exc}") from exc
        (step,) = struct.unpack("<Q", _read_exact(buf, 8))
        (n_records,) = struct.unpack("<I", _read_exact(buf, 4))
        groups: dict[str, dict[str, np.ndarray]] = {"p": {}, "m": {}, "v": {}}
        for _ in range(n_records):
            name, arr = _read_array(buf)
            prefix, _, bare = name.partition("/")
            if prefix not in groups:
                raise BadCheckpointFormat(
                    f"bad checkpoint format: unknown record group {prefix!r}"
                )
            groups[prefix][bare] = arr

    expected = parameter_shapes(config)
    for group_name, group in groups.items():
        if set(group) != set(expected):
            missing = sorted(set(expected) ^ set(group))
            raise CheckpointShapeMismatch(
                f"parameter names disagree with config in group {group_name}: {missing}"
            )
        for name, arr in group.items():
            if arr.shape != expected[name]:
                raise CheckpointShapeMismatch(
                    f"{name}: shape {arr.shape} != {expected[name]}"
                )
            if not np.isfinite(arr).all():
                raise BadCheckpointFormat(
                    f"bad checkpoint format: {group_name}/{name} holds NaN or inf"
                )
    return ParameterSet(
        config=config,
        params=groups["p"],
        adam_m=groups["m"],
        adam_v=groups["v"],
        step=step,
    )
