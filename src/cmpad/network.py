"""Two-stream multi-head classifier, trained from scratch in numpy.

Each branch is a small stack of [3x3 conv -> ReLU -> 2x2 average pool]
blocks with filter count doubling per block, followed by global average
pooling and a linear map to a fixed-dimension embedding. Inside a branch
activations are batch-innermost (C, H, W, N): each conv layer is one
im2col GEMM over the whole batch, (F, C*9) @ (C*9, H*W*N), and every
strided copy and add in im2col, its scatter and the pools runs along the
contiguous batch axis. The two branch embeddings are concatenated into
a joint embedding, and three sigmoid heads (branch A, branch B, joint)
each apply one fully connected layer.

Every conv pass runs in bounded memory that it reuses: it takes its
transients from a Workspace, which a training run keeps for every step
and any other pass makes for its one call, and it runs the conv blocks
over slices of the batch sized by a fixed byte budget, so the workspace
does not grow with the batch. A training step caches each slice's
padded inputs and ReLU masks, not its columns; scoring keeps no caches.

Everything runs in float64 so gradient checks can be tight. All
randomness is seeded and parameter draws follow a fixed name order, so
identical configs produce bit-identical parameter sets.
"""

from __future__ import annotations

import functools
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
    base_filters: int = 8
    embedding_dim: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for key, value in asdict(self).items():
            if key != "seed" and value < 1:
                raise ValueError(f"incompatible geometry: network.{key} must be >= 1, got {value}")
        blocks = self.blocks_per_branch
        for key in ("input_height", "input_width"):
            dim = getattr(self, key)
            # shifts rather than 2**blocks, which a corrupt checkpoint could make huge
            if dim >> blocks << blocks != dim:
                raise ValueError(f"incompatible geometry: network.{key} {dim} is not divisible "
                                 f"by 2^network.blocks_per_branch = 2^{blocks}")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 3e-3
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


class Workspace:
    """Scratch arrays that conv passes reuse.

    Each transient of a conv pass (im2col columns, the GEMM output, the
    column and padded-input gradients, the pool-backward arrays) has a
    role, and every layer of both branches shares one flat buffer per
    role, grown to the largest shape asked of it. An array taken for a
    role is valid until the next take of that role. A training run that
    reuses one workspace maps its transient pages once instead of every
    step; a scoring pass shares one across its slices and branches.
    """

    __slots__ = ("_flat",)

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(role)
        if flat is None or flat.size < size:
            flat = self._flat[role] = np.empty(size)
        return flat[:size].reshape(shape)


def _padded(c: int, h: int, w: int, n: int) -> np.ndarray:
    """A zero (C, H+2, W+2, N) array; its producer writes the interior
    [:, 1:-1, 1:-1] in place, so the border is the conv's zero padding."""
    return np.zeros((c, h + 2, w + 2, n))


def _im2col(xp: np.ndarray, ws: Workspace) -> np.ndarray:
    """(C*9, H*W*N) columns of a padded input, copied in one call from a
    (C, 3, 3, H, W, N) window view; row c*9 + dy*3 + dx matches
    w.reshape(f, c*9)."""
    c, hp, wp, n = xp.shape
    h, wd = hp - 2, wp - 2
    sc, sh, sw, sn = xp.strides
    # only read; built on xp's buffer (xp is contiguous) rather than with
    # as_strided, which costs about 6 us a call, three calls in a 0.3 ms
    # one-sample score
    windows = np.ndarray((c, 3, 3, h, wd, n), xp.dtype, xp, 0, (sc, sh, sw, sh, sw, sn))
    cols = ws.take("cols", windows.shape)
    cols[...] = windows
    return cols.reshape(c * 9, h * wd * n)


def _conv2d_forward(xp: np.ndarray, w: np.ndarray, b: np.ndarray, ws: Workspace) -> np.ndarray:
    """Same-padding stride-1 3x3 convolution as one GEMM: xp is the
    padded batch-innermost input (C, H+2, W+2, N); returns (F, H, W, N)."""
    c, hp, wp, n = xp.shape
    f = w.shape[0]
    cols = _im2col(xp, ws)
    out = np.matmul(w.reshape(f, c * 9), cols, out=ws.take("out", (f, cols.shape[1])))
    out += b[:, None]
    return out.reshape(f, hp - 2, wp - 2, n)


def _conv2d_backward(dout: np.ndarray, xp: np.ndarray, w: np.ndarray, need_dx: bool,
                     ws: Workspace):
    """(dx, dW, db) for dout (F, H, W, N) and the forward's padded input
    xp; the columns are rebuilt from xp. dx is None unless need_dx."""
    f, h, wd, n = dout.shape
    c = w.shape[1]
    dout2 = dout.reshape(f, h * wd * n)
    # (cols @ dout2.T).T runs the K = H*W*N reduction faster than dout2 @ cols.T
    dw = (_im2col(xp, ws) @ dout2.T).T.reshape(w.shape)
    db = dout2.sum(axis=1)
    if not need_dx:
        return None, dw, db
    dcols = np.matmul(w.reshape(f, c * 9).T, dout2, out=ws.take("dcols", (c * 9, h * wd * n)))
    dcols = dcols.reshape(c, 9, h, wd, n)
    dxp = ws.take("dxp", xp.shape)
    dxp.fill(0.0)
    for idx in range(9):
        dy, dx = divmod(idx, 3)
        dxp[:, dy : dy + h, dx : dx + wd] += dcols[:, idx]
    return dxp[:, 1 : h + 1, 1 : wd + 1], dw, db


def _avgpool2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2x2 average pool of (C, H, W, N), written into out when given. The
    sums run in a contiguous temporary and only the final scaling writes
    out: four passes over a strided out (a padded buffer's interior)
    take about twice as long."""
    c, h, w, n = x.shape
    v = x.reshape(c, h // 2, 2, w // 2, 2, n)
    acc = v[:, :, 0, :, 0] + v[:, :, 0, :, 1]
    acc += v[:, :, 1, :, 0]
    acc += v[:, :, 1, :, 1]
    return np.multiply(acc, 0.25, out=acc if out is None else out)


def _avgpool2_backward(dout: np.ndarray, mask: np.ndarray, ws: Workspace) -> np.ndarray:
    """Gradient through ReLU then 2x2 average pool: dout broadcasts to
    (C, H/2, W/2, N) and mask is the (C, H, W, N) ReLU mask. Repeating
    along W first keeps the broadcast write's inner loop W*N long."""
    c, h, w, n = mask.shape
    rows = ws.take("pool_rows", (c, h // 2, w // 2, 2, n))
    np.multiply(dout[:, :, :, None], 0.25, out=rows)
    dx = ws.take("pool_dx", (c, h // 2, 2, w, n))
    np.multiply(mask.reshape(dx.shape), rows.reshape(c, h // 2, w, n)[:, :, None], out=dx)
    return dx.reshape(mask.shape)


class _BranchCache:
    __slots__ = ("padded", "relu_masks", "gap_in", "gap")

    def __init__(self):
        self.padded: list[np.ndarray] = []  # each conv layer's padded input
        self.relu_masks: list[np.ndarray] = []


def _branch_features(params: ParameterSet, branch: str, x: np.ndarray,
                     cache: _BranchCache | None, ws: Workspace) -> np.ndarray:
    """Last pooled activations (C_last, H', W', N) of the conv blocks;
    fills cache for the backward pass when one is given. Each layer's
    input is written straight into the interior of its padded buffer:
    the centred rasters for layer 0, the previous layer's pool after."""
    cfg = params.config
    n, c, h, w = x.shape
    xp = _padded(c, h, w, n)
    np.subtract(x.transpose(1, 2, 3, 0), 0.5, out=xp[:, 1:-1, 1:-1])  # rasters arrive in [0, 1]
    for i in range(cfg.blocks_per_branch):
        out = _conv2d_forward(
            xp, params.params[f"branch_{branch}/conv{i}/W"],
            params.params[f"branch_{branch}/conv{i}/b"], ws,
        )
        np.maximum(out, 0.0, out=out)
        if cache is not None:
            cache.padded.append(xp)
            cache.relu_masks.append(out > 0)
        f, h, w = out.shape[:3]
        if i + 1 < cfg.blocks_per_branch:
            xp = _padded(f, h // 2, w // 2, n)
            _avgpool2(out, out=xp[:, 1:-1, 1:-1])
        else:
            gap_in = _avgpool2(out)
    return gap_in


# Byte budget for the largest layer's im2col columns, the biggest
# workspace buffer of a branch pass: every pass runs in slices, so its
# workspace stays this size however many samples the batch holds.
_SLICE_BYTES = 8 << 20


@functools.lru_cache(maxsize=8)
def _slice_len(cfg: NetworkConfig) -> int:
    """Samples per conv slice under _SLICE_BYTES of columns."""
    worst = max(
        c_in * 9 * (cfg.input_height >> i) * (cfg.input_width >> i) * 8
        for c0 in (cfg.channels_a, cfg.channels_b)
        for i, (c_in, _) in enumerate(_branch_channels(cfg, c0))
    )
    return max(1, _SLICE_BYTES // worst)


def _branch_forward(params: ParameterSet, branch: str, x: np.ndarray,
                    cache: _BranchCache | None, ws: Workspace):
    """Branch embeddings (N, D). The conv blocks run over slices of at
    most _slice_len samples; a cache gets each slice's layers in order.
    GAP and the embedding GEMM run once over the whole batch: with one
    sample they reduce in a different order, so a one-sample slice would
    change the bits."""
    k = _slice_len(params.config)
    parts = [_branch_features(params, branch, x[s : s + k], cache, ws)
             for s in range(0, x.shape[0], k)]
    gap_in = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=3)
    g = gap_in.mean(axis=(1, 2)).T  # (N, C_last)
    if cache is not None:
        cache.gap_in, cache.gap = gap_in, g
    we = params.params[f"branch_{branch}/embed/W"]
    be = params.params[f"branch_{branch}/embed/b"]
    return g @ we.T + be


def _branch_backward(params: ParameterSet, branch: str, cache: _BranchCache,
                     demb: np.ndarray, grads: dict[str, np.ndarray],
                     ws: Workspace) -> None:
    cfg = params.config
    we = params.params[f"branch_{branch}/embed/W"]
    grads[f"branch_{branch}/embed/W"] += demb.T @ cache.gap
    grads[f"branch_{branch}/embed/b"] += demb.sum(axis=0)
    dg = demb @ we  # (N, C_last)
    dgap = (dg.T / math.prod(cache.gap_in.shape[1:3]))[:, None, None, :]  # broadcast over GAP input
    blocks, k = cfg.blocks_per_branch, _slice_len(cfg)
    for j, s in enumerate(range(0, dgap.shape[3], k)):
        # the forward's slices, in order: layer i of slice j is entry j*blocks + i
        dcur = dgap[..., s : s + k]
        for i in reversed(range(blocks)):
            e = j * blocks + i
            dpre_relu = _avgpool2_backward(dcur, cache.relu_masks[e], ws)
            wname = f"branch_{branch}/conv{i}/W"
            dcur, dw, db = _conv2d_backward(
                dpre_relu, cache.padded[e], params.params[wname], need_dx=i > 0, ws=ws
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


def _forward(params: ParameterSet, x_a, x_b, cached: bool = False,
             ws: Workspace | None = None):
    """(ForwardOutput, caches): a branch runs when its channel is not None,
    and a head whose branches did not run is NaN, as is the embedding of
    a branch not run. caches holds the branches run when cached, else is
    empty. Every pass runs each branch's conv blocks over slices of at
    most _slice_len samples, and both branches take their transients from
    ws, made for this call when None. predict_score and
    harness.score_samples call this uncached, so a trace of
    forward_cached counts only passes that feed a backward."""
    cfg = params.config
    inputs = {}
    for branch, x, depth in (("a", x_a, cfg.channels_a), ("b", x_b, cfg.channels_b)):
        if x is not None:
            inputs[branch] = _as_batch(x, depth, cfg, f"channel-{branch.upper()} input")
    sizes = {x.shape[0] for x in inputs.values()}
    if len(sizes) != 1:
        raise ValueError("channel batches disagree in length" if sizes else "no channel given")
    (n,) = sizes
    if n == 0:
        raise ValueError("empty batch")
    ws = Workspace() if ws is None else ws
    emb, caches = {}, {}
    for branch, x in inputs.items():
        if cached:
            caches[branch] = _BranchCache()
        emb[branch] = _branch_forward(params, branch, x, caches.get(branch), ws)
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
    params: ParameterSet, x_a: np.ndarray, x_b: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[ForwardOutput, tuple]:
    """Head probabilities for a batch of both channels, plus the
    per-branch caches that `backward_from_head_grads` needs: each conv
    slice's padded inputs and ReLU masks, in fresh arrays. Only the
    pass's transients come from workspace, which stays the size of one
    slice however large the batch."""
    if x_a is None or x_b is None:
        raise ValueError("forward_cached needs both channels")
    out, caches = _forward(params, x_a, x_b, cached=True, ws=workspace)
    return out, (caches["a"], caches["b"])


def backward_from_head_grads(
    params: ParameterSet,
    output: ForwardOutput,
    caches,
    d_p: np.ndarray,
    d_q: np.ndarray,
    d_r: np.ndarray,
    workspace: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Parameter gradients of the batch-mean loss, given per-sample partials
    w.r.t. the three head probabilities. The conv transients come from
    workspace, made for this call when None."""
    cache_a, cache_b = caches
    workspace = Workspace() if workspace is None else workspace
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
    _branch_backward(params, "a", cache_a, demb_a, grads, workspace)
    _branch_backward(params, "b", cache_b, demb_b, grads, workspace)
    return grads


def backward(
    params: ParameterSet,
    x_a: np.ndarray,
    x_b: np.ndarray,
    labels: Sequence[int],
    loss_params: LossParams,
    workspace: Workspace | None = None,
):
    """Gradients of the batch-mean combined loss for every parameter.

    Returns (grads, LossValue of the batch-mean loss alone, ForwardOutput).
    Joint-head gradients reach both branches through the concatenated
    embedding; each cross-modal term also routes gradient into the other
    branch through the damping weight unless loss_params.detach_weight is
    set. The conv transients come from workspace when one is given (a
    training run passes the same one every step), else fresh arrays.
    """
    ys = np.asarray(labels, dtype=np.int64)
    if ys.shape[0] == 0:
        raise ValueError("empty batch")
    output, caches = forward_cached(params, x_a, x_b, workspace)
    if output.p.shape[0] != ys.shape[0]:
        raise ValueError("labels disagree with batch length")
    lv = combined_loss(output.p, output.q, output.r, ys, loss_params)
    grads = backward_from_head_grads(params, output, caches, lv.d_p, lv.d_q, lv.d_r, workspace)
    return grads, LossValue(value=lv.value.mean()), output


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
            if bare in groups[prefix]:
                raise BadCheckpointFormat(f"bad checkpoint format: repeated record {name!r}")
            groups[prefix][bare] = arr
        if buf.read(1):
            raise BadCheckpointFormat("bad checkpoint format: bytes after the last record")

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
