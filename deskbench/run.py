#!/usr/bin/env python3
"""Desk benchmark for cmpad.

    python3 deskbench/run.py --workload train_grandtest --seed 1 --seconds 20 --trace 0

Each run is one process with one client and BLAS pinned to one thread.

Workloads:

  train_grandtest  A pass loads the desk dataset (576 samples, 32x32) eight
                   times, trains 10 epochs on the 288-sample grandtest
                   train fold, saves the checkpoint, scores dev+eval
                   (288 samples) six times with the joint head and loads
                   the dataset eight times more. Conv and pool dominate,
                   so hot-path and objective changes show.
  desk_quick       A pass runs the six commands of
                   scripts/run_desk_experiments.py --quick through
                   cmpad.cli.main: 14 two-epoch training legs (13 distinct)
                   with data reloads, evals and run directories, so
                   per-leg overhead and leg reuse show. After each command
                   the benchmark decodes the pass's dataset four times more
                   (probe loads, counted in ingest_samples_per_s only),
                   each followed by a prediction burst.
  ingest_score     Set-up writes 2,304 samples as 8-bit PPM plus 16-bit
                   .d16 depth with invalid pixels, and a checkpoint trained
                   three epochs on 288 of them. A pass decodes the samples
                   twice, loads the checkpoint and scores the 1,152
                   dev+eval samples twice, one forward pass per fold. No
                   backward pass is timed.

`--seed` seeds the synthetic data; training and protocol seeds stay at
the desk config's values. Set-up (data generation and writing, a warm-up
load, checkpoint preparation) is repeated; then passes repeat while the
next one, at the median pass time so far, still ends within `--seconds`
(at least one pass).

End-to-end metrics (`--trace 0`), each reported on every workload:

  setup_s               median set-up time
  experiment_s          median pass time, without the benchmark's own
                        prediction bursts and probe loads; for desk_quick
                        the CLI sequence
  train_samples_per_s   samples per optimiser step / step time inside
                        harness.train, median over every step of the run
                        (set-ups and passes). A step runs from the end of
                        the previous step's network.adam_step (or the start
                        of harness.train) to the end of its own, so it
                        holds batching, flips, backward and the update.
  score_samples_per_s   dev+eval samples / duration of harness.evaluate,
                        median over the passes' calls
  ingest_samples_per_s  samples / duration of datasets.load_dataset,
                        median over the passes' calls
  predict_ms.p50, .p90  latency of single-sample network.predict_score on
                        head "a", in short bursts of calls after each
                        set-up and between the phases of each pass, pooled
                        over the run
  peak_rss_mb           peak resident memory of the process

The machine these figures come from is shared: its speed changes from
one second to the next. Each throughput is therefore a median over many
short calls or steps spread across the run rather than one total, so a
burst of interference moves a few samples, not the figure.

An untraced run wraps only the functions behind the throughput metrics
(PHASES). With `--trace 1` every public function of the eight layers is
wrapped; the run makes one reference pass with only PHASES wrapped
and one traced pass, and prints per-layer metrics for the set-ups plus
the traced pass, so counts repeat exactly. `trace.overhead_s` is the
traced pass minus the reference pass. Spans are written to .deskbench/.

Every operation is checked. Failures (exceptions, non-zero CLI exits,
failed output checks) count against the operations attempted and make
`correct` false. The last stdout line is the JSON result.
"""

import os

# Before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".deskbench"
PROGRAM_FILES = ("src/cmpad/__init__.py", "configs/desk.json")

import spans  # noqa: E402  (the benchmark's own module, next to this file)


@dataclasses.dataclass(frozen=True)
class Scale:
    n_identities: int
    samples_per_identity: int
    image_size: int
    epochs: int
    setups: int
    predict_calls: int  # per burst; p90 needs >= 100 calls pooled over the run
    # loads and evaluations per pass, so that their medians rest on many
    # calls (train_grandtest: half the loads before training, half after)
    loads: int = 1
    evaluations: int = 1
    ckpt_train: int = 288  # ingest_score: train-fold samples behind the checkpoint


FULL = {
    "train_grandtest": Scale(12, 12, 32, epochs=10, setups=3, predict_calls=25,
                             loads=16, evaluations=6),
    "desk_quick": Scale(12, 12, 32, epochs=2, setups=3, predict_calls=40),
    "ingest_score": Scale(48, 12, 32, epochs=3, setups=2, predict_calls=40,
                          loads=2, evaluations=2),
}
SMOKE = {
    "train_grandtest": Scale(6, 2, 16, epochs=3, setups=2, predict_calls=50,
                             loads=2, evaluations=2),
    "desk_quick": Scale(6, 2, 16, epochs=1, setups=2, predict_calls=50),
    "ingest_score": Scale(6, 2, 16, epochs=1, setups=2, predict_calls=50,
                          loads=2, evaluations=2, ckpt_train=48),
}
PREDICT_SAMPLES = 144  # distinct samples the prediction bursts cycle through

END_TO_END = {
    "setup_s": "s",
    "experiment_s": "s",
    "train_samples_per_s": "samples/s",
    "score_samples_per_s": "samples/s",
    "ingest_samples_per_s": "samples/s",
    "predict_ms.p50": "ms",
    "predict_ms.p90": "ms",
    "peak_rss_mb": "MiB",
}

# Functions timed in every run: the phases behind the throughput metrics,
# and the calls that mark the optimiser steps inside harness.train.
PHASES = ("harness.train", "harness.evaluate", "datasets.load_dataset",
          "network.backward", "network.adam_step")

# Per-layer metrics, reported on every workload (zero where a layer is
# not exercised). `.calls` count spans, `.s` is busy time (union of the
# spans' intervals), `.self_s` the time not covered by child spans.
LAYER_FUNCS = {
    "network.forward_cached": ("calls", "s"),
    "network.backward_from_head_grads": ("calls", "s"),
    "network.adam_step": ("calls", "s"),
    "network.backward": ("calls", "s", "self_s"),
    "network.forward": ("calls", "s"),
    "network.predict_score": ("calls", "s"),
    "network.save_checkpoint": ("calls", "s"),
    "network.load_checkpoint": ("calls", "s"),
    "losses.combined_loss": ("calls", "s"),
    "harness.train": ("calls", "s", "self_s"),
    "harness.score_samples": ("calls", "s"),
    "harness.evaluate": ("calls", "s", "self_s"),
    "datasets.load_dataset": ("calls", "s", "self_s"),
    "datasets.read_channel": ("calls", "s", "self_s"),
    "preprocessing.mad_normalize": ("calls", "s"),
    "datasets.save_dataset": ("calls", "s"),
    "datagen.generate": ("calls", "s"),
    "metrics.threshold_at_bpcer": ("calls", "s"),
    "metrics.eer_threshold": ("calls", "s"),
    "metrics.apcer_bpcer_acer": ("calls", "s"),
    "metrics.write_score_file": ("calls", "s"),
    "cli.main": ("calls", "s"),
}
CLI_COMMANDS = ("gen-data", "loo", "sweep-gamma", "single-channel", "train", "report")
COUNTERS = {
    "network.conv_gflop": "GFLOP",
    "network.conv_gflop_per_s": "GFLOP/s",
    "network.checkpoint_bytes": "bytes",
    "datasets.bytes_read": "bytes",
    "harness.legs": "count",
    "harness.distinct_legs": "count",
    "harness.repeated_leg_share": "ratio",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, kinds in LAYER_FUNCS.items():
        for kind in kinds:
            units[f"{name}.{kind}"] = "count" if kind == "calls" else "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.main.{cmd}.self_s"] = "s"
    units.update(COUNTERS)
    return units


# ---------------------------------------------------------------------------
# program import and environment


def import_program():
    missing = [p for p in PROGRAM_FILES if not (ROOT / p).is_file()]
    if missing:
        raise SystemExit(f"deskbench: program files missing from {ROOT}: {missing}")
    sys.path.insert(0, str(ROOT / "src"))
    import cmpad

    if Path(cmpad.__file__).resolve().parent != (ROOT / "src" / "cmpad").resolve():
        raise SystemExit(f"deskbench: imported cmpad from {cmpad.__file__}, not {ROOT}/src")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# sizers: work items per traced call, read from arguments and results


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def conv_gflop_per_sample(cfg, branch: str) -> float:
    """Multiply-add FLOPs of one branch's 3x3 same-padding convs for one sample."""
    c_in = cfg.channels_a if branch == "a" else cfg.channels_b
    h, w, flop = cfg.input_height, cfg.input_width, 0
    for i in range(cfg.blocks_per_branch):
        c_out = cfg.base_filters * 2**i
        flop += 2 * c_in * 9 * c_out * h * w
        c_in, h, w = c_out, h // 2, w // 2
    return flop / 1e9


# The unwrapped public functions, filled in once the program is imported.
FUNCS: dict = {}


def _size_train(args, kwargs, result):
    split, cfg = args[0], args[2]
    train_digest = hashlib.sha256("\n".join(split.train).encode()).hexdigest()[:16]
    leg = FUNCS["harness.config_hash"](cfg) + train_digest
    return {"samples": cfg.epochs * len(split.train), "leg": leg}


def _size_forward_cached(args, kwargs, result):
    cfg = args[0].config
    n = result[0].p.shape[0]
    return {"gflop": n * (conv_gflop_per_sample(cfg, "a") + conv_gflop_per_sample(cfg, "b"))}


def _size_backward_from_head_grads(args, kwargs, result):
    cfg = args[0].config
    n = args[1].p.shape[0]
    # dW and dX each cost one forward conv's FLOPs
    return {"gflop": 2 * n * (conv_gflop_per_sample(cfg, "a") + conv_gflop_per_sample(cfg, "b"))}


def _size_predict_score(args, kwargs, result):
    cfg = args[0].config
    head = _arg(args, kwargs, 3, "head", "joint")
    n = 1 if isinstance(result, float) else len(result)
    branches = ("a", "b") if head == "joint" else (head,)
    return {"gflop": n * sum(conv_gflop_per_sample(cfg, b) for b in branches)}


def _size_file(pos, name):
    def sizer(args, kwargs, result):
        return {"bytes": Path(_arg(args, kwargs, pos, name)).stat().st_size}
    return sizer


SIZERS = {
    "harness.train": _size_train,
    "harness.evaluate": lambda a, k, r: {"samples": len(r[1]) + len(r[2])},
    "datasets.load_dataset": lambda a, k, r: {"samples": len(r[0])},
    "datasets.read_channel": _size_file(0, "path"),
    "network.save_checkpoint": _size_file(1, "path"),
    "network.load_checkpoint": _size_file(0, "path"),
    "network.forward_cached": _size_forward_cached,
    "network.backward_from_head_grads": _size_backward_from_head_grads,
    "network.predict_score": _size_predict_score,
    "network.backward": lambda a, k, r: {"samples": len(_arg(a, k, 1, "x_a"))},
    "cli.main": lambda a, k, r: {"command": _arg(a, k, 0, "argv")[0]},
}


# ---------------------------------------------------------------------------
# checks


class Ops:
    """Operations attempted and failed; a failure is an exception, a
    non-zero CLI exit or a failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{what}: {detail}" if detail else what)


def oracle_threshold(dev_records, rule: str, target: float, head: str) -> float:
    """The threshold rule re-derived from metrics.brute_force_sweep."""
    from cmpad.metrics import brute_force_sweep

    rows = brute_force_sweep(dev_records, head=head)
    if rule == "eer":
        return min(rows, key=lambda r: abs(r.far - r.frr)).threshold
    for i, row in enumerate(rows):
        if row.bpcer > target:
            return rows[i - 1].threshold
    return rows[0].threshold


class Predictor:
    """Single-sample head-A predictions in a closed loop with one client.

    Calls come in bursts spread over the run: after each set-up and at
    points inside each pass. On a shared machine a single burst mostly
    measures the machine's state at that moment; pooled bursts from the
    whole run compare across runs. The first call of a burst follows other
    work that has evicted the model from the caches and runs about 70%
    slower, so each burst starts with untimed calls.
    """

    WARMUP_CALLS = 2

    def __init__(self, calls_per_burst: int):
        self.calls = calls_per_burst
        self.latencies_ms: list[float] = []
        self.spent_s = 0.0

    def prepare(self, params, xs) -> None:
        """Set in set-up: the model and the samples to score one at a time."""
        import numpy as np
        from cmpad import network

        self.params, self.xs = params, xs
        self.ref = network.predict_score(params, x_a=np.stack(xs), head="a")

    def burst(self, ops: Ops) -> None:
        from cmpad import network

        t_start = perf_counter()
        first = len(self.latencies_ms)
        for i in range(first, first + self.WARMUP_CALLS):
            network.predict_score(self.params, x_a=self.xs[i % len(self.xs)], head="a")
        scores = []
        for i in range(first, first + self.calls):
            x = self.xs[i % len(self.xs)]
            t0 = perf_counter()
            scores.append(network.predict_score(self.params, x_a=x, head="a"))
            self.latencies_ms.append((perf_counter() - t0) * 1e3)
        self.spent_s += perf_counter() - t_start
        for i, score in enumerate(scores, start=first):
            err = abs(score - self.ref[i % len(self.xs)])
            ops.record("predict_score", err <= 1e-12,
                       f"call {i}: |single - batched| = {err:.3g}")


def desk_configs(scale: Scale, seed: int):
    from cmpad.datagen import GeneratorSpec
    from cmpad.harness import TrainConfig
    from cmpad.losses import LossParams
    from cmpad.network import NetworkConfig, OptimizerConfig

    desk = json.loads((ROOT / "configs" / "desk.json").read_text())
    gen = dict(desk["generator"], n_identities=scale.n_identities,
               samples_per_identity=scale.samples_per_identity,
               image_size=scale.image_size, seed=seed)
    gen["attack_types"] = tuple(gen["attack_types"])
    net = dict(desk["network"], input_height=scale.image_size, input_width=scale.image_size)
    tc = TrainConfig(
        network=NetworkConfig(**net),
        optimizer=OptimizerConfig(**desk["optimizer"]),
        loss=LossParams(**desk["loss"]),
        **dict(desk["train"], epochs=scale.epochs),
    )
    return GeneratorSpec(**gen), tc, desk["protocol"]


# ---------------------------------------------------------------------------
# workloads


class TrainGrandtest:
    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.spec, self.tc, self.proto = desk_configs(scale, seed)

    def setup(self, root: Path, predictor: Predictor) -> None:
        from cmpad import datagen, datasets, network

        self.root = root
        samples = datagen.generate(self.spec)
        datasets.save_dataset(samples, root, force=True)
        datasets.load_dataset(root)  # warm-up
        predictor.prepare(network.init_network(self.tc.network),
                          [s.x_a for s in samples[:PREDICT_SAMPLES]])

    def run_pass(self, ops: Ops, out: Path, timed, predictor: Predictor) -> float:
        import numpy as np
        from cmpad import datasets, harness, network

        p = self.proto
        loaded = []  # samples decoded by each load; only the first load is kept

        def load():
            samples, records = datasets.load_dataset(self.root)
            loaded.append(len(samples))
            predictor.burst(ops)
            return samples, records

        with timed():
            t0, spent = perf_counter(), predictor.spent_s
            samples, records = load()
            for _ in range(self.scale.loads // 2 - 1):
                load()
            split = datasets.make_grandtest(records, ratios=tuple(p["ratios"]), seed=p["seed"])
            pool = harness.by_id(samples)
            params, losses = harness.train(split, pool, self.tc)
            network.save_checkpoint(params, out / "checkpoint.bin")
            evaluations = []
            for _ in range(self.scale.evaluations):
                predictor.burst(ops)
                evaluations.append(harness.evaluate(
                    params, split, pool, head="joint", threshold_rule="bpcer",
                    bpcer_target=p["bpcer_target"], out_dir=out))
            predictor.burst(ops)
            while len(loaded) < self.scale.loads:
                load()
            elapsed = perf_counter() - t0 - (predictor.spent_s - spent)

        report, dev, ev = evaluations[0]
        n = self.spec.n_identities * self.spec.samples_per_identity * 4
        for got in loaded:
            ops.record("load_dataset", got == n, f"{got} samples, expected {n}")
        ops.record("train", bool(np.all(np.isfinite(losses))) and losses[-1] < losses[0],
                   f"epoch losses {losses[0]:.6g} -> {losses[-1]:.6g}")
        again = harness.score_samples(network.load_checkpoint(out / "checkpoint.bin"),
                                      [pool[r.sample_id] for r in dev + ev])
        ops.record("checkpoint round trip", again == dev + ev, "scores differ after reload")
        for i, (_, dev_i, ev_i) in enumerate(evaluations[1:], start=1):
            ops.record("evaluate", dev_i + ev_i == dev + ev, f"evaluation {i} scores differ")
        tau = oracle_threshold(dev, "bpcer", p["bpcer_target"], "joint")
        ops.record("evaluate", report.threshold == tau,
                   f"threshold {report.threshold!r} != oracle {tau!r}")
        return elapsed


class DeskQuick:
    PROBE_LOADS = 4  # after each command

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.spec, self.tc, _ = desk_configs(scale, seed)
        # CLI config overrides; at full scale they equal the built-in defaults
        self.config = {
            "generator": {"n_identities": scale.n_identities,
                          "samples_per_identity": scale.samples_per_identity,
                          "image_size": scale.image_size},
            "network": {"input_height": scale.image_size, "input_width": scale.image_size},
        }

    def setup(self, root: Path, predictor: Predictor) -> None:
        from cmpad import datagen, network

        # the dataset gen-data must write, for checking its output
        samples = datagen.generate(self.spec)
        self.expected = {s.id: s for s in samples}
        predictor.prepare(network.init_network(self.tc.network),
                          [s.x_a for s in samples[:PREDICT_SAMPLES]])

    def commands(self, out: Path) -> list[list[str]]:
        """scripts/run_desk_experiments.py --quick, with the data seed and
        scale passed to every command."""
        data = str(out / "dataset")
        cfg = str(out / "config.json")
        common = ["--out", str(out), "--force", "--config", cfg]
        epochs = ["--epochs", str(self.scale.epochs)]
        return [
            ["gen-data", data, "--force", "--config", cfg, "--seed", str(self.seed)],
            ["loo", "--data", data, "--name", "loo", *common, *epochs],
            ["sweep-gamma", "--data", data, "--name", "sweep_gamma", "--gammas", "0,3",
             *common, *epochs],
            ["single-channel", "--data", data, "--name", "single_channel", "--seeds", "0,1",
             *common, *epochs],
            ["train", "--data", data, "--name", "grandtest", *common, *epochs],
            ["report", "--data", data, "--name", "report",
             "--checkpoint", str(out / "grandtest" / "checkpoint.bin"), *common],
        ]

    def run_pass(self, ops: Ops, out: Path, timed, predictor: Predictor) -> float:
        import numpy as np
        from cmpad import cli, datasets

        (out / "config.json").write_text(json.dumps(self.config))
        commands = self.commands(out)
        codes, command_s, probes = [], [], 0
        sink = io.StringIO()
        with timed(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands:
                t0 = perf_counter()
                codes.append(cli.main(argv))
                command_s.append(perf_counter() - t0)
                predictor.burst(ops)
                if (out / "dataset" / datasets.MANIFEST_NAME).is_file():
                    for _ in range(self.PROBE_LOADS):
                        probes += len(datasets.load_dataset(out / "dataset")[0])
                        predictor.burst(ops)

        if any(codes):
            sys.stderr.write(sink.getvalue())
        for argv, code in zip(commands, codes):
            ops.record(f"cmpad {argv[0]}", code == 0, f"exit code {code}")
        for name in ("loo", "sweep_gamma", "single_channel", "grandtest", "report"):
            status = out / name / "status"
            text = status.read_text().strip() if status.is_file() else "missing"
            ops.record(f"status of {name}", text == "done", f"status {text!r}")
        loo = out / "loo" / "summary.json"
        rows = len(json.loads(loo.read_text())["rows"]) if loo.is_file() else 0
        ops.record("loo table", rows == 3, f"{rows} rows, expected 3")
        sweep = len(list((out / "sweep_gamma").glob("*/summary.json")))
        ops.record("sweep table", sweep == 2, f"{sweep} rows, expected 2")
        samples, _ = datasets.load_dataset(out / "dataset")
        same = len(samples) == len(self.expected) and all(
            np.array_equal(s.x_a, self.expected[s.id].x_a)
            and np.array_equal(s.x_b, self.expected[s.id].x_b)
            for s in samples
        )
        ops.record("gen-data output", same, "decoded dataset differs from the generator")
        wanted = self.PROBE_LOADS * len(commands) * len(self.expected)
        ops.record("probe loads", probes == wanted, f"{probes} samples decoded, expected {wanted}")
        return sum(command_s)


class IngestScore:
    INVALID_SHARE = 0.03

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.spec, self.ckpt_tc, self.proto = desk_configs(scale, seed)

    def setup(self, root: Path, predictor: Predictor) -> None:
        import numpy as np
        from cmpad import datagen, datasets, harness, network

        self.root = root
        (root / "data").mkdir(parents=True)
        samples = datagen.generate(self.spec)
        rng = np.random.default_rng([self.seed, 16])
        records, self.expected = [], {}
        for s in samples:
            invalid = rng.random(s.x_b.shape[1:]) < self.INVALID_SHARE
            depth = 400 + 4 * np.rint(s.x_b[0] * 255).astype(np.int64)
            depth[invalid] = 0
            path_a, path_b = f"data/{s.id}_a.ppm", f"data/{s.id}_b.d16"
            datasets.write_raster_8bit(root / path_a, s.x_a)
            datasets.write_raster_d16(root / path_b, depth)
            records.append(datasets.ManifestRecord(
                id=s.id, path_a=path_a, path_b=path_b, label=s.label,
                attack_type=s.attack_type, identity=s.identity,
            ))
            self.expected[s.id] = (s.x_a, invalid)
        datasets.write_manifest(root / datasets.MANIFEST_NAME, records)

        loaded, records = datasets.load_dataset(root)  # warm-up
        p = self.proto
        split = datasets.make_grandtest(records, ratios=tuple(p["ratios"]), seed=p["seed"])
        leg = dataclasses.replace(split, train=split.train[: self.scale.ckpt_train])
        pool = harness.by_id(loaded)
        params, _ = harness.train(leg, pool, self.ckpt_tc)
        network.save_checkpoint(params, root / "checkpoint.bin")
        predictor.prepare(params, [pool[sid].x_a for sid in split.eval[:PREDICT_SAMPLES]])

    def run_pass(self, ops: Ops, out: Path, timed, predictor: Predictor) -> float:
        import numpy as np
        from cmpad import datasets, harness, network

        p = self.proto
        with timed():
            t0, spent = perf_counter(), predictor.spent_s
            loads = []
            for _ in range(self.scale.loads):
                samples, records = datasets.load_dataset(self.root)
                loads.append(samples)
                predictor.burst(ops)
            params = network.load_checkpoint(self.root / "checkpoint.bin")
            split = datasets.make_grandtest(records, ratios=tuple(p["ratios"]), seed=p["seed"])
            pool = harness.by_id(samples)
            evaluations = []
            for _ in range(self.scale.evaluations):
                evaluations.append(harness.evaluate(
                    params, split, pool, head="joint", threshold_rule="eer", out_dir=out))
                predictor.burst(ops)
            elapsed = perf_counter() - t0 - (predictor.spent_s - spent)

        for samples in loads:
            bad = []
            for s in samples:
                x_a, invalid = self.expected[s.id]
                if not (np.array_equal(s.x_a, x_a) and s.x_b.min() >= 0.0
                        and s.x_b.max() <= 1.0 and not s.x_b[0][invalid].any()):
                    bad.append(s.id)
            ops.record("load_dataset", len(samples) == len(self.expected) and not bad,
                       f"{len(bad)} samples decode wrong, e.g. {bad[:3]}")
        ops.record("load_checkpoint", params.params.keys() == predictor.params.params.keys()
                   and all(np.array_equal(v, predictor.params.params[k])
                           for k, v in params.params.items()),
                   "checkpoint weights differ from the trained ones")
        report, dev, ev = evaluations[0]
        for i, (_, dev_i, ev_i) in enumerate(evaluations[1:], start=1):
            ops.record("evaluate", dev_i + ev_i == dev + ev, f"evaluation {i} scores differ")
        tau = oracle_threshold(dev, "eer", 0.0, "joint")
        ops.record("evaluate", report.threshold == tau,
                   f"threshold {report.threshold!r} != oracle {tau!r}")
        return elapsed


WORKLOADS = {
    "train_grandtest": TrainGrandtest,
    "desk_quick": DeskQuick,
    "ingest_score": IngestScore,
}


# ---------------------------------------------------------------------------
# metrics


def call_throughputs(tracer, name: str, segments) -> list[float]:
    """Samples per second of each call of `name` within the segments."""
    return [
        tracer.items[i]["samples"] / (tracer.ends[i] - tracer.starts[i])
        for lo, hi in segments for i in range(lo, hi) if tracer.names[i] == name
    ]


def step_throughputs(tracer, segments) -> list[float]:
    """Samples per second of each optimiser step inside harness.train.

    A step ends with its network.adam_step and starts where the previous
    step of the same harness.train call ended, or where that call began;
    its samples are those of the network.backward call inside it.
    """
    rates = []
    for lo, hi in segments:
        last, batch = {}, {}
        for i in range(lo, hi):
            name, parent = tracer.names[i], tracer.parents[i]
            if name == "harness.train":
                last[i] = tracer.starts[i]
            elif parent in last and name == "network.backward":
                batch[parent] = tracer.items[i]["samples"]
            elif parent in last and name == "network.adam_step":
                rates.append(batch.pop(parent) / (tracer.ends[i] - last[parent]))
                last[parent] = tracer.ends[i]
    return rates


def end_to_end(setup_s, passes, latencies, setup_segments, pass_segments, tracer) -> dict:
    """Medians over set-ups, passes, calls and steps; training may happen in
    set-up or in passes."""
    def med(values):
        if not values:
            raise RuntimeError("no successful measurement")
        return statistics.median(values)

    return {
        "setup_s": statistics.median(setup_s),
        "experiment_s": med(passes),
        "train_samples_per_s": med(step_throughputs(tracer, setup_segments + pass_segments)),
        "score_samples_per_s": med(call_throughputs(tracer, "harness.evaluate", pass_segments)),
        "ingest_samples_per_s": med(
            call_throughputs(tracer, "datasets.load_dataset", pass_segments)),
        "predict_ms.p50": spans.percentile(latencies, 50),
        "predict_ms.p90": spans.percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced_pass_s: float, untraced_pass_s: float) -> dict:
    self_t = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
    out = {}
    for name, kinds in LAYER_FUNCS.items():
        idx = tracer.indices(name)
        if "calls" in kinds:
            out[f"{name}.calls"] = len(idx)
        if "s" in kinds:
            out[f"{name}.s"] = spans.busy_time(tracer, [name])
        if "self_s" in kinds:
            out[f"{name}.self_s"] = sum(self_t[i] for i in idx)

    # CLI layer self time per subcommand: the self time of every cli.*
    # span under that cli.main call (config, run directory, printing).
    root = [-1] * len(tracer)
    cli_self = dict.fromkeys(CLI_COMMANDS, 0.0)
    for i, (name, _, _, parent) in enumerate(tracer.spans()):
        root[i] = i if name == "cli.main" else (root[parent] if parent >= 0 else -1)
        if root[i] >= 0 and name.startswith("cli."):
            cmd = tracer.items[root[i]]["command"]
            cli_self[cmd] = cli_self.get(cmd, 0.0) + self_t[i]
    for cmd, value in cli_self.items():
        out[f"cli.main.{cmd}.self_s"] = value

    def total(name, key):
        return sum(tracer.items[i][key] for i in tracer.indices(name))

    conv = ("network.forward_cached", "network.predict_score",
            "network.backward_from_head_grads")
    gflop = sum(total(n, "gflop") for n in conv)
    busy = spans.busy_time(tracer, conv)
    out["network.conv_gflop"] = gflop
    out["network.conv_gflop_per_s"] = gflop / busy if busy else 0.0
    out["network.checkpoint_bytes"] = (total("network.save_checkpoint", "bytes")
                                       + total("network.load_checkpoint", "bytes"))
    out["datasets.bytes_read"] = total("datasets.read_channel", "bytes")
    legs = [tracer.items[i]["leg"] for i in tracer.indices("harness.train")]
    out["harness.legs"] = len(legs)
    out["harness.distinct_legs"] = len(set(legs))
    out["harness.repeated_leg_share"] = (len(legs) - len(set(legs))) / len(legs) if legs else 0.0
    out["trace.pass_s"] = traced_pass_s
    out["trace.untraced_pass_s"] = untraced_pass_s
    out["trace.overhead_s"] = traced_pass_s - untraced_pass_s
    return out


# ---------------------------------------------------------------------------
# the run


def run(args) -> int:
    import_program()
    env = environment()
    scale = (SMOKE if args.smoke else FULL)[args.workload]
    FUNCS.update(spans.public_functions())
    phase = spans.Tracer({n: FUNCS[n] for n in PHASES}, SIZERS)
    full = spans.Tracer(FUNCS, SIZERS) if args.trace else None

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ops = Ops()
    predictor = Predictor(scale.predict_calls)
    try:
        workload = WORKLOADS[args.workload](scale, args.seed)
        setup_tracer = full if full is not None else phase
        setup_s, setup_segments = [], []
        for k in range(scale.setups):
            root = work / f"setup{k}"
            root.mkdir(parents=True)
            lo = len(setup_tracer)
            with setup_tracer.active():
                t0 = perf_counter()
                workload.setup(root, predictor)
                setup_s.append(perf_counter() - t0)
                predictor.burst(ops)
            setup_segments.append((lo, len(setup_tracer)))
            if k:
                shutil.rmtree(work / f"setup{k - 1}")

        passes, pass_segments, walls = [], [], []
        # trace 1: one reference pass with only the phase timers, then one traced pass
        plan = [phase, full] if args.trace else None
        attempts = 0
        t_start = perf_counter()
        while (plan and attempts < len(plan)) or (not plan and (
            attempts == 0
            or perf_counter() - t_start + statistics.median(walls) <= args.seconds
        )):
            tracer = plan[attempts] if plan else phase
            lo = len(tracer)
            out = work / f"pass{attempts}"
            out.mkdir()
            attempts += 1
            walls.append(-perf_counter())
            try:
                elapsed = workload.run_pass(ops, out, tracer.active, predictor)
            except Exception:  # one failed pass must not hide the others
                traceback.print_exc(file=sys.stderr)
                ops.record(f"pass {attempts - 1}", False, "raised")
                continue
            finally:
                walls[-1] += perf_counter()
                shutil.rmtree(out, ignore_errors=True)
            passes.append(elapsed)
            pass_segments.append((lo, len(tracer)))

        if args.trace:
            if len(passes) != 2:
                raise RuntimeError("traced run needs both passes")
            metrics = per_layer(full, passes[1], passes[0])
            units = per_layer_units()
        else:
            metrics = end_to_end(setup_s, passes, predictor.latencies_ms, setup_segments,
                                 pass_segments, phase)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if full is not None:
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for name, start, end, parent in full.spans():
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    print(f"# deskbench {args.workload} seed={args.seed} trace={args.trace} "
          f"setups={len(setup_s)} passes={len(passes)} "
          f"predict_calls={len(predictor.latencies_ms)}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"# {name:<34} {shown} {units[name]}")
    ratio = ops.failed / ops.attempted if ops.attempted else 0.0
    print(f"# failed_ratio {ratio:g} ({ops.failed} failed of {ops.attempted} operations)")
    for note in ops.notes[:20]:
        print(f"# FAILED {note}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
