import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmpad
from cmpad import cli, harness
from cmpad.cli import (
    DEFAULT_CONFIG, build_generator_spec, build_protocol, build_train_config,
    load_effective_config, main,
)
from cmpad.datagen import GeneratorSpec
from cmpad.datasets import load_manifest, make_grandtest, write_manifest
from cmpad.errors import ConfigError
from cmpad.harness import Protocol, TrainConfig
from cmpad.network import NetworkConfig, init_network, save_checkpoint

TINY = {
    "generator": {
        "image_size": 16, "n_identities": 6, "samples_per_identity": 3, "seed": 3
    },
    "network": {
        "input_height": 16, "input_width": 16, "blocks_per_branch": 2,
        "base_filters": 4, "embedding_dim": 8,
    },
    "train": {"epochs": 2, "batch_size": 16},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


@pytest.fixture()
def dataset(tmp_path, tiny_config):
    ds = tmp_path / "ds"
    assert main(["gen-data", str(ds), "--config", str(tiny_config)]) == 0
    return ds


def tree_bytes(root: Path, skip=("run_meta.json",)) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


RUN_FILES = {"config.json", "status"}  # written by every run subcommand
LEGS = ("loo_a_visible", "loo_b_visible", "loo_both_visible")
LOO_FILES = {"summary.json", "run_meta.json"} | {
    f"{leg}/{name}"
    for leg in LEGS
    for name in ("checkpoint.bin", f"report_{leg}.json",
                 "scores_dev_joint.tsv", "scores_eval_joint.tsv")
}


def written(run: Path) -> set:
    """Relative paths of every file under a run directory."""
    return {str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()}


def test_every_export_resolves():
    missing = [name for name in cmpad.__all__ if not hasattr(cmpad, name)]
    assert missing == []


class TestConfig:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="generator.wavelength"):
            load_effective_config(None, {"generator": {"wavelength": 3}})

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # network.seed is no key: training derives the init seed from train.seed
        for section, key in (("generator", "wavelength"), ("network", "seed")):
            bad.write_text(json.dumps({section: {key: 3}}))
            assert main(["gen-data", str(tmp_path / "x"), "--config", str(bad)]) == 2
            assert f"unknown config key: {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol, key", [
        ({"ratios": [0.5, 0.5, 0.5]}, "protocol.ratios"),
        ({"bpcer_target": 1.5}, "protocol.bpcer_target"),
    ])
    def test_protocol_error_exit_code(self, tmp_path, dataset, capsys, protocol, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "protocol": protocol}))
        out = tmp_path / "runs"
        assert main(["loo", "--data", str(dataset), "--config", str(bad),
                     "--out", str(out), "--name", "bad"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()  # rejected before the run directory is made

    @pytest.mark.parametrize("optimizer, key", [
        ({"eps": 0.0}, "optimizer.eps"),
        ({"eps": -1e-8}, "optimizer.eps"),
        ({"weight_decay": -1.0}, "optimizer.weight_decay"),
    ])
    def test_optimizer_error_exit_code(self, tmp_path, dataset, capsys, optimizer, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "optimizer": optimizer}))
        out = tmp_path / "runs"
        assert main(["train", "--data", str(dataset), "--config", str(bad),
                     "--out", str(out), "--name", "bad"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()  # rejected before the run directory is made

    @pytest.mark.parametrize("bad_cfg, key", [
        ({"generator": {"n_identities": "x"}}, "generator.n_identities"),
        ({"generator": {"attack_types": 5}}, "generator.attack_types"),
        ({"protocol": {"seed": "x"}}, "protocol.seed"),
        ({"train": {"epochs": True}}, "train.epochs"),  # a bool is not a number
    ])
    def test_wrong_type_exit_code(self, tmp_path, dataset, capsys, bad_cfg, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, **bad_cfg}))
        out = tmp_path / "runs"
        assert main(["gen-data", str(out / "ds"), "--config", str(bad)]) == 2
        assert main(["loo", "--data", str(dataset), "--config", str(bad),
                     "--out", str(out), "--name", "bad"]) == 2
        assert capsys.readouterr().err.count(key) == 2
        assert not out.exists()  # rejected before any output directory is made

    @pytest.mark.parametrize("generator, key", [
        ({"channels_a": 2}, "generator.channels_a"),
        ({"channels_a": 0}, "generator.channels_a"),
        ({"channels_b": 0}, "generator.channels_b"),
        ({"attack_types": []}, "generator.attack_types"),
        ({"attack_types": ["A_VISIBLE", "A_VISIBLE", "B_VISIBLE"]}, "generator.attack_types"),
        ({"image_size": 0}, "generator.image_size"),
        ({"n_identities": -1}, "generator.n_identities"),
        ({"attack_strength": 10**9}, "generator.attack_strength"),
    ])
    def test_generator_error_exit_code(self, tmp_path, dataset, capsys, generator, key):
        # a run subcommand echoes the generator section into its config.json,
        # so it must reject what gen-data would reject
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, "generator": {**TINY["generator"], **generator}}))
        out = tmp_path / "runs"
        assert main(["gen-data", str(out / "ds"), "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err
        assert main(["train", "--data", str(dataset), "--config", str(bad),
                     "--out", str(out), "--name", "bad"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()  # rejected before any output directory is made

    @pytest.mark.parametrize("raw", [b"[1, 2]", b'"x"', b'{"train": {}}\xff'])
    def test_config_file_not_an_object_or_not_utf8(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["gen-data", str(tmp_path / "ds"), "--config", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, literal", [
        ("generator", "noise_sigma", "NaN"),
        ("loss", "gamma", "NaN"),
        ("loss", "alpha_attack", "NaN"),
        ("loss", "gamma", "Infinity"),
        ("loss", "gamma", "-Infinity"),
        ("loss", "gamma", "1e400"),  # overflows to inf as a float
    ])
    def test_non_finite_number_exit_code(self, tmp_path, dataset, capsys, section, key,
                                         literal):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, section: {key: "@"}}).replace('"@"', literal))
        out = tmp_path / "runs"
        assert main(["gen-data", str(out / "ds"), "--config", str(bad)]) == 2
        assert main(["train", "--data", str(dataset), "--config", str(bad),
                     "--out", str(out), "--name", "bad"]) == 2
        assert capsys.readouterr().err.count(f"non-finite number {literal}") == 2
        assert not out.exists()  # rejected before any output directory is made

    @pytest.mark.parametrize("argv", [
        ["sweep-gamma", "--gammas=-1"],
        ["sweep-gamma", "--gammas", ""],
        ["sweep-gamma", "--gammas", "0,nan"],
        ["sweep-gamma", "--gammas", "inf"],
        ["single-channel", "--seeds", ""],
        ["single-channel", "--seeds", ","],
        ["sweep-gamma", "--gammas", "3,3"],
        ["sweep-gamma", "--gammas", "0,3,3.0"],  # equal as numbers
        ["single-channel", "--seeds", "1,1"],
        ["sweep-gamma", "--gammas", "0.1234567,0.1234568"],  # one gamma_0.123457 directory
    ])
    def test_bad_list_flag_exit_code(self, tmp_path, tiny_config, dataset, capsys, argv):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--data", str(dataset), "--config", str(tiny_config),
                  "--out", str(out), "--name", "bad"])
        assert exc.value.code == 2
        assert argv[1].split("=")[0] in capsys.readouterr().err
        assert not out.exists()  # rejected before the run directory is made

    def test_defaults_documented_complete(self):
        cfg = load_effective_config(None, {})
        assert cfg == DEFAULT_CONFIG

    def test_desk_json_spells_out_every_default(self):
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
        assert json.loads(desk.read_text()) == DEFAULT_CONFIG

    def test_built_in_defaults_are_the_dataclass_defaults(self):
        assert build_train_config(DEFAULT_CONFIG) == TrainConfig()
        assert build_generator_spec(DEFAULT_CONFIG) == GeneratorSpec()

    def test_protocol_default_is_the_dataclass_default(self):
        assert DEFAULT_CONFIG["protocol"] == json.loads(json.dumps(asdict(Protocol())))
        assert build_protocol(DEFAULT_CONFIG) == Protocol()

    @pytest.mark.parametrize("seed", [-1, 2**31])
    @pytest.mark.parametrize("section", ["generator", "train", "protocol"])
    def test_seed_out_of_range_exit_code(self, tmp_path, dataset, capsys, section, seed):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, section: {**TINY.get(section, {}), "seed": seed}}))
        out = tmp_path / "runs"
        assert main(["train", "--data", str(dataset), "--config", str(bad),
                     "--out", str(out), "--name", "bad"]) == 2
        assert f"{section}.seed must be in [0, 2**31), got {seed}" in capsys.readouterr().err
        assert not out.exists()  # rejected before the run directory is made

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("bad_cfg, flags, message", [
        ({"train": {"epochs": 0}}, [], "train.epochs must be >= 1"),
        ({"loss": {"gamma": -1}}, [], "loss.gamma must be >= 0"),
        ({"optimizer": {"eps": 0.0}}, [], "optimizer.eps"),
        ({}, ["--seed=-1"], "train.seed"),
    ])
    def test_checkpoint_runs_check_the_training_sections(
            self, tmp_path, dataset, capsys, monkeypatch, command, bad_cfg, flags, message):
        # config.json echoes these sections, and train must accept that echo
        ckpt = tmp_path / "init.bin"
        save_checkpoint(init_network(NetworkConfig(**TINY["network"])), ckpt)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY, **bad_cfg}))
        monkeypatch.setattr(cli, "load_dataset", reach_work)  # refused before any decode
        out = tmp_path / "runs"
        assert main([command, "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--config", str(bad), "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["loo", "--name", "n" * 256],
        ["eval", "--checkpoint", "{tmp}/init.bin", "--name", "é" * 128],  # 256 bytes in UTF-8
        ["train", "--name", "sub/" + "n" * 256],
        ["train", "--out", "{tmp}/" + "r" * 256],
        ["gen-data", "{tmp}/" + "d" * 256],
        ["train", "--out", "r\0r"],  # only a config file can spell a NUL
    ], ids=["loo", "eval-utf8", "train-nested", "train-out-root", "gen-data", "nul"])
    def test_unusable_run_dir_name_exit_code(self, tmp_path, tiny_config, dataset, capsys,
                                             monkeypatch, argv):
        save_checkpoint(init_network(NetworkConfig(**TINY["network"])), tmp_path / "init.bin")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if argv[0] != "gen-data":
            argv += ["--data", str(dataset)]
        monkeypatch.setattr(cli, "load_dataset", reach_work)  # refused before any decode
        monkeypatch.setattr(cli, "generate", reach_work)
        before = sorted(tmp_path.rglob("*"))
        with contextlib.chdir(tmp_path):
            assert main([*argv, "--config", str(tiny_config)]) == 2
        assert "holds a NUL or is longer than 255 bytes" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # nothing written

    def test_name_of_255_bytes_is_accepted(self, tmp_path, tiny_config, dataset):
        out = tmp_path / "runs"
        assert main(["train", "--data", str(dataset), "--config", str(tiny_config),
                     "--out", str(out), "--name", "é" * 127 + "n", "--epochs", "1"]) == 0
        assert (out / ("é" * 127 + "n") / "checkpoint.bin").is_file()

    @pytest.mark.parametrize("seed", ["-1", "2147483648"])
    @pytest.mark.parametrize("command, key", [("gen-data", "generator.seed"),
                                              ("train", "train.seed")])
    def test_seed_flag_out_of_range_exit_code(self, tmp_path, tiny_config, dataset, capsys,
                                              command, key, seed):
        out = tmp_path / "runs"
        where = [str(out / "ds")] if command == "gen-data" else ["--data", str(dataset)]
        assert main([command, *where, "--config", str(tiny_config), "--out", str(out),
                     f"--seed={seed}"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-1", "0,2147483648"])
    def test_seeds_flag_out_of_range_exit_code(self, tmp_path, tiny_config, dataset, seeds):
        out = tmp_path / "runs"
        with pytest.raises(SystemExit) as exc:
            main(["single-channel", f"--seeds={seeds}", "--data", str(dataset),
                  "--config", str(tiny_config), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_file_overrides_default(self, tiny_config):
        cfg = load_effective_config(str(tiny_config), {})
        assert cfg["train"]["epochs"] == 2  # file
        assert cfg["train"]["hflip_prob"] == 0.5  # default preserved

    # flag > file > default, three fields
    def test_precedence_seed(self, tmp_path, tiny_config, dataset):
        out = tmp_path / "r"
        code = main([
            "loo", "--data", str(dataset), "--config", str(tiny_config),
            "--out", str(out), "--name", "n", "--seed", "99",
        ])
        assert code == 0
        echoed = json.loads((out / "n" / "config.json").read_text())
        assert echoed["train"]["seed"] == 99  # flag beats file/default

    def test_precedence_epochs(self, tmp_path, tiny_config, dataset):
        out = tmp_path / "r"
        code = main([
            "train", "--data", str(dataset), "--config", str(tiny_config),
            "--out", str(out), "--name", "n", "--epochs", "1",
        ])
        assert code == 0
        echoed = json.loads((out / "n" / "config.json").read_text())
        assert echoed["train"]["epochs"] == 1  # flag beats the file's 2
        assert len(json.loads((out / "n" / "losslog.json").read_text())) == 1

    def test_precedence_out_root(self, tmp_path, tiny_config, dataset):
        filecfg = dict(TINY)
        filecfg["out_root"] = str(tmp_path / "from_file")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(filecfg))
        # file beats default
        assert main(["train", "--data", str(dataset), "--config", str(path),
                     "--name", "n"]) == 0
        assert (tmp_path / "from_file" / "n").is_dir()
        # flag beats file
        assert main(["train", "--data", str(dataset), "--config", str(path),
                     "--out", str(tmp_path / "from_flag"), "--name", "n"]) == 0
        assert (tmp_path / "from_flag" / "n").is_dir()


class ReachedWork(BaseException):
    """Raised in place of generation or training. Not an Exception, so
    main's catch-all cannot turn it into exit 4."""


def reach_work(*args, **kwargs):
    raise ReachedWork


CONFIG_KEYS = ["out_root"] + [
    f"{section}.{key}" for section, body in DEFAULT_CONFIG.items() if isinstance(body, dict)
    for key in body
]
BOUNDARY_VALUES = (0, -1, 10**9, [], "x")


@pytest.fixture(scope="module")
def shared_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    assert main(["gen-data", str(root / "ds"), "--config", str(config)]) == 0
    return root / "ds"


# every key and value for both commands, so the search space is exhausted
@settings(max_examples=2 * len(CONFIG_KEYS) * len(BOUNDARY_VALUES), deadline=None)
@given(key=st.sampled_from(CONFIG_KEYS), value=st.sampled_from(BOUNDARY_VALUES),
       command=st.sampled_from(("gen-data", "train")))
def test_boundary_value_is_named_before_any_directory_or_reaches_work(
        shared_dataset, key, value, command):
    """One key of the built-in defaults set to a boundary value either
    exits 2 naming the key before any directory exists, or reaches
    generation or training (replaced here by ReachedWork). It never
    exits 4."""
    section, _, name = key.rpartition(".")
    override = {section: {name: value}} if section else {name: value}
    argv = ["gen-data", "ds"] if command == "gen-data" else ["train", "--data", str(shared_dataset)]
    with (tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp),
          mock.patch.object(cli, "generate", reach_work),
          mock.patch.object(cli, "train", reach_work),
          contextlib.redirect_stderr(io.StringIO()) as err):
        Path("bad.json").write_text(json.dumps(override))
        try:
            code = main([*argv, "--config", "bad.json"])
        except ReachedWork:
            return
        assert code == 2 and key in err.getvalue(), (code, err.getvalue())
        assert os.listdir() == ["bad.json"]  # rejected before any directory is made


class TestGenData:
    def test_deterministic_directories(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", str(a), "--config", str(tiny_config), "--seed", "7"]) == 0
        assert main(["gen-data", str(b), "--config", str(tiny_config), "--seed", "7"]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_refuses_nonempty_without_force(self, tmp_path, tiny_config, capsys):
        ds = tmp_path / "ds"
        assert main(["gen-data", str(ds), "--config", str(tiny_config)]) == 0
        assert main(["gen-data", str(ds), "--config", str(tiny_config)]) == 3
        assert "not empty" in capsys.readouterr().err
        assert main(["gen-data", str(ds), "--config", str(tiny_config), "--force"]) == 0

    def test_manifest_has_all_classes(self, dataset):
        lines = (dataset / "manifest.tsv").read_text().splitlines()[1:]
        kinds = {line.split("\t")[4] for line in lines}
        assert kinds == {"bonafide", "A_VISIBLE", "B_VISIBLE", "BOTH_VISIBLE"}


class TestRunCommands:
    def test_loo_table_and_artifacts(self, tmp_path, tiny_config, dataset, capsys):
        out = tmp_path / "runs"
        code = main([
            "loo", "--data", str(dataset), "--config", str(tiny_config),
            "--out", str(out), "--name", "loo1",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "Mean±Std" in text
        for attack in ("A_VISIBLE", "B_VISIBLE", "BOTH_VISIBLE"):
            assert attack in text
        run = out / "loo1"
        assert (run / "status").read_text() == "done\n"
        assert written(run) == RUN_FILES | LOO_FILES

    def test_rerun_from_echoed_config_is_bit_identical(self, tmp_path, tiny_config, dataset):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["loo", "--data", str(dataset), "--config", str(tiny_config),
                     "--out", str(out1), "--name", "n"]) == 0
        echo = out1 / "n" / "config.json"
        assert main(["loo", "--data", str(dataset), "--config", str(echo),
                     "--out", str(out2), "--name", "n"]) == 0
        t1 = tree_bytes(out1 / "n", skip=("run_meta.json", "config.json"))
        t2 = tree_bytes(out2 / "n", skip=("run_meta.json", "config.json"))
        assert t1 == t2

    def test_sweep_gamma_table(self, tmp_path, tiny_config, dataset, capsys):
        out = tmp_path / "runs"
        code = main([
            "sweep-gamma", "--data", str(dataset), "--config", str(tiny_config),
            "--out", str(out), "--name", "sw", "--gammas", "0,3",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "gamma" in text
        assert written(out / "sw") == RUN_FILES | {
            f"gamma_{g}/{f}" for g in (0, 3) for f in LOO_FILES
        }

    def test_eval_and_report(self, tmp_path, tiny_config, dataset, capsys):
        out = tmp_path / "runs"
        assert main(["train", "--data", str(dataset), "--config", str(tiny_config),
                     "--out", str(out), "--name", "tr"]) == 0
        assert written(out / "tr") == RUN_FILES | {"checkpoint.bin", "losslog.json"}
        ckpt = out / "tr" / "checkpoint.bin"
        assert main(["eval", "--data", str(dataset), "--config", str(tiny_config),
                     "--out", str(out), "--name", "ev", "--checkpoint", str(ckpt)]) == 0
        assert written(out / "ev") == RUN_FILES | {
            "report_grandtest.json", "scores_dev_joint.tsv", "scores_eval_joint.tsv"
        }
        assert main(["report", "--data", str(dataset), "--config", str(tiny_config),
                     "--out", str(out), "--name", "rep", "--checkpoint", str(ckpt)]) == 0
        assert written(out / "rep") == RUN_FILES | {
            "histograms.tsv", "losscurve.tsv", "scores_eval.tsv",
        }

    def test_eval_head_b_never_reads_channel_a(self, tmp_path, tiny_config, dataset):
        out = tmp_path / "runs"
        assert main(["train", "--data", str(dataset), "--config", str(tiny_config),
                     "--out", str(out), "--name", "tr"]) == 0
        ckpt = out / "tr" / "checkpoint.bin"
        # deleting every channel-A raster must not affect a head-B evaluation
        for p in (dataset / "data").glob("*_a.*"):
            p.unlink()
        assert main(["eval", "--data", str(dataset), "--config", str(tiny_config),
                     "--out", str(out), "--name", "evb", "--checkpoint", str(ckpt),
                     "--head", "b"]) == 0
        assert (out / "evb" / "report_grandtest.json").exists()

    def test_single_channel_study(self, tmp_path, tiny_config, dataset, capsys):
        out = tmp_path / "runs"
        code = main([
            "single-channel", "--data", str(dataset), "--config", str(tiny_config),
            "--out", str(out), "--name", "sc", "--seeds", "0,1",
        ])
        assert code == 0
        study = json.loads((out / "sc" / "single_channel_study.json").read_text())
        assert len(study["per_seed"]) == 4  # 2 losses x 2 heads
        assert written(out / "sc") == RUN_FILES | {"single_channel_study.json"}

    def test_single_channel_honours_loss_gamma(self, tmp_path, dataset, monkeypatch):
        path = tmp_path / "gamma2.json"
        path.write_text(json.dumps({**TINY, "loss": {"gamma": 2}}))
        gammas = []
        real = harness.train

        def spy(split, samples, cfg):
            gammas.append(cfg.loss.gamma)
            return real(split, samples, cfg)

        monkeypatch.setattr(harness, "train", spy)
        out = tmp_path / "runs"
        assert main(["single-channel", "--data", str(dataset), "--config", str(path),
                     "--out", str(out), "--name", "sc", "--seeds", "0"]) == 0
        assert sorted(gammas) == [0.0, 2.0]  # the BCE leg and the focal leg
        study = json.loads((out / "sc" / "single_channel_study.json").read_text())
        assert study["gamma_focal"] == 2.0

    def test_xdb(self, tmp_path, tiny_config, dataset):
        other = tmp_path / "ds2"
        assert main(["gen-data", str(other), "--config", str(tiny_config),
                     "--seed", "11"]) == 0
        out = tmp_path / "runs"
        code = main([
            "xdb", "--data", str(dataset), "--data2", str(other),
            "--config", str(tiny_config), "--out", str(out), "--name", "x",
        ])
        assert code == 0
        result = json.loads((out / "x" / "cross_dataset.json").read_text())
        assert result["threshold_rule"] == "EER"
        assert 0.0 <= result["cross_hter"] <= 1.0
        assert written(out / "x") == RUN_FILES | {
            "cross_dataset.json", "scores_dev_joint.tsv",
            "scores_eval_intra_joint.tsv", "scores_eval_cross_joint.tsv",
        }

    def test_xdb_empty_dataset_is_data_error(self, tmp_path, tiny_config, dataset, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        header = (dataset / "manifest.tsv").read_text().splitlines()[0]
        (empty / "manifest.tsv").write_text(header + "\n")
        for role, source, target in (("target", dataset, empty), ("source", empty, dataset)):
            code = main(["xdb", "--data", str(source), "--data2", str(target),
                         "--config", str(tiny_config), "--out", str(tmp_path / "runs"),
                         "--name", role])
            assert code == 3
            assert f"{role} dataset is empty" in capsys.readouterr().err

    def test_fold_without_a_class_is_data_error(self, tmp_path, tiny_config, dataset, capsys):
        records = load_manifest(dataset)
        dev = {r.identity for r in records if r.id in make_grandtest(records).dev}
        kept = [r for r in records if not (r.label == 1 and r.identity in dev)]
        write_manifest(dataset / "manifest.tsv", kept)
        ckpt = tmp_path / "init.bin"
        save_checkpoint(init_network(NetworkConfig(**TINY["network"])), ckpt)
        out = tmp_path / "runs"
        for argv, made in ((["train"], False), (["eval", "--checkpoint", str(ckpt)], False),
                           (["loo"], True), (["single-channel", "--seeds", "0"], True)):
            code = main([*argv, "--data", str(dataset), "--config", str(tiny_config),
                         "--out", str(out), "--name", argv[0]])
            assert code == 3, argv
            assert "dev fold has no bonafide sample" in capsys.readouterr().err
            status = out / argv[0] / "status"
            assert status.read_text() == "failed: DataError\n" if made else not status.exists()

    def test_sentinel_threshold_reports_are_strict_json(self, tmp_path, dataset):
        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        path = tmp_path / "target1.json"  # BPCER target 1 thresholds at a sentinel
        path.write_text(json.dumps({**TINY, "protocol": {"bpcer_target": 1}}))
        out = tmp_path / "runs"
        common = ["--data", str(dataset), "--config", str(path), "--out", str(out)]
        assert main(["train", *common, "--name", "tr"]) == 0
        assert main(["eval", *common, "--name", "ev",
                     "--checkpoint", str(out / "tr" / "checkpoint.bin")]) == 0
        assert main(["loo", *common, "--name", "loo"]) == 0
        report = json.loads((out / "ev" / "report_grandtest.json").read_text(),
                            parse_constant=refuse)
        assert report["metrics"]["threshold"] == "-inf"
        summary = json.loads((out / "loo" / "summary.json").read_text(), parse_constant=refuse)
        assert {row["threshold"] for row in summary["rows"]} == {"-inf"}

    def test_every_design_honours_protocol_section(self, tmp_path, dataset, monkeypatch):
        # a split seed and BPCER target that differ from every default
        path = tmp_path / "proto.json"
        path.write_text(json.dumps({**TINY, "protocol": {"seed": 5, "bpcer_target": 0.2}}))
        out = tmp_path / "runs"
        common = ["--data", str(dataset), "--config", str(path), "--out", str(out)]
        assert main(["loo", *common, "--name", "loo"]) == 0
        assert main(["sweep-gamma", *common, "--name", "sw", "--gammas", "3"]) == 0
        # the gamma=3 sweep legs are the loo legs: same splits, threshold rule, bytes
        loo = tree_bytes(out / "loo", skip=("run_meta.json", "config.json", "status"))
        assert loo == tree_bytes(out / "sw" / "gamma_3")

        targets = []
        real = harness.threshold_at_bpcer

        def spy(dev_records, target=0.01, head="joint"):
            targets.append(target)
            return real(dev_records, target=target, head=head)

        monkeypatch.setattr(harness, "threshold_at_bpcer", spy)
        assert main(["single-channel", *common, "--name", "sc", "--seeds", "0"]) == 0
        assert targets == [0.2] * 4  # 2 losses x 2 heads

    @staticmethod
    def train_bytes_by_threads(tmp_path, config, data, *extra):
        src = Path(cmpad.__file__).resolve().parents[1]
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "cmpad.cli", "train", "--data", str(data),
                 "--config", str(config), "--out", str(out), "--name", "tr", *extra],
                env=env, check=True, capture_output=True, timeout=300,
            )
            runs[threads] = [(out / "tr" / f).read_bytes()
                             for f in ("checkpoint.bin", "losslog.json")]
        return runs

    def test_train_bytes_independent_of_blas_threads(self, tmp_path, tiny_config, dataset):
        runs = self.train_bytes_by_threads(tmp_path, tiny_config, dataset)
        assert runs["1"] == runs["2"]

    def test_train_bytes_independent_of_blas_threads_at_desk_size(self, tmp_path):
        # 32x32 rasters in batches of 32: each first-layer GEMM has 32,768
        # columns, enough for OpenBLAS to split it across threads
        config = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
        data = tmp_path / "desk"
        assert main(["gen-data", str(data), "--config", str(config)]) == 0
        runs = self.train_bytes_by_threads(tmp_path, config, data, "--epochs", "2")
        assert runs["1"] == runs["2"]

    def test_missing_dataset_is_data_error(self, tmp_path, tiny_config, capsys):
        code = main(["loo", "--data", str(tmp_path / "nope"),
                     "--config", str(tiny_config), "--out", str(tmp_path / "r")])
        assert code == 3

    def test_raster_shape_mismatch_is_data_error(self, tmp_path, dataset, capsys):
        # 16x16 rasters under the default 32x32 network
        assert main(["train", "--data", str(dataset), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "(3, 16, 16)" in err and "(3, 32, 32)" in err

    @pytest.mark.parametrize("argv, blamed", [
        (["eval", "--checkpoint", "{tmp}/missing.bin", "--out", "{tmp}/runs"],
         "{tmp}/missing.bin"),
        (["eval", "--checkpoint", "{tmp}", "--out", "{tmp}/runs"], "{tmp}"),
        (["report", "--checkpoint", "{tmp}", "--out", "{tmp}/runs"], "{tmp}"),
        (["train", "--out", "{tmp}", "--name", "file"], "{tmp}/file"),
        (["train", "--out", "{tmp}", "--name", "file", "--force"], "{tmp}/file"),
        (["train", "--out", "{tmp}/file"], "{tmp}/file"),
        (["gen-data", "{tmp}/file"], "{tmp}/file"),
        (["gen-data", "{tmp}/file/ds", "--force"], "{tmp}/file"),
    ], ids=["eval-missing-checkpoint", "eval-checkpoint-dir", "report-checkpoint-dir",
            "run-dir-file", "run-dir-file-force", "out-root-file", "gen-data-file",
            "gen-data-under-file"])
    def test_path_of_wrong_kind_is_data_error(self, tmp_path, tiny_config, dataset, capsys,
                                              argv, blamed):
        (tmp_path / "file").write_text("not a directory\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if argv[0] != "gen-data":
            argv += ["--data", str(dataset)]
        assert main([*argv, "--config", str(tiny_config)]) == 3
        assert blamed.format(tmp=tmp_path) in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()  # rejected before the run directory is made
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_designs_refuse_repeated_entries(self, tiny_samples, tiny_records, tiny_cfg):
        for gammas in ((3, 3.0), (0.1234567, 0.1234568)):
            with pytest.raises(ValueError, match="repeated gamma"):
                harness.run_gamma_sweep(tiny_samples, tiny_records, tiny_cfg, gammas=gammas)
        with pytest.raises(ValueError, match="repeated seed"):
            harness.run_single_channel_study(tiny_samples, tiny_records, tiny_cfg, seeds=(1, 1))

    def test_designs_refuse_empty_lists(self, tiny_samples, tiny_records, tiny_cfg, tmp_path):
        with pytest.raises(ValueError, match="gamma list must be non-empty"):
            harness.run_gamma_sweep(tiny_samples, tiny_records, tiny_cfg, gammas=())
        with pytest.raises(ValueError, match="seed list must be non-empty"):
            harness.run_single_channel_study(tiny_samples, tiny_records, tiny_cfg, seeds=(),
                                             out_dir=tmp_path)
        assert not any(tmp_path.iterdir())  # no study file with NaN medians

    def test_loo_refuses_existing_run_dir(self, tmp_path, tiny_config, dataset, capsys):
        out = tmp_path / "runs"
        args = ["loo", "--data", str(dataset), "--config", str(tiny_config),
                "--out", str(out), "--name", "again"]
        assert main(args) == 0
        assert main(args) == 3
        assert main(args + ["--force"]) == 0


class TestLossCurveScript:
    @staticmethod
    def run_script(monkeypatch, out: Path, *argv: str) -> None:
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_loss_curves.py"
        script_main = runpy.run_path(str(script))["main"]
        monkeypatch.setattr(sys, "argv", [script.name, *argv, "--out", str(out)])
        script_main()

    def test_one_column_per_gamma_and_q(self, tmp_path, monkeypatch):
        out = tmp_path / "losscurve.tsv"
        self.run_script(monkeypatch, out, "--gammas", "0,3", "--q-values", "0,1")
        header = out.read_text().splitlines()[0].split("\t")
        assert header == ["p_t", "ce", "g0_q0", "g0_q1", "g3_q0", "g3_q1"]

    @pytest.mark.parametrize("argv", [
        ["--gammas", "nan"],
        ["--gammas=-1"],
        ["--gammas", "3,x"],
        ["--gammas", "3,3"],
        ["--q-values", "0,inf"],
        ["--gammas", "0.1234567,0.1234568"],  # one g0.123457_q* column each
    ])
    def test_bad_list_exit_code(self, tmp_path, monkeypatch, capsys, argv):
        out = tmp_path / "losscurve.tsv"
        with pytest.raises(SystemExit) as exc:
            self.run_script(monkeypatch, out, *argv)
        assert exc.value.code == 2
        assert argv[0].split("=")[0] in capsys.readouterr().err
        assert not out.exists()
