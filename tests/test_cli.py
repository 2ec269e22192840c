import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmpad
from cmpad import harness
from cmpad.cli import DEFAULT_CONFIG, load_effective_config, main
from cmpad.errors import ConfigError

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
        bad.write_text(json.dumps({"generator": {"wavelength": 3}}))
        assert main(["gen-data", str(tmp_path / "x"), "--config", str(bad)]) == 2
        assert "generator.wavelength" in capsys.readouterr().err

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

    def test_loo_refuses_existing_run_dir(self, tmp_path, tiny_config, dataset, capsys):
        out = tmp_path / "runs"
        args = ["loo", "--data", str(dataset), "--config", str(tiny_config),
                "--out", str(out), "--name", "again"]
        assert main(args) == 0
        assert main(args) == 3
        assert main(args + ["--force"]) == 0
