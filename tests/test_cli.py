import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linkmark import cli, graph
from linkmark.attacks import ATTACKS
from linkmark.cli import _settings, _train_config, _wm_params, build_parser, main
from linkmark.graph import load_dataset
from linkmark.nn import LinkPredictor, TrainConfig
from linkmark.protocol import WmParams
from linkmark.util import sha256_file
from linkmark.watermark import NodeRepWatermark, load_wm, save_wm

from conftest import BAD_CHECKPOINTS

REPO = Path(__file__).resolve().parent.parent

SUBCOMMANDS = ["datagen", "split", "wm-gen", "train", "eval", "threshold",
               "attack", "register", "dispute", "serve", "report"]


def write_config(tmp_path, **extra):
    doc = {"blocks": 2, "per_block": 40, "p_in": 0.3, "p_out": 0.02,
           "feature_dim": 16, "rate": 0.1, "arch": "gcn", "hidden": 32,
           "epochs": 60, "lr": 0.001, "method": "genie"}
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """datagen + split + wm-gen + short train, shared by the CLI tests."""
    out = tmp_path_factory.mktemp("cli")
    cfg = write_config(out)
    base = ["--out", str(out), "--seed", "42", "--config", str(cfg)]
    assert main(["datagen"] + base) == 0
    edges = [str(out / "graph.edges"), "--features", str(out / "graph.features")]
    assert main(["split"] + base + ["--edges"] + edges) == 0
    assert main(["wm-gen"] + base + ["--edges"] + edges) == 0
    assert main(["train"] + base + ["--dataset", str(out / "dataset.npz"),
                                    "--wm", str(out / "trigger.gwm")]) == 0
    return out, cfg


class TestParser:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_available(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        assert command in capsys.readouterr().out or True

    def test_unknown_flag_fails_fast(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["datagen", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["serve", "--checkpoint", "c", "--seed", "1"],
        ["serve", "--checkpoint", "c", "--config", "c.json"],
        ["eval", "--dataset", "d", "--checkpoint", "c", "--seed", "1"],
        ["report", "--runs", "r", "--table", "mainResults"],
        ["report", "--runs", "r", "--config", "c.json"],
    ])
    def test_options_a_command_would_ignore_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


def settings_for(tmp_path, argv, doc):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(doc))
    return _settings(build_parser().parse_args(argv + ["--config", str(path)]))


class TestSettings:
    def test_empty_config_gives_defaults(self, tmp_path):
        s = settings_for(tmp_path, ["train", "--dataset", "d"], {})
        cfg = _train_config(s)
        assert cfg == TrainConfig()
        assert (cfg.epochs, cfg.learning_rate, cfg.hidden_dim, cfg.arch) == (400, 1e-3, 256, "gcn")
        assert (s["seed"], s["method"]) == (0, "genie")
        assert _wm_params(s) == WmParams()

    def test_full_config_gives_train_config(self, tmp_path):
        doc = {"arch": "sage", "hidden": 48, "epochs": 120, "lr": 2e-3, "seed": 9,
               "method": "mgda"}
        s = settings_for(tmp_path, ["train", "--dataset", "d"], doc)
        assert _train_config(s) == TrainConfig(epochs=120, learning_rate=2e-3,
                                               hidden_dim=48, seed=9, arch="sage")
        assert s["method"] == "mgda"

    def test_full_config_gives_wm_params(self, tmp_path):
        doc = {"pathway": "subgraph", "rate": 0.2, "hops": 2, "ratios": [0.6, 0.2, 0.2]}
        s = settings_for(tmp_path, ["wm-gen", "--edges", "e"], doc)
        assert _wm_params(s) == WmParams("subgraph", 0.2, 2, (0.6, 0.2, 0.2))

    def test_bad_config_value_names_its_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs="many")
        rc = main(["train", "--out", str(tmp_path), "--dataset", "d", "--config", str(cfg)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "invalid_input" and "'epochs'" in doc["message"]

    def test_datagen_feature_dim_flag_beats_config_beats_default(self, tmp_path):
        cfg = str(write_config(tmp_path))  # feature_dim 16

        def dim(name, *extra):
            out = tmp_path / name
            assert main(["datagen", "--out", str(out), "--seed", "1", *extra]) == 0
            manifest = json.loads((out / "datagen_manifest.json").read_text())
            first_row = (out / "graph.features").read_text().splitlines()[0]
            assert manifest["params"]["feature_dim"] == len(first_row.split()) - 1
            return manifest["params"]["feature_dim"]

        assert dim("flag", "--config", cfg, "--feature-dim", "8") == 8
        assert dim("config", "--config", cfg) == 16
        assert dim("default") == 32

    def test_datagen_manifest_records_the_seed_that_ran(self, tmp_path):
        cfg = str(write_config(tmp_path, seed=7))
        assert main(["datagen", "--out", str(tmp_path / "a"), "--seed", "42",
                     "--config", cfg]) == 0
        manifest = json.loads((tmp_path / "a" / "datagen_manifest.json").read_text())
        assert manifest["seed"] == manifest["params"]["seed"] == 42
        assert main(["datagen", "--out", str(tmp_path / "b"), "--seed",
                     str(manifest["seed"]), "--config", cfg]) == 0
        redone = json.loads((tmp_path / "b" / "datagen_manifest.json").read_text())
        assert redone["artifacts"] == manifest["artifacts"]

    def test_threshold_flags_beat_config_beat_defaults(self, pipeline, tmp_path):
        out, _ = pipeline
        cfg = str(write_config(tmp_path, epochs=40, gamma=0.9, n=2000, models=5))
        base = ["threshold", "--dataset", str(out / "dataset.npz"), "--edges",
                str(out / "graph.edges"), "--features", str(out / "graph.features"),
                "--config", cfg]

        def run(name, *extra):
            assert main(base + ["--out", str(tmp_path / name), *extra]) == 0
            report = json.loads((tmp_path / name / "threshold.json").read_text())
            models = len((tmp_path / name / "clean_aucs.csv").read_text().splitlines())
            return report["gamma"], report["n"], models

        assert run("flag", "--gamma", "0.8", "--n", "1000", "--models", "4") == (0.8, 1000, 4)
        assert run("config") == (0.9, 2000, 5)
        s = _settings(build_parser().parse_args(["threshold"]))
        assert (s["gamma"], s["n"], s["models"]) == (0.95, 1_000_000, 10)


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        out, _ = pipeline
        for name in ("graph.edges", "graph.features", "dataset.npz",
                     "trigger.gwm", "model.ckpt"):
            assert (out / name).exists()

    def test_manifests_record_seed_and_hashes(self, pipeline):
        out, _ = pipeline
        doc = json.loads((out / "datagen_manifest.json").read_text())
        assert doc["seed"] == 42
        assert len(doc["config_sha256"]) == 64
        for digest in doc["artifacts"].values():
            assert len(digest) == 64

    def test_config_hash_does_not_depend_on_path_spelling(self, pipeline, tmp_path,
                                                          monkeypatch):
        out, cfg = pipeline
        monkeypatch.chdir(out)
        manifests = []
        for name, prefix in (("relative", ""), ("absolute", f"{out}/")):
            assert main(["split", "--out", str(tmp_path / name), "--seed", "42",
                         "--config", str(cfg), "--edges", prefix + "graph.edges",
                         "--features", prefix + "graph.features"]) == 0
            manifests.append(json.loads((tmp_path / name / "split_manifest.json").read_text()))
        relative, absolute = manifests
        assert relative["config_sha256"] == absolute["config_sha256"]
        assert relative["inputs"] == absolute["inputs"] == {
            "edges": sha256_file(out / "graph.edges"),
            "features": sha256_file(out / "graph.features")}

    def test_eval_reports_both_aucs(self, pipeline, tmp_path):
        out, _ = pipeline
        rc = main(["eval", "--out", str(tmp_path), "--dataset",
                   str(out / "dataset.npz"), "--checkpoint", str(out / "model.ckpt"),
                   "--wm", str(out / "trigger.gwm")])
        assert rc == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert 0.0 <= report["auc_test"] <= 1.0
        assert 0.0 <= report["auc_wm"] <= 1.0

    def test_eval_rejects_watermark_pair_outside_graph(self, pipeline, tmp_path, capsys):
        out, _ = pipeline
        wm = load_wm(out / "trigger.gwm")
        pairs = wm.pairs.copy()
        pairs[0, 1] = wm.num_nodes
        save_wm(NodeRepWatermark(wm.num_nodes, wm.nodes, pairs, wm.labels, wm.edges,
                                 wm.features, wm.vector, wm.rate), tmp_path / "bad.gwm")
        rc = main(["eval", "--out", str(tmp_path), "--dataset",
                   str(out / "dataset.npz"), "--checkpoint", str(out / "model.ckpt"),
                   "--wm", str(tmp_path / "bad.gwm")])
        assert rc == 1
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "invalid_input" and "pair node ids" in doc["message"]

    def test_rerun_reproduces_artifact_hashes(self, pipeline, tmp_path):
        out, cfg = pipeline
        manifest = json.loads((out / "datagen_manifest.json").read_text())
        rc = main(["datagen", "--out", str(tmp_path), "--seed",
                   str(manifest["seed"]), "--config", str(cfg)])
        assert rc == 0
        redone = json.loads((tmp_path / "datagen_manifest.json").read_text())
        assert redone["artifacts"] == manifest["artifacts"]

    def test_train_without_wm_is_recorded_as_clean(self, pipeline, tmp_path, capsys):
        out, cfg = pipeline  # the config names method "genie"
        rc = main(["train", "--out", str(tmp_path), "--seed", "42", "--config", str(cfg),
                   "--dataset", str(out / "dataset.npz"), "--epochs", "2"])
        assert rc == 0
        assert "trained gcn/clean " in capsys.readouterr().out
        manifest = json.loads((tmp_path / "train_manifest.json").read_text())
        assert manifest["params"]["method"] == "clean"
        assert list(manifest["params"]) == ["arch", "hidden", "epochs", "lr", "seed", "method"]

    def test_train_then_eval_missing_file_errors(self, tmp_path, capsys):
        rc = main(["eval", "--out", str(tmp_path), "--dataset",
                   str(tmp_path / "nope.npz"), "--checkpoint",
                   str(tmp_path / "nope.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"] in ("missing_file", "invalid_input")


class TestThresholdAndDispute:
    def test_threshold_from_csv_samples(self, tmp_path):
        clean = tmp_path / "clean.csv"
        wm = tmp_path / "wm.csv"
        clean.write_text("".join(f"{v}\n" for v in (0.05, 0.08, 0.10, 0.12)))
        wm.write_text("".join(f"{v}\n" for v in (0.95, 0.96, 0.97, 0.98)))
        rc = main(["threshold", "--out", str(tmp_path), "--seed", "1",
                   "--clean-csv", str(clean), "--wm-csv", str(wm),
                   "--gamma", "0.95", "--n", "100000"])
        assert rc == 0
        report = json.loads((tmp_path / "threshold.json").read_text())
        assert report["certificate"] is True
        assert 0.2 < report["threshold"] < 0.9

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_threshold_rejects_non_finite_sample(self, tmp_path, capsys, token):
        clean = tmp_path / "clean.csv"
        wm = tmp_path / "wm.csv"
        clean.write_text(f"0.05\n{token}\n0.10\n0.12\n")
        wm.write_text("0.95\n0.96\n0.97\n0.98\n")
        rc = main(["threshold", "--out", str(tmp_path), "--seed", "1",
                   "--clean-csv", str(clean), "--wm-csv", str(wm), "--n", "1000"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "invalid_input" and "finite" in doc["message"]
        assert not (tmp_path / "threshold.json").exists()

    @pytest.mark.parametrize("given,graph,missing", [("clean", True, "--wm-csv"),
                                                     ("wm", True, "--clean-csv"),
                                                     ("clean", False, "--wm-csv")])
    def test_threshold_rejects_a_lone_sample_csv(self, pipeline, tmp_path, capsys,
                                                 given, graph, missing):
        out, _ = pipeline
        samples = tmp_path / "samples.csv"
        samples.write_text("0.1\n0.2\n0.3\n0.4\n")
        cfg = write_config(tmp_path, epochs=1, hidden=4, models=4)
        argv = ["threshold", "--out", str(tmp_path), "--config", str(cfg),
                f"--{given}-csv", str(samples)]
        if graph:
            argv += ["--dataset", str(out / "dataset.npz"), "--edges", str(out / "graph.edges")]
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "missing_input" and missing in doc["message"]
        assert not (tmp_path / "clean_aucs.csv").exists()
        assert not (tmp_path / "threshold.json").exists()

    def test_dispute_reads_gamma_and_n_from_config(self, pipeline, tmp_path):
        out, _ = pipeline
        clean = tmp_path / "clean.csv"
        wm_csv = tmp_path / "wm.csv"
        clean.write_text("".join(f"{v}\n" for v in (0.2, 0.3, 0.35, 0.4)))
        wm_csv.write_text("".join(f"{v}\n" for v in (0.9, 0.92, 0.95, 0.97)))
        (tmp_path / "board.jsonl").write_text("")
        cfg = write_config(tmp_path, gamma=0.9, n=10000, seed=3)
        rc = main(["dispute", "--out", str(tmp_path), "--board", str(tmp_path / "board.jsonl"),
                   "--wm", str(out / "trigger.gwm"), "--checkpoint", str(out / "model.ckpt"),
                   "--clean-csv", str(clean), "--wm-csv", str(wm_csv), "--config", str(cfg)])
        assert rc == 0
        manifest = json.loads((tmp_path / "dispute_manifest.json").read_text())
        assert manifest["params"] == {"seed": 3, "gamma": 0.9, "n": 10000}

    def test_dispute_no_record(self, pipeline, tmp_path):
        out, _ = pipeline
        clean = tmp_path / "clean.csv"
        wm_csv = tmp_path / "wm.csv"
        clean.write_text("".join(f"{v}\n" for v in (0.2, 0.3, 0.35, 0.4)))
        wm_csv.write_text("".join(f"{v}\n" for v in (0.9, 0.92, 0.95, 0.97)))
        empty_board = tmp_path / "board.jsonl"
        empty_board.write_text("")
        rc = main(["dispute", "--out", str(tmp_path), "--board", str(empty_board),
                   "--wm", str(out / "trigger.gwm"), "--checkpoint",
                   str(out / "model.ckpt"), "--clean-csv", str(clean),
                   "--wm-csv", str(wm_csv), "--gamma", "0.95", "--n", "10000"])
        assert rc == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["winner"] == "defendant"
        assert verdict["reason"] == "no_record"

    def test_dispute_on_malformed_board_names_the_line(self, pipeline, tmp_path, capsys):
        out, _ = pipeline
        clean = tmp_path / "clean.csv"
        wm_csv = tmp_path / "wm.csv"
        clean.write_text("".join(f"{v}\n" for v in (0.2, 0.3, 0.35, 0.4)))
        wm_csv.write_text("".join(f"{v}\n" for v in (0.9, 0.92, 0.95, 0.97)))
        board = tmp_path / "board.jsonl"
        board.write_text('{"ts": 1.0, "hash": "ab", "who": "a"}\n{"ts": 2.0, "hash": "cd"}\n')
        rc = main(["dispute", "--out", str(tmp_path), "--board", str(board),
                   "--wm", str(out / "trigger.gwm"), "--checkpoint",
                   str(out / "model.ckpt"), "--clean-csv", str(clean),
                   "--wm-csv", str(wm_csv), "--gamma", "0.95", "--n", "10000"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "invalid_input" and "board line 2" in doc["message"]
        assert not (tmp_path / "verdict.json").exists()

    def test_register_then_dispute_finds_record(self, pipeline, tmp_path):
        out, cfg = pipeline
        board = tmp_path / "board.jsonl"
        rc = main(["register", "--out", str(tmp_path), "--seed", "42",
                   "--edges", str(out / "graph.edges"), "--features",
                   str(out / "graph.features"), "--board", str(board),
                   "--who", "owner", "--config", str(cfg)])
        assert rc == 0
        clean = tmp_path / "clean.csv"
        wm_csv = tmp_path / "wm.csv"
        clean.write_text("".join(f"{v}\n" for v in (0.2, 0.3, 0.35, 0.4)))
        wm_csv.write_text("".join(f"{v}\n" for v in (0.82, 0.86, 0.9, 0.94)))
        rc = main(["dispute", "--out", str(tmp_path), "--board", str(board),
                   "--wm", str(tmp_path / "trigger.gwm"), "--checkpoint",
                   str(out / "model.ckpt"), "--clean-csv", str(clean),
                   "--wm-csv", str(wm_csv), "--gamma", "0.95", "--n", "10000",
                   "--seed", "3"])
        assert rc == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["reason"] in ("auc_above_t", "auc_below_t")


    @pytest.mark.parametrize("wm_row", [(0.82, 0.86, 0.9, 0.94), (0.3, 0.4, 0.45, 0.5)],
                             ids=["separating", "overlapping"])
    def test_threshold_and_dispute_apply_the_same_t(self, pipeline, tmp_path, wm_row):
        out, cfg = pipeline
        board = tmp_path / "board.jsonl"
        assert main(["register", "--out", str(tmp_path), "--seed", "42",
                     "--edges", str(out / "graph.edges"), "--features",
                     str(out / "graph.features"), "--board", str(board),
                     "--who", "owner", "--config", str(cfg)]) == 0
        clean = tmp_path / "clean.csv"
        wm_csv = tmp_path / "wm.csv"
        clean.write_text("".join(f"{v}\n" for v in (0.2, 0.3, 0.35, 0.4)))
        wm_csv.write_text("".join(f"{v}\n" for v in wm_row))
        common = ["--out", str(tmp_path), "--clean-csv", str(clean), "--wm-csv", str(wm_csv),
                  "--gamma", "0.95", "--n", "10000", "--seed", "3"]
        assert main(["threshold"] + common) == 0
        assert main(["dispute", "--board", str(board), "--wm", str(tmp_path / "trigger.gwm"),
                     "--checkpoint", str(out / "model.ckpt")] + common) == 0
        report = json.loads((tmp_path / "threshold.json").read_text())
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert report["certificate"] == (wm_row[0] > 0.8)
        assert verdict["threshold"] == report["threshold"]

class TestAttackCommand:
    def test_prune_attack_report(self, pipeline, tmp_path):
        out, _ = pipeline
        rc = main(["attack", "--out", str(tmp_path), "--seed", "5",
                   "--dataset", str(out / "dataset.npz"), "--checkpoint",
                   str(out / "model.ckpt"), "--wm", str(out / "trigger.gwm"),
                   "--kind", "prune", "--fraction", "0.4", "--threshold", "0.6"])
        assert rc == 0
        report = json.loads((tmp_path / "attack_prune.json").read_text())
        assert report["verdict"] in ("watermark_success", "watermark_failure")
        assert report["threshold"] == 0.6


    @pytest.mark.parametrize("kind", ATTACKS)
    def test_every_kind_runs(self, pipeline, tmp_path, kind):
        out, _ = pipeline
        cfg = write_config(tmp_path, epochs=2, hidden=8)
        rc = main(["attack", "--out", str(tmp_path), "--seed", "5", "--config", str(cfg),
                   "--dataset", str(out / "dataset.npz"), "--checkpoint",
                   str(out / "model.ckpt"), "--wm", str(out / "trigger.gwm"),
                   "--kind", kind, "--epochs", "2", "--threshold", "0.6"])
        assert rc == 0
        report = json.loads((tmp_path / f"attack_{kind}.json").read_text())
        assert report["kind"] == kind
        assert 0.0 <= report["auc_wm_post"] <= 1.0

    def test_epochs_flag_leaves_surrogate_epochs(self, pipeline, tmp_path, monkeypatch):
        out, _ = pipeline
        seen = {}
        real = ATTACKS["extract_soft"]

        def spy(model, batch, cfg, **kw):
            seen.update(surrogate=cfg.epochs, finetune=kw["epochs"])
            return real(model, batch, cfg, **kw)

        monkeypatch.setitem(ATTACKS, "extract_soft", spy)
        cfg = write_config(tmp_path, epochs=3, hidden=8)
        rc = main(["attack", "--out", str(tmp_path), "--seed", "5", "--config", str(cfg),
                   "--dataset", str(out / "dataset.npz"), "--checkpoint",
                   str(out / "model.ckpt"), "--wm", str(out / "trigger.gwm"),
                   "--kind", "extract_soft", "--epochs", "2", "--threshold", "0.6"])
        assert rc == 0
        assert seen == {"surrogate": 3, "finetune": 2}

    def test_unknown_kind_fails(self, pipeline, tmp_path, capsys):
        out, _ = pipeline
        rc = main(["attack", "--out", str(tmp_path), "--dataset", str(out / "dataset.npz"),
                   "--checkpoint", str(out / "model.ckpt"), "--wm", str(out / "trigger.gwm"),
                   "--kind", "finetune_FTLL", "--threshold", "0.6"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "unknown_attack"


class TestReport:
    def test_main_results_table(self, pipeline, tmp_path):
        out, _ = pipeline
        runs = tmp_path / "runs"
        clean_dir = runs / "clean"
        wm_dir = runs / "wm"
        clean_dir.mkdir(parents=True)
        wm_dir.mkdir(parents=True)
        (clean_dir / "eval.json").write_text(json.dumps({"auc_test": 0.71}))
        (wm_dir / "eval.json").write_text(json.dumps({"auc_test": 0.70,
                                                      "auc_wm": 0.93}))
        rc = main(["report", "--out", str(tmp_path), "--runs", str(runs)])
        assert rc == 0
        lines = (tmp_path / "mainResults.csv").read_text().strip().splitlines()
        assert lines[0] == "auc_test_clean,auc_test_wm,auc_wm_wm"
        assert lines[1] == "0.71,0.7,0.93"

    @staticmethod
    def write_run(runs, name, dataset, **row):
        """An eval output directory: the report and a manifest naming its dataset."""
        (runs / name).mkdir(parents=True)
        (runs / name / "eval.json").write_text(json.dumps(row))
        (runs / name / "eval_manifest.json").write_text(
            json.dumps({"command": "eval", "inputs": {"dataset": dataset}}))

    def test_rows_pair_runs_on_the_same_dataset(self, pipeline, tmp_path, capsys):
        # a node-rep clean and watermarked run from real `eval`s, and a
        # subgraph run (sg) on another dataset, which sorts between them
        out, _ = pipeline
        runs = tmp_path / "runs"
        base = ["eval", "--dataset", str(out / "dataset.npz"),
                "--checkpoint", str(out / "model.ckpt")]
        assert main(base + ["--out", str(runs / "clean")]) == 0
        assert main(base + ["--out", str(runs / "wm"), "--wm", str(out / "trigger.gwm")]) == 0
        clean, wm = (json.loads((runs / name / "eval.json").read_text())
                     for name in ("clean", "wm"))
        self.write_run(runs, "sg", "b" * 64, auc_test=0.488, auc_wm=0.616)
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path), "--runs", str(runs)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unpaired_run" and "sg" in err["message"]
        # with the subgraph run's own clean run, each row keeps to its dataset
        self.write_run(runs, "clean_sg", "b" * 64, auc_test=0.51)
        assert main(["report", "--out", str(tmp_path), "--runs", str(runs)]) == 0
        lines = (tmp_path / "mainResults.csv").read_text().strip().splitlines()
        assert lines[1:] == ["0.51,0.488,0.616",
                             f"{clean['auc_test']},{wm['auc_test']},{wm['auc_wm']}"]

    def test_runs_on_another_pathway_do_not_pair(self, pipeline, tmp_path, capsys):
        # a node-rep clean eval, and a subgraph-pathway eval with --wm of the
        # same dataset and checkpoint: equal `inputs.dataset`, other pathway
        out, _ = pipeline
        runs, sg_cfg = tmp_path / "runs", tmp_path / "sg.json"
        sg_cfg.write_text(json.dumps({"pathway": "subgraph", "hops": 1}))
        base = ["eval", "--dataset", str(out / "dataset.npz"),
                "--checkpoint", str(out / "model.ckpt")]
        assert main(base + ["--out", str(runs / "clean")]) == 0
        assert main(base + ["--out", str(runs / "sg"), "--wm", str(out / "trigger.gwm"),
                            "--config", str(sg_cfg)]) == 0
        manifests = [json.loads((runs / name / "eval_manifest.json").read_text())
                     for name in ("clean", "sg")]
        assert manifests[0]["inputs"]["dataset"] == manifests[1]["inputs"]["dataset"]
        assert [m["params"]["pathway"] for m in manifests] == ["node_rep", "subgraph"]
        assert [m["params"]["hops"] for m in manifests] == [None, 1]
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path), "--runs", str(runs)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unpaired_run" and "sg" in err["message"]

    def test_two_clean_runs_on_one_dataset_are_refused(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        for name, auc in (("clean_a", 0.71), ("clean_b", 0.69)):
            self.write_run(runs, name, "a" * 64, auc_test=auc)
        self.write_run(runs, "wm", "a" * 64, auc_test=0.70, auc_wm=0.93)
        assert main(["report", "--out", str(tmp_path), "--runs", str(runs)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unpaired_run" and "wm" in err["message"]


class TestServeCommand:
    def test_serve_plain_graph_without_watermark(self, pipeline):
        out, _ = pipeline
        proc = subprocess.run(
            [sys.executable, "-m", "linkmark.cli", "serve",
             "--checkpoint", str(out / "model.ckpt"),
             "--edges", str(out / "graph.edges"),
             "--features", str(out / "graph.features")],
            input="0 1\n", capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        bit, prob = proc.stdout.strip().split()
        assert bit in ("0", "1") and 0.0 <= float(prob) <= 1.0

    def test_defense_without_watermark_fails(self, pipeline, capsys):
        out, _ = pipeline
        rc = main(["serve", "--checkpoint", str(out / "model.ckpt"),
                   "--edges", str(out / "graph.edges"),
                   "--features", str(out / "graph.features"), "--defense"])
        assert rc == 1
        assert "missing_wm" in capsys.readouterr().err

    def test_line_protocol_over_subprocess(self, pipeline):
        out, _ = pipeline
        proc = subprocess.run(
            [sys.executable, "-m", "linkmark.cli", "serve",
             "--checkpoint", str(out / "model.ckpt"),
             "--wm", str(out / "trigger.gwm"), "--defense"],
            input="0 1\n2 3\n", capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            bit, prob = line.split()
            assert bit in ("0", "1")
            assert 0.0 <= float(prob) <= 1.0

    def test_bad_lines_answered_and_serving_continues(self, pipeline):
        out, _ = pipeline
        proc = subprocess.run(
            [sys.executable, "-m", "linkmark.cli", "serve",
             "--checkpoint", str(out / "model.ckpt"),
             "--wm", str(out / "trigger.gwm"), "--defense"],
            input="0 1\n-1 3\na b\n0 999\n1 1\n1 2 3\n2 3\n",
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[1:6] == ["err range", "err parse", "err range", "err self_pair",
                              "err parse"]
        for line in (lines[0], lines[6]):
            bit, prob = line.split()
            assert bit in ("0", "1") and 0.0 <= float(prob) <= 1.0
        assert len(lines) == 7
        counts = json.loads(proc.stderr.strip().splitlines()[-1])
        assert counts == {"answered": 2, "err_parse": 2, "err_range": 2, "err_self_pair": 1,
                          "row_hits": 0, "row_misses": 2, "row_over_cap": 0}


def test_train_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # 200 nodes at hidden 64 are enough for a threaded GEMM to change the bits
    cfg = write_config(tmp_path, per_block=100, p_in=0.25, feature_dim=32, hidden=64,
                       epochs=1, lr=0.005)
    base = ["--out", str(tmp_path), "--seed", "0", "--config", str(cfg)]
    edges = ["--edges", str(tmp_path / "graph.edges"),
             "--features", str(tmp_path / "graph.features")]
    assert main(["datagen"] + base) == 0
    assert main(["split"] + base + edges) == 0
    assert main(["wm-gen"] + base + edges) == 0
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "linkmark.cli", "train", "--out", str(out), "--seed", "0",
             "--config", str(cfg), "--dataset", str(tmp_path / "dataset.npz"),
             "--wm", str(tmp_path / "trigger.gwm")],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(written[0]) == ["model.ckpt", "train_manifest.json"]
    assert written[0] == written[1]


def test_jobs_env_var_fallback(monkeypatch):
    """--jobs defaults to 1 on the fan-out command, is absent from the
    others, and no environment variable changes it."""
    parser = build_parser()
    monkeypatch.setenv("GENIE_LPWM_JOBS", "3")
    assert parser.parse_args(["threshold"]).jobs == 1
    assert parser.parse_args(["threshold", "--jobs", "5"]).jobs == 5
    with pytest.raises(SystemExit):
        parser.parse_args(["split", "--edges", "e", "--jobs", "2"])


@pytest.mark.parametrize("name", sorted(BAD_CHECKPOINTS))
def test_serve_rejects_bad_checkpoint(tmp_path, capsys, name):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(BAD_CHECKPOINTS[name])
    assert main(["serve", "--checkpoint", str(path), "--edges", "unused.edges"]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "invalid_input"


@pytest.mark.slow
def test_end_to_end_script_plaintiff_wins(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "end_to_end.py"),
         "--out", str(tmp_path), "--epochs", "120", "--models", "4",
         "--jobs", "4"],
        capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["winner"] == "plaintiff"
    # the threshold step's cohort also writes Table 1
    assert len((tmp_path / "table1.csv").read_text().strip().splitlines()) == 3


def test_subgraph_pathway_through_cli(pipeline, tmp_path):
    out, _ = pipeline
    cfg = tmp_path / "sg.json"
    cfg.write_text(json.dumps({"pathway": "subgraph", "rate": 0.2, "hops": 1,
                               "arch": "gcn", "hidden": 32, "epochs": 25,
                               "lr": 0.001, "method": "genie"}))
    rc = main(["wm-gen", "--out", str(tmp_path), "--seed", "42",
               "--edges", str(out / "graph.edges"), "--features",
               str(out / "graph.features"), "--config", str(cfg)])
    assert rc == 0
    rc = main(["train", "--out", str(tmp_path), "--seed", "42",
               "--dataset", str(out / "dataset.npz"),
               "--wm", str(tmp_path / "trigger.gwm"), "--config", str(cfg)])
    assert rc == 0
    rc = main(["eval", "--out", str(tmp_path), "--dataset", str(out / "dataset.npz"),
               "--checkpoint", str(tmp_path / "model.ckpt"),
               "--wm", str(tmp_path / "trigger.gwm"), "--config", str(cfg)])
    assert rc == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    assert 0.0 <= report["auc_test"] <= 1.0
    assert 0.0 <= report["auc_wm"] <= 1.0


def test_subgraph_eval_extracts_only_the_splits_it_scores(pipeline, tmp_path, monkeypatch):
    out, _ = pipeline
    cfg = tmp_path / "sg.json"
    cfg.write_text(json.dumps({"pathway": "subgraph", "hops": 1}))
    LinkPredictor.init("gcn", 16, 8, seed=0).save(tmp_path / "model.ckpt")
    calls = []
    extract_khop = graph.extract_khop
    monkeypatch.setattr(graph, "extract_khop",
                        lambda *a, **kw: calls.append(a[1]) or extract_khop(*a, **kw))
    assert main(["eval", "--out", str(tmp_path), "--dataset", str(out / "dataset.npz"),
                 "--checkpoint", str(tmp_path / "model.ckpt"), "--config", str(cfg)]) == 0
    ds = load_dataset(out / "dataset.npz")
    assert len(calls) == sum(len(ds.split_arrays(split)[1]) for split in ("valid", "test"))


def test_register_writes_the_wm_gen_trigger_set(pipeline, tmp_path):
    """The judge's registered bytes must be the owner's `wm-gen` file, also
    when the config sets the split ratios the subgraph pathway samples from."""
    out, _ = pipeline
    cfg = tmp_path / "sg.json"
    cfg.write_text(json.dumps({"pathway": "subgraph", "rate": 0.2, "hops": 1,
                               "ratios": [0.6, 0.2, 0.2]}))
    common = ["--seed", "42", "--config", str(cfg), "--edges", str(out / "graph.edges"),
              "--features", str(out / "graph.features")]
    assert main(["wm-gen", "--out", str(tmp_path / "gen")] + common) == 0
    assert main(["register", "--out", str(tmp_path / "reg"), "--who", "owner",
                 "--board", str(tmp_path / "board.jsonl")] + common) == 0
    owner = (tmp_path / "gen" / "trigger.gwm").read_bytes()
    assert owner == (tmp_path / "reg" / "trigger.gwm").read_bytes()


def test_eval_rejects_dataset_with_bad_split_code(pipeline, tmp_path, capsys):
    out, _ = pipeline
    with np.load(out / "dataset.npz") as doc:
        arrays = dict(doc)
    arrays["splits"] = np.full_like(arrays["splits"], 3)
    np.savez(tmp_path / "bad.npz", **arrays)
    rc = main(["eval", "--out", str(tmp_path), "--dataset", str(tmp_path / "bad.npz"),
               "--checkpoint", str(out / "model.ckpt")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "invalid_input" and "split codes" in doc["message"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_trigger_label_outside_0_1_is_invalid_input(pipeline, tmp_path, capsys, command):
    out, cfg = pipeline
    wm = load_wm(out / "trigger.gwm")
    wm.labels[0] = 255
    save_wm(wm, tmp_path / "bad.gwm")
    flags = ["--checkpoint", str(out / "model.ckpt")] if command == "eval" else []
    rc = main([command, "--out", str(tmp_path), "--config", str(cfg), "--dataset",
               str(out / "dataset.npz"), "--wm", str(tmp_path / "bad.gwm"), *flags])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "invalid_input" and "0 or 1, got 255" in doc["message"]


def test_unknown_config_method_is_invalid_input(pipeline, tmp_path, capsys):
    out, _ = pipeline
    cfg = write_config(tmp_path, method="bogus")
    rc = main(["train", "--out", str(tmp_path), "--config", str(cfg), "--dataset",
               str(out / "dataset.npz"), "--wm", str(out / "trigger.gwm")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "invalid_input" and "'bogus'" in doc["message"]
    assert not (tmp_path / "model.ckpt").exists()


def test_attack_matrix_script_subset(pipeline, tmp_path):
    out, _ = pipeline
    csv_path = tmp_path / "matrix.csv"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "attack_matrix.py"),
         "--dataset", str(out / "dataset.npz"), "--wm", str(out / "trigger.gwm"),
         "--checkpoint", str(out / "model.ckpt"), "--threshold", "0.6",
         "--out", str(csv_path), "--attacks", "prune,quantize,finetune_FTLL",
         "--jobs", "1", "--surrogate-epochs", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("kind,")
    # header + FTLL + 4 prune fractions + quantize, sorted by label
    assert [line.split(",")[0] for line in lines[1:]] == [
        "finetune_FTLL", "prune_0.2", "prune_0.4", "prune_0.6", "prune_0.8", "quantize_3"]
    for line in lines[1:]:
        assert line.split(",")[-1] in ("watermark_success", "watermark_failure")


def test_cohort_stats_script_small(tmp_path):
    """A fresh synthetic graph's small cohort, run as separate CLI processes
    (datagen, split, then a cohort `threshold`), writes the three-line Table 1."""
    cfg = write_config(tmp_path, per_block=50, epochs=5)
    cli_cmd = [sys.executable, "-m", "linkmark.cli"]
    for cmd in (["datagen", "--config", str(cfg)],
                ["split", "--edges", str(tmp_path / "graph.edges"),
                 "--features", str(tmp_path / "graph.features"), "--config", str(cfg)],
                ["threshold", "--dataset", str(tmp_path / "dataset.npz"),
                 "--edges", str(tmp_path / "graph.edges"),
                 "--features", str(tmp_path / "graph.features"), "--models", "4",
                 "--jobs", "1", "--config", str(cfg)]):
        proc = subprocess.run(cli_cmd + cmd + ["--out", str(tmp_path), "--seed", "7"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len((tmp_path / "table1.csv").read_text().strip().splitlines()) == 3


def test_param_hashes_script_small():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "param_hashes.py"), "--epochs", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 50  # 48 recipes, then the bytes of the two trigger sets
    assert [line.split()[0] for line in lines[-2:]] == ["gwm_node_rep", "gwm_subgraph"]


def test_reproduce_table1_small(pipeline, tmp_path):
    """A cohort `threshold` writes Table 1 beside the sample CSVs, and the same
    bytes at --jobs 4 and --jobs 1: pool workers inherit the pinned BLAS
    threads through the environment."""
    out, cfg = pipeline

    def run(name, jobs):
        rc = main(["threshold", "--out", str(tmp_path / name), "--seed", "11",
                   "--dataset", str(out / "dataset.npz"), "--edges",
                   str(out / "graph.edges"), "--features", str(out / "graph.features"),
                   "--models", "4", "--jobs", jobs, "--config", str(cfg)])
        assert rc == 0
        return {f: (tmp_path / name / f).read_bytes()
                for f in ("clean_aucs.csv", "wm_aucs.csv", "table1.json")}

    pooled = run("pooled", "4")
    doc = json.loads(pooled["table1.json"])
    assert len(doc["clean_auc_wm"]) == 4
    assert len(doc["wm_auc_wm"]) == 4
    assert all(a > c for a, c in zip(sorted(doc["wm_auc_wm"]),
                                     sorted(doc["clean_auc_wm"])))
    csv_lines = (tmp_path / "pooled" / "table1.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("score,i=1")
    assert len(csv_lines) == 3
    manifest = json.loads((tmp_path / "pooled" / "threshold_manifest.json").read_text())
    assert {"table1.json", "table1.csv"} <= set(manifest["artifacts"])
    assert run("serial", "1") == pooled
