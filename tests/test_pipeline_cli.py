import csv
import dataclasses
import datetime as dt
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epicurve
from epicurve import major_factor, pipeline
from epicurve.cli import main
from epicurve.curve_features import SHAPE_FEATURES
from epicurve.errors import ConfigError, DataError

from helpers import (
    START,
    base_config,
    config_to_dict,
    oracle_noise_threshold,
    oracle_permutation_orders,
)


def digest_dir(path):
    out = {}
    for root, _dirs, files in os.walk(path):
        for f in files:
            full = os.path.join(root, f)
            rel = os.path.relpath(full, path)
            with open(full, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture
def cfg(synthetic_dir):
    return pipeline.load_config(str(synthetic_dir / "config.yaml"))


class TestConfig:
    def test_round_trip(self, cfg, tmp_path):
        p = tmp_path / "again.yaml"
        with open(p, "w") as fh:
            yaml.safe_dump(config_to_dict(cfg), fh)
        again = pipeline.load_config(str(p))
        assert again == cfg

    def test_unknown_column_rejected_before_compute(self, synthetic_dir, tmp_path):
        data = base_config(synthetic_dir)
        data["fusions"][0]["columns"] = ["left15"]
        with pytest.raises(ConfigError, match="left15"):
            pipeline.config_from_dict(data, base_dir=str(synthetic_dir))

    def test_unknown_response_rejected(self, synthetic_dir):
        data = base_config(synthetic_dir)
        data["responses"][0]["response"] = "nonesuch"
        with pytest.raises(ConfigError, match="nonesuch"):
            pipeline.config_from_dict(data, base_dir=str(synthetic_dir))

    def test_bad_window(self, synthetic_dir):
        data = base_config(synthetic_dir)
        data["window"] = {"start": "2022-08-19", "end": "2022-03-25"}
        with pytest.raises(ConfigError, match="window"):
            pipeline.config_from_dict(data, base_dir=str(synthetic_dir))

    def test_bad_threshold(self, synthetic_dir):
        data = base_config(synthetic_dir)
        data["thresholds"] = [1.5]
        with pytest.raises(ConfigError, match="threshold"):
            pipeline.config_from_dict(data, base_dir=str(synthetic_dir))

    def test_omitted_keys_take_the_defaults(self, tmp_path):
        data = {"cases": "cases.csv", "metadata": "meta.csv", "output": "out",
                "fusions": [{"name": "f", "columns": ["left80"]}],
                "responses": [{"response": "region", "candidates": ["left80"]}],
                "clusterings": [{"name": "c", "columns": ["left80"]}]}
        assert pipeline.config_from_dict(data, base_dir=str(tmp_path)) == \
            pipeline.PipelineConfig(
                cases=str(tmp_path / "cases.csv"),
                metadata=str(tmp_path / "meta.csv"),
                output=str(tmp_path / "out"),
                window_start=dt.date(2022, 3, 25),
                window_end=dt.date(2022, 8, 19),
                rate_scale=100000.0,
                n_bins=4,
                thresholds=(0.6, 0.7),
                fusions=(pipeline.FusionSpec("f", ("left80",), k=4, seed=0,
                                             restarts=100),),
                responses=(pipeline.ResponseSpec("region", ("left80",), order=2,
                                                 replicates=200, seed=0, top=5,
                                                 bottom=1),),
                clusterings=(pipeline.ClusteringSpec("c", ("left80",)),),
            )


class TestPipeline:
    def test_full_run_manifest(self, cfg, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(cfg, output=str(tmp_path / "out"))
        pipeline.run_pipeline(cfg)
        with open(os.path.join(cfg.output, "manifest.txt")) as fh:
            lines = fh.read().splitlines()
        names = {line.split("  ", 1)[1] for line in lines}
        assert "features.csv" in names
        assert "categorical.csv" in names
        assert "association_directed.csv" in names
        assert "association_mutual.csv" in names
        assert "scan_region.csv" in names
        assert "fused.csv" in names
        assert "tree_left.csv" in names
        assert "heatmap_left.svg" in names
        assert any(n.startswith("network_") for n in names)
        assert any(n.startswith("report_region") for n in names)

    def test_rerun_determinism(self, cfg, tmp_path):
        import dataclasses

        out1 = dataclasses.replace(cfg, output=str(tmp_path / "o1"))
        out2 = dataclasses.replace(cfg, output=str(tmp_path / "o2"))
        pipeline.run_pipeline(out1)
        pipeline.run_pipeline(out2)
        assert digest_dir(out1.output) == digest_dir(out2.output)

    def test_stage_composability(self, cfg, tmp_path):
        import dataclasses

        whole = dataclasses.replace(cfg, output=str(tmp_path / "whole"))
        pipeline.run_pipeline(whole)

        staged = dataclasses.replace(cfg, output=str(tmp_path / "staged"))
        pipeline.stage_features(staged)
        pipeline.stage_associate(staged)
        pipeline.stage_fuse(staged)
        pipeline.stage_select(staged)
        pipeline.stage_cluster(staged)
        pipeline.write_manifest(staged)
        assert digest_dir(whole.output) == digest_dir(staged.output)

    def test_leftover_files_are_not_listed(self, cfg, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("tree_old.csv", "notes.txt"):
            (out / name).write_text("left by an earlier run\n")
        pipeline.run_pipeline(dataclasses.replace(cfg, output=str(out)))
        lines = (out / "manifest.txt").read_text().splitlines()
        assert not {"tree_old.csv", "notes.txt"} & {line.split("  ", 1)[1] for line in lines}
        for line in lines:
            digest, name = line.split("  ", 1)
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_fuse_without_fusions_writes_nothing(self, cfg, tmp_path):
        bare = dataclasses.replace(cfg, output=str(tmp_path / "out"), fusions=(), responses=())
        pipeline.run_pipeline(bare)
        before = digest_dir(bare.output)
        pipeline.stage_fuse(bare)
        assert digest_dir(bare.output) == before
        assert "fused.csv" not in before

    @pytest.mark.parametrize("variant", ["base", "order1", "one_candidate",
                                         "three_thresholds", "two_each", "bare"])
    def test_artifact_table_agrees_with_the_run(self, synthetic_dir, tmp_path, variant):
        """A run writes exactly the artifacts of the table and the manifest
        lists them; a staged run without its last stage has no manifest."""
        data = base_config(synthetic_dir)
        response = data["responses"][0]
        if variant == "order1":
            response["order"] = 1
        elif variant == "one_candidate":
            response["candidates"] = ["left80"]
        elif variant == "three_thresholds":
            data["thresholds"] = [0.6, 0.65, 0.7]
        elif variant == "two_each":
            data["fusions"].append({"name": "right", "columns": ["right50", "right80"],
                                    "k": 3, "restarts": 5})
            data["clusterings"].append({"name": "right", "columns": ["right50", "right80"]})
        elif variant == "bare":
            data.update(fusions=[], responses=[], clusterings=[])
        cfg = pipeline.config_from_dict({**data, "output": str(tmp_path / "run")},
                                        base_dir=str(synthetic_dir))
        pipeline.run_pipeline(cfg)
        table = [name for _stage, name in pipeline._artifacts(cfg)]
        listed = [line.split("  ", 1)[1]
                  for line in (tmp_path / "run" / "manifest.txt").read_text().splitlines()]
        assert sorted(listed) == sorted(table) and len(set(table)) == len(table)
        assert sorted(os.listdir(cfg.output)) == sorted(["manifest.txt", *table])
        reports = [name for name in table if name.startswith("report_")]
        assert len(reports) == (2 if variant in ("base", "three_thresholds", "two_each")
                                else 0)
        assert ("network_mutual_0.65.dot" in table) == (variant == "three_thresholds")
        assert sum(name.startswith("tree_") for name in table) == \
            {"two_each": 2, "bare": 0}.get(variant, 1)

        staged = dataclasses.replace(cfg, output=str(tmp_path / "staged"))
        *ran, skipped = dict.fromkeys(stage for stage, _name in pipeline._artifacts(cfg))
        assert skipped == ("associate" if variant == "bare" else "cluster")
        for stage in ran:
            pipeline.STAGES[stage](staged)
        with pytest.raises(DataError, match=f"; run `{skipped}` first$"):
            pipeline.write_manifest(staged)
        assert not (tmp_path / "staged" / "manifest.txt").exists()

    def test_unreadable_artifact_is_a_data_error(self, cfg, tmp_path):
        cfg = dataclasses.replace(cfg, output=str(tmp_path / "out"))
        pipeline.run_pipeline(cfg)
        path = tmp_path / "out" / "excluded_left.txt"
        path.unlink()
        path.mkdir()
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
            pipeline.write_manifest(cfg)

    def test_manifest_hashes_in_chunks(self, cfg, tmp_path):
        """An 8 MiB artifact is hashed without being held whole in memory."""
        cfg = dataclasses.replace(cfg, output=str(tmp_path / "out"))
        pipeline.run_pipeline(cfg)
        (tmp_path / "out" / "heatmap_left.svg").write_bytes(
            np.random.default_rng(0).bytes(8 << 20))
        tracemalloc.start()
        try:
            pipeline.write_manifest(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert "heatmap_left.svg" in {line.split("  ", 1)[1] for line in lines}
        for line in lines:
            digest, name = line.split("  ", 1)
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest

    def test_select_requires_associate(self, cfg, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(cfg, output=str(tmp_path / "fresh"))
        with pytest.raises(Exception, match="run `associate` first"):
            pipeline.stage_select(cfg)

    def test_associate_requires_features(self, cfg, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(cfg, output=str(tmp_path / "fresh"))
        with pytest.raises(Exception, match="run `features` first"):
            pipeline.stage_associate(cfg)

    def test_scan_csv_columns(self, cfg, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(cfg, output=str(tmp_path / "out"))
        pipeline.run_pipeline(cfg)
        with open(os.path.join(cfg.output, "scan_region.csv")) as fh:
            header = fh.readline().strip()
        assert header == (
            "features,ce,rescaled_ce,ce_drop,sce_drop,"
            "null_mean,null_q95,significant,classification"
        )


class TestCli:
    def run(self, synthetic_dir, *args):
        runner = CliRunner()
        return runner.invoke(
            main, list(args) + ["--config", str(synthetic_dir / "config.yaml")]
        )

    def test_all_exit_zero(self, synthetic_dir, tmp_path):
        res = self.run(synthetic_dir, "all", "--out", str(tmp_path / "o"))
        assert res.exit_code == 0, res.output
        assert os.path.exists(tmp_path / "o" / "manifest.txt")

    def test_help_lists_every_command_with_its_summary(self):
        res = CliRunner().invoke(main, ["--help"])
        assert res.exit_code == 0, res.output
        listed = res.output.split("Commands:\n")[1].splitlines()
        assert listed == [
            "  all        Run every stage and write the manifest.",
            "  associate  Discretize features and compute association matrices/networks.",
            "  cluster    Build Ward.D2 trees, leaf codes, and similarity heatmaps.",
            "  features   Extract per-unit curve features from the raw CSVs.",
            "  fuse       K-means fuse feature blocks into categorical features.",
            "  report     Rewrite the ranked reports, recomputing the order-1/2 scans...",
            "  select     Run major-factor scans for the configured responses.",
        ]

    def test_select_without_features_exit3(self, synthetic_dir, tmp_path):
        res = self.run(synthetic_dir, "select", "--out", str(tmp_path / "empty"))
        assert res.exit_code == 3
        assert "run `associate` first" in res.output

    def test_config_error_exit2(self, synthetic_dir, tmp_path):
        bad = base_config(synthetic_dir)
        bad["responses"][0]["candidates"] = ["left15"]
        p = tmp_path / "bad.yaml"
        with open(p, "w") as fh:
            yaml.safe_dump(bad, fh)
        runner = CliRunner()
        res = runner.invoke(main, ["all", "--config", str(p)])
        assert res.exit_code == 2
        assert "left15" in res.output

    def test_report_top_bottom_layout(self, synthetic_dir, tmp_path):
        out = str(tmp_path / "o")
        assert self.run(synthetic_dir, "all", "--out", out).exit_code == 0
        # header, rule, then the top and bottom rows
        for top, bottom, lines in ((3, 1, 2 + 4), (0, 0, 2)):
            res = self.run(synthetic_dir, "report", "--out", out,
                           "--top", str(top), "--bottom", str(bottom))
            assert res.exit_code == 0
            with open(os.path.join(out, "report_region.txt")) as fh:
                text = fh.read()
            header = text.splitlines()[0].split()
            assert header == ["1-feature", "CE", "SCE-drop", "2-feature", "CE", "SCE-drop"]
            assert len(text.splitlines()) == lines

    def test_staged_commands_match_all(self, synthetic_dir, tmp_path, cfg):
        """Each stage command runs its own stage: run one by one in table
        order, they write the bytes of `all`, manifest aside."""
        stages = list(dict.fromkeys(stage for stage, _name in pipeline._artifacts(cfg)))
        assert stages == ["features", "associate", "fuse", "select", "cluster"]
        for stage in stages:
            res = self.run(synthetic_dir, stage, "--out", str(tmp_path / "staged"))
            assert res.exit_code == 0, (stage, res.output)
        assert self.run(synthetic_dir, "all", "--out", str(tmp_path / "all")).exit_code == 0
        whole = digest_dir(tmp_path / "all")
        del whole["manifest.txt"]
        assert digest_dir(tmp_path / "staged") == whole

    def test_cli_matches_library_run(self, synthetic_dir, tmp_path, cfg):
        import dataclasses

        lib_out = str(tmp_path / "lib")
        cli_out = str(tmp_path / "cli")
        pipeline.run_pipeline(dataclasses.replace(cfg, output=lib_out))
        assert self.run(synthetic_dir, "all", "--out", cli_out).exit_code == 0
        assert digest_dir(lib_out) == digest_dir(cli_out)


def _restarts_zero(d):
    d["fusions"][0]["restarts"] = 0


def _replicates_zero(d):
    d["responses"][0]["replicates"] = 0


def _top_negative(d):
    d["responses"][0]["top"] = -1


def _bottom_negative(d):
    d["responses"][0]["bottom"] = -1


def _duplicate_fusion(d):
    d["fusions"].append(dict(d["fusions"][0]))


def _duplicate_clustering(d):
    d["clusterings"].append(dict(d["clusterings"][0]))


def _duplicate_response(d):
    d["responses"].append(dict(d["responses"][0]))


def _fusion_named_like_feature(d):
    d["fusions"][0]["name"] = "left80"
    d["responses"][0]["candidates"] = ["left80", "right50"]


def _unsafe_fusion_name(d):
    d["fusions"][0]["name"] = "a/b"
    d["responses"][0]["candidates"] = ["a/b", "left80"]


def _unsafe_clustering_name(d):
    d["clusterings"][0]["name"] = "../left"


def _fusion_without_name(d):
    del d["fusions"][0]["name"]


def _response_without_candidates(d):
    del d["responses"][0]["candidates"]


def _clustering_without_columns(d):
    del d["clusterings"][0]["columns"]


def _n_bins_word(d):
    d["n_bins"] = "four"


def _threshold_word(d):
    d["thresholds"] = ["a"]


def _threshold_scalar(d):
    d["thresholds"] = 0.6


def _rate_scale_word(d):
    d["rate_scale"] = "x"


def _rate_scale_zero(d):
    d["rate_scale"] = 0


def _rate_scale_negative(d):
    d["rate_scale"] = -100000


def _rate_scale_nan(d):
    d["rate_scale"] = float("nan")


def _fusions_mapping(d):
    d["fusions"] = {"left30to70": d["fusions"][0]}


def _window_list(d):
    d["window"] = [1, 2]


def _fusion_columns_empty(d):
    d["fusions"][0]["columns"] = []


def _clustering_columns_empty(d):
    d["clusterings"][0]["columns"] = []


def _candidates_empty(d):
    d["responses"][0]["candidates"] = []


def _fusion_seed_negative(d):
    d["fusions"][0]["seed"] = -1


def _response_seed_negative(d):
    d["responses"][0]["seed"] = -1


def _k_fractional(d):
    d["fusions"][0]["k"] = 2.7


def _k_bool(d):
    d["fusions"][0]["k"] = True


def _k_infinite(d):
    d["fusions"][0]["k"] = float("inf")


def _rate_scale_bool(d):
    d["rate_scale"] = True


def _threshold_bool(d):
    d["thresholds"] = [True]


def _response_own_candidate(d):
    d["responses"][0]["response"] = "left80"


def _repeated_candidate(d):
    d["responses"][0]["candidates"] = ["left80", "left80", "right50"]


def _repeated_fusion_column(d):
    d["fusions"][0]["columns"] = ["left30", "left30", "left40"]


def _repeated_clustering_column(d):
    d["clusterings"][0]["columns"] = ["left90", "left80", "left90"]


def _thresholds_equal(d):
    d["thresholds"] = [0.6, 0.6]


def _thresholds_print_alike(d):
    d["thresholds"] = [0.6, 0.6000001]


def _unknown_top_key(d):
    d["n_bin"] = 3


def _unknown_window_key(d):
    d["window"]["stop"] = d["window"].pop("end")


def _unknown_fusion_key(d):
    d["fusions"][0]["restart"] = 5


def _unknown_response_key(d):
    d["responses"][0]["replicate"] = 7


def _unknown_clustering_key(d):
    d["clusterings"][0]["k"] = 2


def _start_timestamp(d):
    d["window"]["start"] = dt.datetime(2022, 3, 25, 10)


def _end_timestamp(d):
    d["window"]["end"] = dt.datetime(2022, 8, 19, 10)


def _both_timestamps(d):
    d["window"] = {"start": dt.datetime(2022, 3, 25), "end": dt.datetime(2022, 8, 19)}


def _start_basic_form(d):
    d["window"]["start"] = 20220325  # a YAML int, read as a date by Python 3.11


def _end_week_date(d):
    d["window"]["end"] = "2022-W33-5"  # 2022-08-19 to Python 3.11


def _metadata_missing(d):
    del d["metadata"]


def _cases_misspelled(d):
    d["case"] = d.pop("cases")  # the unknown key is named, not the missing one


def _second_fusion_shape_after_first_seed(d):
    # a section's shape errors (any entry) come before its value errors
    d["fusions"][0]["seed"] = -1
    d["fusions"].append({"columns": ["left30"]})


INVALID_CONFIGS = [
    (_restarts_zero, "restarts must be >= 1"),
    (_replicates_zero, "replicates must be >= 1"),
    (_top_negative, "top, bottom >= 0"),
    (_bottom_negative, "top, bottom >= 0"),
    (_duplicate_fusion, "duplicate fusion name"),
    (_duplicate_clustering, "duplicate clustering name"),
    (_duplicate_response, "duplicate response name"),
    (_fusion_named_like_feature, "collides with a data column"),
    (_unsafe_fusion_name, "not safe in a file name"),
    (_unsafe_clustering_name, "not safe in a file name"),
    (_fusion_without_name, "fusions[0]: missing 'name'"),
    (_response_without_candidates, "responses[0]: missing 'candidates'"),
    (_clustering_without_columns, "clusterings[0]: missing 'columns'"),
    (_n_bins_word, "config: bad n_bins 'four'"),
    (_threshold_word, "config: bad thresholds ['a']"),
    (_threshold_scalar, "config: bad thresholds 0.6"),
    (_rate_scale_word, "config: bad rate_scale 'x'"),
    (_rate_scale_zero, "rate_scale must be finite and > 0, got 0.0"),
    (_rate_scale_negative, "rate_scale must be finite and > 0, got -100000.0"),
    (_rate_scale_nan, "rate_scale must be finite and > 0, got nan"),
    (_fusions_mapping, "fusions must be a list of mappings"),
    (_window_list, "window must be a mapping"),
    (_fusion_columns_empty, "fusions[0]: bad columns []"),
    (_clustering_columns_empty, "clusterings[0]: bad columns []"),
    (_candidates_empty, "responses[0]: bad candidates []"),
    (_fusion_seed_negative, "fusion left30to70: seed must be >= 0"),
    (_response_seed_negative, "response region: seed must be >= 0"),
    (_k_fractional, "fusions[0]: bad k 2.7"),
    (_k_bool, "fusions[0]: bad k True"),
    (_k_infinite, "fusions[0]: bad k inf"),
    (_rate_scale_bool, "config: bad rate_scale True"),
    (_threshold_bool, "config: bad thresholds [True]"),
    (_response_own_candidate, "response left80: a response cannot be its own candidate"),
    (_repeated_candidate, "responses[0]: bad candidates ['left80', 'left80', 'right50']"),
    (_repeated_fusion_column, "fusions[0]: bad columns ['left30', 'left30', 'left40']"),
    (_repeated_clustering_column, "clusterings[0]: bad columns ['left90', 'left80', 'left90']"),
    (_thresholds_equal, "thresholds 0.6 and 0.6 both name network_<kind>_0.6.dot"),
    (_thresholds_print_alike,
     "thresholds 0.6 and 0.6000001 both name network_<kind>_0.6.dot"),
    (_unknown_top_key, "config: unknown key 'n_bin'"),
    (_unknown_window_key, "window: unknown key 'stop'"),
    (_unknown_fusion_key, "fusions[0]: unknown key 'restart'"),
    (_unknown_response_key, "responses[0]: unknown key 'replicate'"),
    (_unknown_clustering_key, "clusterings[0]: unknown key 'k'"),
    (_start_timestamp, "window: bad start datetime.datetime(2022, 3, 25, 10, 0)"),
    (_end_timestamp, "window: bad end datetime.datetime(2022, 8, 19, 10, 0)"),
    (_both_timestamps, "window: bad start datetime.datetime(2022, 3, 25, 0, 0)"),
    (_start_basic_form, "window: bad start 20220325"),
    (_end_week_date, "window: bad end '2022-W33-5'"),
    (_metadata_missing, "config: missing 'metadata'"),
    (_cases_misspelled, "config: unknown key 'case'"),
    (_second_fusion_shape_after_first_seed, "fusions[1]: missing 'name'"),
]


class TestConfigValidationExit2:
    @pytest.mark.parametrize("mutate, message", INVALID_CONFIGS,
                             ids=[f.__name__.strip("_") for f, _ in INVALID_CONFIGS])
    def test_rejected_with_exit_2(self, synthetic_dir, tmp_path, mutate, message):
        data = base_config(synthetic_dir)
        data["cases"] = str(synthetic_dir / "cases.csv")
        data["metadata"] = str(synthetic_dir / "meta.csv")
        mutate(data)
        p = tmp_path / "bad.yaml"
        with open(p, "w") as fh:
            yaml.safe_dump(data, fh)
        res = CliRunner().invoke(main, ["all", "--config", str(p),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert res.output.startswith("config error:") and message in res.output
        assert res.output.count("\n") == 1
        assert not os.path.exists(tmp_path / "o")


def test_config_not_utf8_exits_2(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_bytes(b"cases: a\xff\n")
    res = CliRunner().invoke(main, ["all", "--config", str(config)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"config error: cannot read config {config}: ")
    assert res.output.count("\n") == 1


def test_config_impossible_date_exits_2(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("cases: a\nmetadata: b\noutput: o\n"
                      "window: {start: 2022-02-30, end: 2022-08-19}\n")
    res = CliRunner().invoke(main, ["features", "--config", str(config)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"config error: invalid YAML in {config}: ")
    assert "day is out of range for month" in res.output
    assert res.output.count("\n") == 1


class TestReportRoundTrip:
    def test_underscore_fusion_name(self, synthetic_dir, tmp_path):
        data = base_config(synthetic_dir)
        data["cases"] = str(synthetic_dir / "cases.csv")
        data["metadata"] = str(synthetic_dir / "meta.csv")
        data["fusions"][0]["name"] = "left_block"
        data["responses"][0]["candidates"] = ["left_block", "left80", "right50",
                                              "peakvalue"]
        data["responses"][0]["order"] = 3
        p = tmp_path / "underscore.yaml"
        with open(p, "w") as fh:
            yaml.safe_dump(data, fh)
        out = tmp_path / "o"
        runner = CliRunner()
        for stage in ("all", "report"):
            res = runner.invoke(main, [stage, "--config", str(p), "--out", str(out)])
            assert res.exit_code == 0, res.output
            if stage == "all":
                written = {ext: (out / f"report_region.{ext}").read_bytes()
                           for ext in ("txt", "md")}
                assert b"left_block" in written["txt"]
        for ext in ("txt", "md"):
            assert (out / f"report_region.{ext}").read_bytes() == written[ext]

    def test_fusion_named_like_two_candidates(self, synthetic_dir, tmp_path):
        data = base_config(synthetic_dir)
        data["cases"] = str(synthetic_dir / "cases.csv")
        data["metadata"] = str(synthetic_dir / "meta.csv")
        data["fusions"][0]["name"] = "left80_right50"
        data["responses"][0]["candidates"] = ["left80_right50", "left80", "right50",
                                              "peakvalue"]
        p = tmp_path / "joined.yaml"
        p.write_text(yaml.safe_dump(data))
        out = tmp_path / "o"
        runner = CliRunner()
        res = runner.invoke(main, ["all", "--config", str(p), "--out", str(out)])
        assert res.exit_code == 0, res.output
        written = {ext: (out / f"report_region.{ext}").read_bytes() for ext in ("txt", "md")}
        res = runner.invoke(main, ["report", "--config", str(p), "--out", str(out)])
        assert res.exit_code == 0, res.output
        for ext in ("txt", "md"):
            assert (out / f"report_region.{ext}").read_bytes() == written[ext]

    @pytest.mark.parametrize("seed", range(30))
    def test_report_rewrites_select_bytes(self, tmp_path, seed):
        """select renders reports from full floats; report must match them to the
        byte, not round the 6-decimal scan CSV a second time."""
        rng = np.random.default_rng(seed)
        candidates = ("peak", "left20", "left50", "left80", "right50", "right80")
        cfg = pipeline.PipelineConfig(
            cases="unused", metadata="unused", output=str(tmp_path),
            responses=(pipeline.ResponseSpec("peakvalue", candidates, order=2,
                                             replicates=10),))
        units = [f"u{i:02d}" for i in range(40)]
        pipeline._write_table(cfg, "categorical.csv", units,
                              {c: rng.integers(0, 4, 40)
                               for c in ("peakvalue",) + candidates})
        pipeline.stage_select(cfg)
        paths = [tmp_path / f"report_peakvalue.{ext}" for ext in ("txt", "md")]
        written = [p.read_bytes() for p in paths]
        assert [name for stage, name in pipeline._artifacts(cfg) if stage == "select"] == \
            ["scan_peakvalue.csv", *(p.name for p in paths)]
        for p in paths:
            p.unlink()
        pipeline.stage_report(cfg)
        assert [p.read_bytes() for p in paths] == written


def _drop_count_cell(text):
    lines = text.splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
    return "".join(lines)


def _oversized_count(text):
    lines = text.splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",99999999999999999999\n"
    return "".join(lines)


def _unit_id_only(text):
    lines = text.splitlines(keepends=True)
    lines[2] = lines[2].split(",", 1)[0] + "\n"
    return "".join(lines)


def _cut_after_population(text):
    lines = text.splitlines(keepends=True)
    lines[1] = ",".join(lines[1].split(",")[:5]) + "\n"
    return "".join(lines)


def _oversized_population(text):
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[4] = "99999999999999999999"
    lines[1] = ",".join(cells)
    return "".join(lines)


def _bad_peakdate(text):
    lines = text.splitlines(keepends=True)
    unit, _date, rest = lines[1].split(",", 2)
    lines[1] = f"{unit},2022-13-45,{rest}"
    return "".join(lines)


def _basic_form_date(text):
    lines = text.splitlines(keepends=True)
    unit, date, count = lines[2].split(",")
    lines[2] = f"{unit},{date.replace('-', '')},{count}"
    return "".join(lines)


def _week_peakdate(text):
    lines = text.splitlines(keepends=True)
    unit, date, rest = lines[1].split(",", 2)
    year, week, day = dt.date.fromisoformat(date).isocalendar()
    lines[1] = f"{unit},{year}-W{week:02d}-{day},{rest}"
    return "".join(lines)


def _infinite_peakvalue(text):
    lines = text.splitlines(keepends=True)
    unit, date, _value, rest = lines[1].split(",", 3)
    lines[1] = f"{unit},{date},inf,{rest}"
    return "".join(lines)


def _nan_peakvalue(text):
    return _infinite_peakvalue(text).replace(",inf,", ",nan,", 1)


def _truncated_mid_row(text):
    return text[:text.rstrip("\n").rindex("\n") + 20]


def _bad_second_cell(text):
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3].replace(",", ",x", 1)
    return "".join(lines)


def _with_cell(text, column, value):
    """``text`` with row 2's cell of ``column`` set to ``value``."""
    lines = text.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[lines[0].rstrip("\n").split(",").index(column)] = value
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


def _oversized_left80(text):
    return _with_cell(text, "left80", "99999999999999999999")


def _oversized_fusion_label(text):
    return _with_cell(text, "left30to70", "99999999999999999999")


def _repeated_row(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines + lines[1:2])


def _stray_quote(text):
    """A line holding only `"` after row 2, followed by the data rows repeated
    past csv's 128 KiB field limit."""
    lines = text.splitlines(keepends=True)
    rows = "".join(lines[1:])
    return "".join(lines[:2]) + '"\n' + rows * (1 + (128 << 10) // len(rows))


CORRUPT_INPUTS = [
    ("features", "cases.csv", _drop_count_cell, "data error: row 3: missing count"),
    ("features", "cases.csv", _unit_id_only, "data error: row 3: missing date, count"),
    ("features", "cases.csv", _oversized_count, "data error: row 3: count too large"),
    ("features", "cases.csv", _basic_form_date,
     r"data error: row 3: unparseable date '2022\d{4}'"),
    ("features", "cases.csv", _stray_quote,
     r"cannot read .*cases\.csv: field larger than field limit \(131072\)"),
    ("features", "meta.csv", _cut_after_population,
     "data error: row 2: missing region, status"),
    ("features", "meta.csv", _oversized_population,
     "data error: row 2: [^:]+: population too large"),
    ("associate", "out/features.csv", _bad_peakdate,
     "features.csv: row 2: unparseable peakdate '2022-13-45'"),
    ("associate", "out/features.csv", _week_peakdate,
     r"features.csv: row 2: unparseable peakdate '2022-W\d\d-\d'"),
    ("fuse", "out/features.csv", _infinite_peakvalue,
     "features.csv: row 2: unparseable peakvalue 'inf'"),
    ("associate", "out/features.csv", _nan_peakvalue,
     "features.csv: row 2: unparseable peakvalue 'nan'"),
    ("associate", "out/features.csv", _truncated_mid_row,
     r"features.csv: row 21 has \d+ cells, expected 21"),
    ("select", "out/categorical.csv", _truncated_mid_row,
     r"categorical.csv: row 21 has \d+ cells, expected 20"),
    ("select", "out/categorical.csv", _bad_second_cell,
     "categorical.csv: row 4: unparseable peakdate 'x"),
    ("report", "out/categorical.csv", _truncated_mid_row,
     r"categorical.csv: row 21 has \d+ cells, expected 20"),
    ("report", "out/categorical.csv", _bad_second_cell,
     "categorical.csv: row 4: unparseable peakdate 'x"),
    ("select", "out/categorical.csv", _oversized_left80,
     "categorical.csv: row 2: unparseable left80 '99999999999999999999'"),
    ("select", "out/fused.csv", _oversized_fusion_label,
     "fused.csv: row 2: unparseable left30to70 '99999999999999999999'"),
    ("report", "out/categorical.csv", _oversized_left80,
     "categorical.csv: row 2: unparseable left80 '99999999999999999999'"),
    ("report", "out/fused.csv", _oversized_fusion_label,
     "fused.csv: row 2: unparseable left30to70 '99999999999999999999'"),
    ("associate", "out/features.csv", _repeated_row,
     "features.csv: row 22: duplicate unit 'KSa12'"),
    ("select", "out/categorical.csv", _repeated_row,
     "categorical.csv: row 22: duplicate unit 'KSa12'"),
]


def _copy_run(synthetic_dir, tmp_path, name):
    """Copy the raw inputs and config into tmp_path, and run `all` there
    first when ``name`` is an artifact under out/."""
    for raw in ("cases.csv", "meta.csv"):
        shutil.copy(synthetic_dir / raw, tmp_path / raw)
    config = tmp_path / "config.yaml"
    with open(config, "w") as fh:
        yaml.safe_dump(base_config(tmp_path), fh)
    if name.startswith("out/"):
        assert CliRunner().invoke(main, ["all", "--config", str(config)]).exit_code == 0
    return config


def _assert_one_line_data_error(res, message):
    assert res.exit_code == 3, res.output
    assert res.output.startswith("data error: ") and res.output.count("\n") == 1
    assert re.search(message, res.output)


class TestCorruptInputsExit3:
    @pytest.mark.parametrize("stage, name, corrupt, message", CORRUPT_INPUTS,
                             ids=[f"{stage}-{c.__name__.strip('_')}"
                                  for stage, _, c, _ in CORRUPT_INPUTS])
    def test_one_line_data_error(self, synthetic_dir, tmp_path, stage, name,
                                 corrupt, message):
        config = _copy_run(synthetic_dir, tmp_path, name)
        path = tmp_path / name
        path.write_text(corrupt(path.read_text()))
        res = CliRunner().invoke(main, [stage, "--config", str(config)])
        _assert_one_line_data_error(res, message)


@pytest.mark.parametrize("kind, column", [("response", "left80"),
                                          ("candidate", "right50")])
def test_column_missing_from_categorical_csv_is_a_data_error(synthetic_dir, tmp_path,
                                                             kind, column):
    config = _copy_run(synthetic_dir, tmp_path, "cases.csv")
    data = yaml.safe_load(config.read_text())
    data["responses"][0].update(response="left80",
                                candidates=["left30to70", "right50", "peakvalue"])
    config.write_text(yaml.safe_dump(data))
    assert CliRunner().invoke(main, ["all", "--config", str(config)]).exit_code == 0
    path = tmp_path / "out" / "categorical.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(column)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(row[:drop] + row[drop + 1:] for row in rows)
    res = CliRunner().invoke(main, ["select", "--config", str(config)])
    _assert_one_line_data_error(
        res, re.escape(f"{kind} '{column}' not found; run `associate`/`fuse` first"))


def _missing(path):
    path.unlink()


def _directory(path):
    path.unlink()
    path.mkdir()


def _byte_ff(path):
    data = path.read_bytes()
    path.write_bytes(data[:40] + b"\xff" + data[40:])


UNREADABLE_INPUTS = [
    ("all", "cases.csv", _missing, "No such file or directory"),
    ("all", "cases.csv", _directory, "Is a directory"),
    ("all", "cases.csv", _byte_ff, "can't decode byte 0xff"),
    ("all", "meta.csv", _missing, "No such file or directory"),
    ("all", "meta.csv", _directory, "Is a directory"),
    ("associate", "out/features.csv", _directory, "Is a directory"),
    ("associate", "out/features.csv", _byte_ff, "can't decode byte 0xff"),
]


@pytest.mark.parametrize("stage, name, damage, reason", UNREADABLE_INPUTS,
                         ids=[f"{stage}-{name.rsplit('/', 1)[-1]}-{d.__name__.strip('_')}"
                              for stage, name, d, _ in UNREADABLE_INPUTS])
def test_unreadable_input_is_a_data_error(synthetic_dir, tmp_path, stage, name,
                                          damage, reason):
    config = _copy_run(synthetic_dir, tmp_path, name)
    damage(tmp_path / name)
    res = CliRunner().invoke(main, [stage, "--config", str(config)])
    _assert_one_line_data_error(res, f"cannot read {re.escape(str(tmp_path / name))}: "
                                     f".*{reason}")


@pytest.mark.parametrize("name", ["cases.csv", "meta.csv", "config.yaml"])
def test_leading_byte_order_mark_is_ignored(synthetic_dir, tmp_path, name):
    """An input that starts with a UTF-8 byte-order mark, as Excel's "CSV UTF-8"
    export writes it, gives the features.csv of the same input without one."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for d in (plain, marked):
        d.mkdir()
        _copy_run(synthetic_dir, d, name)
    (marked / name).write_bytes(b"\xef\xbb\xbf" + (marked / name).read_bytes())
    for d in (plain, marked):
        res = CliRunner().invoke(main, ["features", "--config", str(d / "config.yaml")])
        assert res.exit_code == 0, res.output
    assert (marked / "out/features.csv").read_bytes() == (plain / "out/features.csv").read_bytes()


#: (stage, an input it reads) pairs the fuzz test damages.
FUZZ_TARGETS = [("features", "cases.csv"), ("features", "meta.csv"),
                *((stage, "out/features.csv") for stage in ("associate", "fuse", "cluster")),
                *((stage, f"out/{name}.csv") for stage in ("select", "report")
                  for name in ("categorical", "fused"))]


@pytest.fixture(scope="module")
def finished_run(synthetic_dir, tmp_path_factory):
    """A copy of the synthetic inputs and config after a whole run."""
    d = tmp_path_factory.mktemp("finished")
    config = _copy_run(synthetic_dir, d, "out/features.csv")
    return d, config.name


def _damage(data: bytes, mutation: str, at: int, byte: int) -> bytes:
    """``data`` truncated at, or with one byte replaced at, byte ``at``, or with
    line ``at`` dropped or repeated, or a line holding `"` put before it
    (``at`` taken modulo the length)."""
    if mutation == "truncate":
        return data[:at % (len(data) + 1)]
    if mutation == "replace":
        at %= len(data)
        return data[:at] + bytes([byte]) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    at %= len(lines) + (mutation == "quote")
    insert = {"drop": [], "repeat": lines[at:at + 1] * 2, "quote": [b'"\n', *lines[at:at + 1]]}
    return b"".join(lines[:at] + insert[mutation] + lines[at + 1:])


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(FUZZ_TARGETS), copies=st.sampled_from([1, 3]),
       mutation=st.sampled_from(["truncate", "replace", "drop", "repeat", "quote"]),
       at=st.integers(0, 1 << 20), byte=st.integers(0, 255))
@example(target=("features", "cases.csv"), copies=3, mutation="quote", at=2, byte=0)
def test_damaged_input_never_ends_in_a_traceback(finished_run, target, copies,
                                                 mutation, at, byte):
    """One input, its data rows repeated ``copies`` times (so a stray quote
    can reach past csv's 128 KiB field limit) and then damaged, makes a stage
    that reads it succeed or exit 2, 3 or 4 with one line of error."""
    (src, config), (stage, name) = finished_run, target
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, tmp, dirs_exist_ok=True)
        path = Path(tmp) / name
        header, *rows = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(_damage(header + b"".join(rows) * copies, mutation, at, byte))
        res = CliRunner().invoke(main, [stage, "--config", str(Path(tmp) / config)])
    assert res.exit_code in (0, 2, 3, 4), repr(res.exception)
    if res.exit_code:
        assert res.output.endswith("\n") and res.output.count("\n") == 1, res.output


def test_unit_labels_escaped_in_similarity_artifacts(synthetic_dir, tmp_path):
    with open(synthetic_dir / "meta.csv", newline="") as fh:
        first, second = [row[0] for row in csv.reader(fh)][1:3]
    renamed = {first: "Da'an, Taipei", second: "A&B <x>"}
    for raw in ("cases.csv", "meta.csv"):
        with open(synthetic_dir / raw, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(tmp_path / raw, "w", newline="") as fh:
            csv.writer(fh).writerows([renamed.get(r[0], r[0])] + r[1:] for r in rows)
    config = tmp_path / "config.yaml"
    with open(config, "w") as fh:
        yaml.safe_dump(base_config(tmp_path), fh)
    res = CliRunner().invoke(main, ["all", "--config", str(config)])
    assert res.exit_code == 0, res.output

    with open(tmp_path / "out" / "similarity_left.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert {len(row) for row in table} == {len(table)}
    assert set(renamed.values()) <= set(table[0]) & {row[0] for row in table}
    svg = ElementTree.parse(tmp_path / "out" / "heatmap_left.svg").getroot()
    texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert sorted(texts) == sorted(table[0][1:] * 2)


@pytest.mark.parametrize("option", ["--top", "--bottom"])
def test_report_rejects_negative_counts(synthetic_dir, tmp_path, option):
    res = CliRunner().invoke(main, ["report", "--config", str(synthetic_dir / "config.yaml"),
                                    "--out", str(tmp_path / "o"), option, "-3"])
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output
    assert not os.path.exists(tmp_path / "o")


def _run_all(tmp_path, synthetic_dir, **changes):
    """Exit of ``epicurve all`` on the synthetic inputs with config changes."""
    for raw in ("cases.csv", "meta.csv"):
        shutil.copy(synthetic_dir / raw, tmp_path / raw)
    config = tmp_path / "config.yaml"
    with open(config, "w") as fh:
        yaml.safe_dump({**base_config(tmp_path), **changes}, fh)
    return CliRunner().invoke(main, ["all", "--config", str(config)])


def test_all_na_feature_is_named(synthetic_dir, tmp_path):
    res = _run_all(tmp_path, synthetic_dir,
                   window={"start": START, "end": START + dt.timedelta(days=80)})
    assert res.exit_code == 4, res.output
    assert "right90" in res.output


def test_dot_graph_ids_are_valid(synthetic_dir, tmp_path):
    res = _run_all(tmp_path, synthetic_dir, thresholds=[1e-05, 0.6])
    assert res.exit_code == 0, res.output
    dots = sorted((tmp_path / "out").glob("network_*.dot"))
    assert len(dots) == 4
    for path in dots:
        graph_id = path.read_text().splitlines()[0].split()[1]
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", graph_id), (path.name, graph_id)


def test_too_few_ward_rows_names_the_clustering(synthetic_dir, tmp_path):
    config = _copy_run(synthetic_dir, tmp_path, "cases.csv")
    data = yaml.safe_load(config.read_text())
    data["window"] = {"start": START, "end": START + dt.timedelta(days=80)}
    data["clusterings"].append({"name": "late", "columns": ["right90"]})
    config.write_text(yaml.safe_dump(data))
    assert CliRunner().invoke(main, ["features", "--config", str(config)]).exit_code == 0
    res = CliRunner().invoke(main, ["cluster", "--config", str(config)])
    assert res.exit_code == 4, res.output
    assert "late: need at least 2 complete rows, got 0" in res.output


def test_rerun_without_exclusions_empties_the_excluded_list(synthetic_dir, tmp_path):
    """A rerun into the same output whose clustering keeps every row leaves
    an empty excluded_<name>.txt, listed in the manifest, not the old list."""
    config = _copy_run(synthetic_dir, tmp_path, "out/features.csv")
    excluded = tmp_path / "out" / "excluded_left.txt"
    assert excluded.read_text() == "TPh07\nTPj09\n"
    data = yaml.safe_load(config.read_text())
    data["clusterings"][0]["columns"] = ["peakvalue"]
    config.write_text(yaml.safe_dump(data))
    assert CliRunner().invoke(main, ["all", "--config", str(config)]).exit_code == 0
    assert excluded.read_text() == ""
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert f"{hashlib.sha256(b'').hexdigest()}  excluded_left.txt" in manifest


SELECT_CANDIDATES = ["peakdate", *SHAPE_FEATURES, "left30to70"]


def _select_data(synthetic_dir, responses):
    """A config mapping scanning the 20 candidates for each (response, seed,
    order, replicates), with no clustering."""
    data = base_config(synthetic_dir)
    data["cases"] = str(synthetic_dir / "cases.csv")
    data["metadata"] = str(synthetic_dir / "meta.csv")
    assert len(SELECT_CANDIDATES) == 20
    data["responses"] = [
        {"response": response, "candidates": SELECT_CANDIDATES, "order": order,
         "replicates": replicates, "seed": seed, "top": 3, "bottom": 1}
        for response, seed, order, replicates in responses]
    data["clusterings"] = []
    return data


def oracle_noise_thresholds(y, existing, candidates, replicates, seeds, orders):
    """noise_thresholds' (mean, q95) arrays, each candidate's null drawn on its own."""
    nulls = [oracle_noise_threshold(y, existing, c, replicates, s)
             for c, s in zip(candidates, seeds)]
    return np.array([n.mean for n in nulls]), np.array([n.q95 for n in nulls])


def _scan_bytes(data, out):
    """The scan CSVs a whole run writes into ``out``, by name."""
    pipeline.run_pipeline(pipeline.config_from_dict({**data, "output": str(out)}))
    return {path.name: path.read_bytes() for path in sorted(out.glob("scan_*.csv"))}


def test_select_draws_each_null_order_once(synthetic_dir, tmp_path):
    """Two responses over the same 20 candidates with seeds 5 and 7 use null
    seeds 5..24 and 7..26: 22 distinct draws, and the scans are those of a
    run that draws every candidate's null on its own."""
    data = _select_data(synthetic_dir, [("region", 5, 2, 30), ("status", 7, 2, 30)])
    held = []  # seeds of the orders held when each response's nulls start

    def noise_thresholds(y, existing, candidates, replicates, seeds, orders):
        held.append(sorted(seed for seed, _ in orders))
        return batched(y, existing, candidates, replicates, seeds, orders)

    batched = major_factor.noise_thresholds
    with mock.patch.object(major_factor, "permutation_orders",
                           wraps=major_factor.permutation_orders) as draws, \
            mock.patch.object(major_factor, "noise_thresholds", noise_thresholds):
        got = _scan_bytes(data, tmp_path / "batched")
    assert draws.call_count == 2  # one call per response, with the seeds it lacks
    drawn = [(seed, c.args[1]) for c in draws.call_args_list for seed in c.args[0]]
    assert sorted(drawn) == [(seed, 30) for seed in range(5, 27)]
    # the first response's orders are all still held when the second one starts
    assert held == [[], list(range(5, 25))]
    with mock.patch.object(major_factor, "noise_thresholds", oracle_noise_thresholds):
        want = _scan_bytes(data, tmp_path / "oracle")
    assert list(got) == ["scan_region.csv", "scan_status.csv"] and got == want


def test_each_stage_renders_each_response_once(synthetic_dir, tmp_path):
    """select and report call factor_report once per response that gets
    reports, for its text and Markdown tables together."""
    data = _select_data(synthetic_dir, [("region", 5, 2, 30), ("status", 7, 3, 30)])
    cfg = pipeline.config_from_dict({**data, "output": str(tmp_path / "out")})
    pipeline.run_pipeline(cfg)
    for stage in (pipeline.stage_select, pipeline.stage_report):
        with mock.patch.object(major_factor, "factor_report",
                               wraps=major_factor.factor_report) as render:
            stage(cfg)
        assert render.call_count == 2, stage.__name__


def test_scan_rows_judged_against_recomputed_nulls(synthetic_dir, tmp_path):
    """Each row of an order-3 scan CSV against noise_threshold and classify_pair
    run here: a single is judged by its own null, a pair by the larger of its
    members' q95s, and a triple leaves the four null cells empty."""
    data = _select_data(synthetic_dir, [("region", 5, 3, 30)])
    cfg = pipeline.config_from_dict({**data, "output": str(tmp_path / "out")})
    pipeline.run_pipeline(cfg)
    ((_spec, y, candidates),) = pipeline._scan_inputs(cfg)
    results = {"_".join(r.feature_names): r
               for level in major_factor.scan(y, candidates, 3) for r in level}
    nulls = {c: major_factor.noise_threshold(y, [], candidates[c], 30, 5 + i)
             for i, c in enumerate(sorted(candidates))}
    with open(tmp_path / "out" / "scan_region.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(row["features"] for row in rows) == sorted(results)
    judged = ("null_mean", "null_q95", "significant", "classification")
    seen = set()
    for row in rows:
        r = results[row["features"]]
        if len(r.feature_names) == 1:
            null = nulls[r.feature_names[0]]
            sig = r.ce_drop > null.q95 + major_factor.EPS
            want = [f"{null.mean:.6f}", f"{null.q95:.6f}", str(sig).lower(),
                    major_factor.ORDER1 if sig else major_factor.INSIGNIFICANT]
        elif len(r.feature_names) == 2:
            a, b = r.feature_names
            sig = r.sce_drop > max(nulls[a].q95, nulls[b].q95) + major_factor.EPS
            want = ["", "", str(sig).lower(), major_factor.classify_pair(
                r, results[a], results[b], nulls[a], nulls[b])]
        else:
            want = ["", "", "", ""]
        assert [row[c] for c in judged] == want, row["features"]
        seen.add((len(r.feature_names), *want[2:]))
    # both verdicts of a single, all four pair classes, and the triples occur
    assert {(1, "true", major_factor.ORDER1), (1, "false", major_factor.INSIGNIFICANT),
            (2, "true", major_factor.ORDER2_INTERACTION), (2, "true", major_factor.ORDER1_PAIR),
            (2, "false", major_factor.REDUNDANT), (2, "false", major_factor.INSIGNIFICANT),
            (3, "", "")} <= seen


def test_null_seeds_crossing_two_to_the_32(synthetic_dir, tmp_path):
    """Seed 2**32 - 10 gives the 20 candidates null seeds of one and of two
    32-bit words within one response."""
    data = _select_data(synthetic_dir, [("region", 2**32 - 10, 2, 20)])
    got = _scan_bytes(data, tmp_path / "batched")
    with mock.patch.object(major_factor, "noise_thresholds", oracle_noise_thresholds):
        want = _scan_bytes(data, tmp_path / "oracle")
    assert list(got) == ["scan_region.csv"] and got == want


def test_select_builds_no_generator_per_replicate(synthetic_dir, tmp_path):
    """The scan-deep shape: orders 3 and 2 at 50 replicates over 20 candidates
    (22 null seeds). An oracle draw of the same orders counts 1100 generators."""
    data = _select_data(synthetic_dir, [("region", 5, 3, 50), ("status", 7, 2, 50)])
    cfg = pipeline.config_from_dict({**data, "output": str(tmp_path / "out")})
    pipeline.run_pipeline(cfg)

    def oracle_orders(seeds, replicates, n):
        return {(s, replicates): oracle_permutation_orders(s, replicates, n) for s in seeds}

    counts = {}
    for run, draw in (("batched", major_factor.permutation_orders), ("oracle", oracle_orders)):
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rngs, \
                mock.patch.object(major_factor, "permutation_orders", draw):
            pipeline.stage_select(cfg)
        counts[run] = rngs.call_count
    assert counts == {"batched": 0, "oracle": 22 * 50}


@pytest.mark.parametrize("failure", ["encode", "replace"])
def test_failed_write_keeps_the_earlier_artifact(tmp_path, failure):
    cfg = pipeline.PipelineConfig(cases="cases.csv", metadata="meta.csv",
                                  output=str(tmp_path / "out"))
    path = os.path.join(cfg.output, "scan_region.csv")
    os.mkdir(cfg.output)  # `features` makes it in a run; _write does not
    pipeline._write(cfg, "scan_region.csv", lambda fh: fh.write("earlier\n"))
    if failure == "encode":
        # the lone surrogate cannot be encoded, so the write raises partway
        with pytest.raises(UnicodeEncodeError):
            pipeline._write(cfg, "scan_region.csv",
                            lambda fh: fh.write("later\n" * 10_000 + "\udc80"))
    else:
        with mock.patch.object(pipeline.os, "replace", side_effect=OSError("disk full")), \
                pytest.raises(ConfigError, match=f"^cannot write {re.escape(path)}: disk full$"):
            pipeline._write(cfg, "scan_region.csv", lambda fh: fh.write("later\n"))
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "earlier\n"
    assert os.listdir(cfg.output) == ["scan_region.csv"]


@pytest.mark.parametrize("blocker", ["file", "parent_file"])
def test_unwritable_output_is_a_config_error(synthetic_dir, tmp_path, blocker):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    if blocker == "parent_file":
        out = out / "out"
    res = CliRunner().invoke(main, ["features", "--config",
                                    str(synthetic_dir / "config.yaml"), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith(f"config error: cannot write {out / 'features.csv'}: ")
    assert res.output.count("\n") == 1 and "Traceback" not in res.output
    assert (tmp_path / "taken").read_text() == "not a directory\n"


def test_unwritable_output_fails_before_parsing(synthetic_dir, tmp_path):
    """`features` checks its output location first: no case row is parsed
    and no curve warning is printed before the exit-2 error."""
    config = _copy_run(synthetic_dir, tmp_path, "cases.csv")
    data = yaml.safe_load(config.read_text())
    # peaks on or near the window's last day warn for most units
    data["window"] = {"start": START, "end": START + dt.timedelta(days=30)}
    config.write_text(yaml.safe_dump(data))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    env = {**os.environ, "PYTHONPATH": str(Path(epicurve.__file__).parents[1])}

    def features(out):
        return subprocess.run([sys.executable, "-m", "epicurve.cli", "features",
                               "--config", str(config), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)

    writable = features(tmp_path / "out")
    assert writable.returncode == 0 and "BoundaryPeakWarning" in writable.stderr
    blocked = features(taken)
    assert blocked.returncode == 2
    assert blocked.stderr == (f"config error: cannot write {taken / 'features.csv'}: "
                              f"[Errno 17] File exists: '{taken}'\n")
    cfg = dataclasses.replace(pipeline.load_config(str(config)), output=str(taken))
    with mock.patch.object(pipeline, "parse_case_series", side_effect=AssertionError), \
            pytest.raises(ConfigError, match="^cannot write "):
        pipeline.stage_features(cfg)


@pytest.mark.parametrize("stage, missing", [
    ("associate", "missing features.csv; run `features` first"),
    ("fuse", "missing features.csv; run `features` first"),
    ("select", "missing categorical.csv; run `associate` first"),
    ("cluster", "missing features.csv; run `features` first"),
    ("report", "missing categorical.csv; run `associate` first"),
    ("manifest", "missing features.csv; run `features` first"),
])
def test_only_features_makes_the_output_directory(synthetic_dir, tmp_path, stage, missing):
    """Every other stage, and the manifest, reads an artifact of the output
    directory before it writes one: on a fresh --out each exits 3 naming
    that artifact and leaves no directory behind."""
    out = tmp_path / "fresh"
    if stage == "manifest":
        cfg = dataclasses.replace(pipeline.load_config(str(synthetic_dir / "config.yaml")),
                                  output=str(out))
        with pytest.raises(DataError, match=f"^{re.escape(missing)}$"):
            pipeline.write_manifest(cfg)
    else:
        res = CliRunner().invoke(main, [stage, "--config", str(synthetic_dir / "config.yaml"),
                                        "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert res.output == f"data error: {missing}\n"
    assert not out.exists()


def test_overflowing_rate_is_a_computation_error(synthetic_dir, tmp_path):
    """Counts near 500 over a population of 1 at rate_scale 1e306 overflow
    float64: `features` exits 4 naming the first such unit in sorted order,
    before smoothing, and writes no features.csv that `associate` would refuse."""
    config = _copy_run(synthetic_dir, tmp_path, "cases.csv")
    data = yaml.safe_load(config.read_text())
    data["rate_scale"] = 1.0e306
    config.write_text(yaml.safe_dump(data))
    with open(tmp_path / "meta.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    units = sorted(row[0] for row in rows)
    for row in rows:  # the third and fifth units overflow
        if row[0] in (units[2], units[4]):
            row[header.index("population")] = "1"
    with open(tmp_path / "meta.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    with mock.patch.object(pipeline.curve_features, "smooth_rows",
                           side_effect=AssertionError):
        res = CliRunner().invoke(main, ["features", "--config", str(config)])
    assert res.exit_code == 4, res.output
    assert res.output == (f"computation error: {units[2]}: daily rate overflows float64 "
                          f"at rate_scale 1e+306\n")
    assert not (tmp_path / "out" / "features.csv").exists()


@pytest.mark.parametrize("stage, artifact, message", [
    ("fuse", "fused.csv", "left30to70: column spread overflows float64"),
    ("cluster", "tree_left.csv", "left: Ward distances overflow float64"),
])
def test_overflowing_column_spread_is_a_computation_error(synthetic_dir, tmp_path, stage,
                                                          artifact, message):
    """At rate_scale 1e300, peakvalue is finite in features.csv but its spread
    is not: a fusion or a clustering over it exits 4 naming itself, with no
    RuntimeWarning, where it would fuse on left30 alone or write NaN heights."""
    config = _copy_run(synthetic_dir, tmp_path, "cases.csv")
    data = yaml.safe_load(config.read_text())
    data["rate_scale"] = 1.0e300
    data["fusions"][0]["columns"] = data["clusterings"][0]["columns"] = ["peakvalue", "left30"]
    config.write_text(yaml.safe_dump(data))
    for upstream in ("features", "associate"):
        assert CliRunner().invoke(main, [upstream, "--config", str(config)]).exit_code == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = CliRunner().invoke(main, [stage, "--config", str(config)])
    assert res.exit_code == 4, res.output
    assert res.output == f"computation error: {message}\n"
    assert not (tmp_path / "out" / artifact).exists()


def test_report_refreshes_an_existing_manifest(synthetic_dir, tmp_path):
    """`report` with other counts rewrites the reports and then the manifest
    that `all` wrote, so every line still verifies; a staged run with no
    manifest gets none."""
    config = _copy_run(synthetic_dir, tmp_path, "out/manifest.txt")
    out = tmp_path / "out"
    before = (out / "report_region.txt").read_bytes()
    res = CliRunner().invoke(main, ["report", "--config", str(config),
                                    "--top", "0", "--bottom", "0"])
    assert res.exit_code == 0, res.output
    assert (out / "report_region.txt").read_bytes() != before
    lines = (out / "manifest.txt").read_text().splitlines()
    assert {line.split("  ", 1)[1] for line in lines} >= {"report_region.txt",
                                                         "report_region.md"}
    for line in lines:
        digest, name = line.split("  ", 1)
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    (out / "manifest.txt").unlink()
    res = CliRunner().invoke(main, ["report", "--config", str(config), "--top", "1"])
    assert res.exit_code == 0, res.output
    assert not (out / "manifest.txt").exists()
