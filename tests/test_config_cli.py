import math
import os
import re
import struct

import numpy as np
import pytest

from uwdiff import autodiff
from uwdiff.autodiff import Tensor
from uwdiff.checkpoint import read_checkpoint, write_checkpoint
from uwdiff.cli import main
from uwdiff.config import RunConfig, load_config, parse_config_text, resolve_text
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import SAMPLER_STEPS, GuidanceConfig, make_linear_schedule, stream_rng
from uwdiff.errors import ConfigError, ParameterError, TruncatedFileError, UnsupportedFormatError
from uwdiff.images import RgbImage
from uwdiff.imageio import save_image
from uwdiff.jointnet import (
    JointNetConfig,
    PromptTensor,
    PromptTrainConfig,
    encode_prompt,
    init_params,
    init_prompts,
)
from uwdiff.pipeline import (
    enhance_directory,
    enhance_image,
    joint_context_from_checkpoint,
    load_model_checkpoint,
    save_checkpoint,
)
from uwdiff.synthesis import DatasetManifest, ScatterRanges
from uwdiff.training import LossWeights, OptimizerConfig

from oracles import png_blob
from toy_world import tiny_context


class TestConfigParsing:
    def test_defaults_round_trip_through_render(self):
        config = RunConfig()
        parsed = parse_config_text(resolve_text(config))
        assert parsed == config

    # every stage prints these bytes and every checkpoint embeds them
    DEFAULT_TEXT = (
        "[run]\nseed = 0\n\n"
        "[schedule]\nsteps = 200\nbeta_start = 1e-05\nbeta_end = 0.1\n\n"
        "[guidance]\ngamma2 = 0.0\n\n"
        "[loss]\nlambda1 = 0.6\nlambda2 = 0.4\n\n"
        "[optimizer]\nlearning_rate = 0.001\nsteps = 200\nt_min = 1\n\n"
        "[synthesis]\nmethod = color_transfer\nbeta_direct_min = 0.1\nbeta_direct_max = 1.5\n"
        "beta_backscatter_min = 0.05\nbeta_backscatter_max = 1.0\nveil_min = 0.05\nveil_max = 0.95\n"
        "depth_min = 0.5\ndepth_max = 4.0\n\n"
        "[classifier]\nwidth = 64\nembed_dim = 16\nepochs = 200\n\n"
        "[denoiser]\nwidth = 16\n"
    )

    def test_default_config_renders_to_pinned_text(self):
        assert resolve_text(RunConfig()) == self.DEFAULT_TEXT

    def test_non_default_config_renders_to_pinned_text(self):
        config = RunConfig(
            seed=7, beta_end=0.2, gamma2=0.25, lambda2=0.0, train_t_min=3,
            synth_method="scatter", depth_max=5.5, embed_dim=8, denoiser_width=4,
        )
        expected = (
            "[run]\nseed = 7\n\n"
            "[schedule]\nsteps = 200\nbeta_start = 1e-05\nbeta_end = 0.2\n\n"
            "[guidance]\ngamma2 = 0.25\n\n"
            "[loss]\nlambda1 = 0.6\nlambda2 = 0.0\n\n"
            "[optimizer]\nlearning_rate = 0.001\nsteps = 200\nt_min = 3\n\n"
            "[synthesis]\nmethod = scatter\nbeta_direct_min = 0.1\nbeta_direct_max = 1.5\n"
            "beta_backscatter_min = 0.05\nbeta_backscatter_max = 1.0\nveil_min = 0.05\nveil_max = 0.95\n"
            "depth_min = 0.5\ndepth_max = 5.5\n\n"
            "[classifier]\nwidth = 64\nembed_dim = 8\nepochs = 200\n\n"
            "[denoiser]\nwidth = 4\n"
        )
        assert resolve_text(config) == expected
        assert parse_config_text(expected) == config

    def test_values_parse_with_sections(self):
        text = """
        [run]
        seed = 42
        [schedule]
        steps = 500
        beta_start = 1e-5
        [guidance]
        gamma2 = 0.25
        [classifier]
        epochs = 7
        """
        config = parse_config_text(text)
        assert config.seed == 42
        assert config.schedule_steps == 500
        assert config.gamma2 == 0.25
        assert config.prompt_epochs == 7

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[nope]\nkey = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[run]\nsede = 1\n")

    def test_bad_value_rejected_with_location(self):
        with pytest.raises(ConfigError, match="schedule.steps"):
            parse_config_text("[schedule]\nsteps = many\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("seed = 3\n")

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[synthesis]\nmethod = sideways\n")

    def test_load_defaults_without_file(self):
        assert load_config(None) == RunConfig()

    def test_builders_default_to_the_library_defaults(self):
        config = RunConfig()
        assert config.loss_weights() == LossWeights()
        assert config.optimizer() == OptimizerConfig()
        assert config.classifier() == JointNetConfig()
        assert config.prompt_training() == PromptTrainConfig()
        assert config.scatter_ranges() == ScatterRanges()
        assert config.guidance() == GuidanceConfig()

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text("# top\n\n[run]\n; note\nseed = 9\n")
        assert config.seed == 9

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key", [("optimizer", "learning_rate"), ("guidance", "gamma2"), ("loss", "lambda1")]
    )
    def test_non_finite_float_exits_2_naming_file_line_and_key(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and f"{section}.{key}" in err


class TestCheckpointFormat:
    def test_round_trip_preserves_tensors_and_echo(self, rng, tmp_path):
        tensors = {
            "a.weight": rng.standard_normal((3, 4)),
            "b.bias": rng.standard_normal(5),
            "scalar": np.array(3.5),
        }
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, tensors, config_echo="[run]\nseed = 1\n")
        loaded, echo = read_checkpoint(path)
        assert echo == "[run]\nseed = 1\n"
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTCKPT" + b"\x00" * 20)
        with pytest.raises(UnsupportedFormatError):
            read_checkpoint(path)

    @pytest.mark.parametrize("part", ["config echo", "tensor table"])
    def test_non_utf8_text_rejected_naming_file_and_part(self, rng, tmp_path, part):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, {"w": rng.standard_normal(8)}, config_echo="[run]\nseed = 1\n")
        blob = bytearray(path.read_bytes())
        # the echo starts after magic, version and its length; the first "w" is the tensor name
        blob[12 if part == "config echo" else blob.index(b"w")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedFormatError, match=re.escape(f"{str(path)!r} has non-UTF-8 text in its {part}")):
            read_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, rng, tmp_path):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, {"w": rng.standard_normal(8)})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(TruncatedFileError, match=re.escape(f"{str(path)!r} ends inside its tensor 'w'")):
            read_checkpoint(path)

    def test_dims_beyond_the_file_rejected_naming_tensor(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        write_checkpoint(path, {"w": np.zeros((1, 1))})
        blob = path.read_bytes()
        dims = struct.pack("<2Q", 1, 1)
        path.write_bytes(blob.replace(dims, struct.pack("<2Q", 2**32, 2**32)))  # product wraps to 0 in int64
        with pytest.raises(TruncatedFileError, match=re.escape(f"{str(path)!r} ends inside its tensor 'w'")):
            read_checkpoint(path)

    def test_deterministic_bytes(self, rng, tmp_path):
        tensors = {"w": rng.standard_normal((2, 2))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(p1, tensors, "echo")
        write_checkpoint(p2, tensors, "echo")
        assert p1.read_bytes() == p2.read_bytes()


def _write_scene_dir(directory, count, seed, size=16):
    os.makedirs(directory, exist_ok=True)
    gen = np.random.default_rng(seed)
    for i in range(count):
        data = gen.uniform(0, 1, (size, size, 3))
        save_image(RgbImage.from_array(data), os.path.join(directory, f"s{i:02d}.png"))


# every (subcommand, flag) that names a directory of images
LISTED_DIRS = [
    ("synth", "--clean"),
    ("synth", "--templates"),
    ("train-prompts", "--natural"),
    ("train-prompts", "--underwater"),
    ("enhance", "--input"),
    ("eval", "--enhanced"),
    ("eval", "--reference"),
]


# (section, key) pairs that earlier versions accepted and this one rejects
RETIRED_KEYS = [
    ("guidance", "mode"),
    ("guidance", "lambda"),
    ("guidance", "gamma1"),
    ("guidance", "grad2_source"),
    ("guidance", "reverse_variance"),
    ("loss", "embed_source"),
    ("optimizer", "linear_decay"),
    ("synthesis", "wavelength_realistic"),
    ("classifier", "token_count"),
    ("classifier", "token_width"),
    ("classifier", "text_hidden"),
    ("classifier", "learning_rate"),
    ("classifier", "holdout_fraction"),
    ("augment", "rotation"),
    ("augment", "hflip"),
    ("augment", "probability"),
    ("metrics", "psnr"),
    ("metrics", "ssim"),
    ("metrics", "uiqm"),
    ("metrics", "uciqe"),
    ("metrics", "cpbd"),
    ("metrics", "markdown"),
]
# sections whose every key is retired: the section header itself is rejected
RETIRED_SECTIONS = {"augment", "metrics"}


class TestCliContract:
    @pytest.mark.parametrize("bad", ["missing", "file", "empty"])
    @pytest.mark.parametrize("command, flag", LISTED_DIRS)
    def test_bad_image_directory_exits_2_naming_it(self, tmp_path, capsys, command, flag, bad):
        imgs = tmp_path / "imgs"
        _write_scene_dir(imgs, 2, 0)
        model = tmp_path / "model.ckpt"
        save_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width).tensors, RunConfig())
        inputs = {
            "synth": {"--clean": imgs, "--templates": imgs},
            "train-prompts": {"--natural": imgs, "--underwater": imgs},
            "enhance": {"--input": imgs, "--model": model},
            "eval": {"--enhanced": imgs, "--reference": imgs},
        }[command]
        target = inputs[flag] = tmp_path / bad
        if bad == "file":
            target.write_bytes(b"not a directory")
        elif bad == "empty":
            os.makedirs(target)
        args = [str(part) for pair in inputs.items() for part in pair]
        assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
        assert str(target) in capsys.readouterr().err

    def test_synth_success_and_rerun_identical(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "clean", 3, 0)
        _write_scene_dir(tmp_path / "tpl", 1, 1)
        args = [
            "synth",
            "--clean", str(tmp_path / "clean"),
            "--templates", str(tmp_path / "tpl"),
            "--seed", "3",
        ]
        assert main(args + ["--out", str(tmp_path / "o1")]) == 0
        assert main(args + ["--out", str(tmp_path / "o2")]) == 0
        out = capsys.readouterr().out
        assert "# seed in effect: 3" in out
        m1 = (tmp_path / "o1" / "manifest.tsv").read_bytes()
        m2 = (tmp_path / "o2" / "manifest.tsv").read_bytes()
        assert m1 == m2

    def test_synth_empty_dir_exits_2_naming_directory(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        _write_scene_dir(tmp_path / "tpl", 1, 1)
        code = main(
            [
                "synth",
                "--clean", str(tmp_path / "empty"),
                "--templates", str(tmp_path / "tpl"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        code = main(
            [
                "enhance",
                "--input", str(tmp_path / "imgs"),
                "--model", str(tmp_path / "missing.ckpt"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("section, key", [("run", "seeed"), *RETIRED_KEYS])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = 1\n")
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        code = main(
            [
                "eval",
                "--config", str(cfg),
                "--enhanced", str(tmp_path / "imgs"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        if section in RETIRED_SECTIONS:
            assert f"{cfg}:1" in err and f"unknown section [{section}]" in err
        else:
            assert f"{cfg}:2" in err and f"unknown key {key!r}" in err

    @pytest.mark.parametrize(
        "old, new, retired",
        [
            ("[guidance]\n", "[guidance]\nmode = gamma_pair\n", "'mode'"),
            ("[synthesis]\n", "[augment]\nrotation = true\n[synthesis]\n", "[augment]"),
        ],
        ids=["retired-key", "retired-section"],
    )
    def test_checkpoint_echo_with_retired_key_exits_2(self, tmp_path, capsys, old, new, retired):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        model = tmp_path / "model.ckpt"
        echo = resolve_text(RunConfig()).replace(old, new)
        named = ConditionalDenoiser(width=RunConfig().denoiser_width).tensors
        write_checkpoint(model, {name: tensor.data for name, tensor in named.items()}, echo)
        code = main(
            ["enhance", "--input", str(tmp_path / "imgs"), "--model", str(model), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{model}:echo:" in err and retired in err

    def test_manifest_paths_do_not_depend_on_the_working_directory(self, tmp_path, capsys, monkeypatch):
        work = tmp_path / "work"
        _write_scene_dir(work / "clean", 2, 0)
        _write_scene_dir(work / "tpl", 1, 1)
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[schedule]\nsteps = 5\n[optimizer]\nsteps = 2\n[denoiser]\nwidth = 2\n")
        monkeypatch.chdir(work)
        assert main(["synth", "--clean", "clean", "--templates", "tpl", "--out", os.path.join("w", "synth")]) == 0
        monkeypatch.chdir(tmp_path)
        manifest = os.path.join("work", "w", "synth", "manifest.tsv")
        assert main(["finetune", "--config", str(cfg), "--manifest", manifest, "--out", "model"]) == 0
        assert (tmp_path / "model" / "model.ckpt").exists()

    def test_v1_manifest_paths_stay_relative_to_the_working_directory(self, tmp_path, capsys, monkeypatch):
        _write_scene_dir(tmp_path / "clean", 2, 0)
        _write_scene_dir(tmp_path / "tpl", 1, 1)
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--clean", "clean", "--templates", "tpl", "--out", "synth"]) == 0
        manifest = tmp_path / "synth" / "manifest.tsv"
        text = manifest.read_text().replace("manifest v2", "manifest v1").replace("../clean/", "clean/")
        manifest.write_text(text)
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[schedule]\nsteps = 5\n[optimizer]\nsteps = 2\n[denoiser]\nwidth = 2\n")
        args = ["finetune", "--config", str(cfg), "--manifest", str(manifest), "--out", str(tmp_path / "model")]
        assert main(args) == 0
        monkeypatch.chdir(tmp_path / "synth")
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "degraded/s00.png" in err

    @pytest.mark.parametrize(
        "line, text",
        [
            (4, "d.png\tc.png\tx\t0\tcolor_transfer"),
            (4, "d.png\tc.png\t0\tx\tcolor_transfer"),
            (4, "d.png\tc.png\t0\t0"),
            (2, "# seed x"),
        ],
        ids=["template-index", "seed", "four-fields", "seed-header"],
    )
    def test_bad_manifest_field_exits_2_naming_file_and_line(self, tmp_path, capsys, line, text):
        lines = ["# uwdiff dataset manifest v2", "# seed 0", "# method color_transfer"]
        lines[line - 1 : line] = [text]
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["finetune", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert f"{manifest}:{line}:" in capsys.readouterr().err

    # PermissionError maps to exit 2 the same way; as root no file can be made unreadable to test it
    @pytest.mark.parametrize(
        "case", ["config-is-a-directory", "config-not-utf8", "manifest-not-utf8", "image-is-a-directory"]
    )
    def test_an_unreadable_input_path_exits_2_naming_it(self, tmp_path, capsys, case):
        bad = tmp_path / "bad"
        if case.endswith("not-utf8"):
            bad.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
        else:
            os.makedirs(bad / "x.png")
        argv, culprit = {
            "config-is-a-directory": (["verify", "--config", bad], bad),
            "config-not-utf8": (["verify", "--config", bad], bad),
            "manifest-not-utf8": (["finetune", "--manifest", bad, "--out", tmp_path / "out"], bad),
            "image-is-a-directory": (["eval", "--enhanced", bad, "--out", tmp_path / "out"], bad / "x.png"),
        }[case]
        assert main([str(arg) for arg in argv]) == 2
        assert str(culprit) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_finds_upper_case_png_reference(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 1, 4, size=64)
        os.makedirs(tmp_path / "refs")
        os.rename(tmp_path / "imgs" / "s00.png", tmp_path / "refs" / "s00.PNG")
        _write_scene_dir(tmp_path / "imgs", 1, 4, size=64)
        args = ["--enhanced", str(tmp_path / "imgs"), "--reference", str(tmp_path / "refs")]
        assert main(["eval", *args, "--out", str(tmp_path / "out")]) == 0
        table = (tmp_path / "out" / "metrics.tsv").read_text().splitlines()
        assert table[1].split("\t")[table[0].split("\t").index("PSNR")] == "inf"

    def test_eval_missing_reference_exits_2_naming_directory_and_image(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 2, 4, size=64)
        _write_scene_dir(tmp_path / "refs", 1, 4, size=64)
        args = ["--enhanced", str(tmp_path / "imgs"), "--reference", str(tmp_path / "refs")]
        assert main(["eval", *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "refs") in err and "'s01.png'" in err

    @pytest.mark.parametrize("command", ["synth", "enhance"])
    def test_duplicate_stems_exit_2_before_any_work(self, tmp_path, capsys, command):
        imgs = tmp_path / "imgs"
        _write_scene_dir(imgs, 2, 0)
        save_image(RgbImage.from_array(np.full((16, 16, 3), 0.5)), imgs / "s01.ppm")
        model = tmp_path / "model.ckpt"
        save_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width).tensors, RunConfig())
        args = {
            "synth": ["--clean", str(imgs), "--templates", str(imgs)],
            "enhance": ["--input", str(imgs), "--model", str(model)],
        }[command]
        assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(imgs) in err and "['s01']" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "train-prompts", "finetune", "enhance", "eval"])
    def test_bad_input_exits_2_and_leaves_no_out(self, tmp_path, capsys, command):
        paths = _guidance_inputs(tmp_path)
        missing = str(tmp_path / "missing")
        _rewrite_tensor(paths["prompts"], "prompt.natural", None)
        bad_model = tmp_path / "bad_model.ckpt"
        _echo_checkpoint(bad_model, {"synthesis.veil_max": "2"})
        args, culprit = {
            "synth": (["--clean", paths["input"], "--templates", missing], missing),
            "train-prompts": (["--natural", paths["input"], "--underwater", missing], missing),
            "finetune": (["--manifest", paths["manifest"], "--prompts", paths["prompts"]], "'prompt.natural'"),
            "enhance": (["--input", paths["input"], "--model", str(bad_model)], "synthesis.veil_max"),
            "eval": (["--enhanced", paths["input"], "--reference", str(tmp_path / "tpl")], "'s01.png'"),
        }[command]
        assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
        assert culprit in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_exits_2_before_any_work(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        out = tmp_path / "out"
        out.write_text("")
        assert main(["eval", "--enhanced", str(tmp_path / "imgs"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{str(out)!r} exists and is not a directory" in captured.err
        assert "\t" not in captured.out  # no metric table was computed

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        _write_scene_dir(tmp_path / "imgs", 1, 0, size=64)
        monkeypatch.setenv("UWDIFF_OUT", str(tmp_path / "env_out"))
        code = main(["eval", "--enhanced", str(tmp_path / "imgs")])
        assert code == 0
        assert (tmp_path / "env_out" / "metrics.tsv").exists()

    def test_eval_identical_pairs_shows_inf_psnr_and_unit_ssim(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 2, 4, size=64)
        code = main(
            [
                "eval",
                "--enhanced", str(tmp_path / "imgs"),
                "--reference", str(tmp_path / "imgs"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        table = (tmp_path / "out" / "metrics.tsv").read_text().splitlines()
        header = table[0].split("\t")
        psnr_col = header.index("PSNR")
        ssim_col = header.index("SSIM")
        for row in table[1:]:
            cells = row.split("\t")
            assert cells[psnr_col] == "inf"
            assert math.isclose(float(cells[ssim_col]), 1.0, abs_tol=1e-4)
        md = (tmp_path / "out" / "metrics.md").read_text()
        assert md.startswith("| image |")

    def test_enhance_schedule_mismatch_exits_2_naming_checkpoint_and_keys(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        model = tmp_path / "model.ckpt"
        save_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width).tensors, RunConfig())
        cfg = tmp_path / "other.cfg"
        cfg.write_text("[schedule]\nsteps = 5\nbeta_end = 0.2\n")
        code = main(
            [
                "enhance",
                "--config", str(cfg),
                "--input", str(tmp_path / "imgs"),
                "--model", str(model),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(model) in err
        assert "schedule.steps = 5 (checkpoint: 200)" in err
        assert "schedule.beta_end = 0.2 (checkpoint: 0.1)" in err
        assert "beta_start" not in err
        assert not (tmp_path / "out").exists()

    def test_diverging_chain_exits_1_naming_image_and_step(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 2, 0)
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[schedule]\nsteps = 5\n")
        config = load_config(cfg)
        denoiser = ConditionalDenoiser(width=config.denoiser_width)
        denoiser.tensors["denoiser.w2"].data[0, 0, 1, 1] = np.nan
        model = tmp_path / "model.ckpt"
        save_checkpoint(model, denoiser.tensors, config)
        code = main(
            [
                "enhance",
                "--config", str(cfg),
                "--input", str(tmp_path / "imgs"),
                "--model", str(model),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "s00.png" in err
        assert "step t=5 of 5" in err
        assert not (tmp_path / "out").exists()

    def test_verify_passes_with_exit_0(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("[pass]") == 11
        assert "[FAIL]" not in out

    def test_resolved_config_printed_before_running(self, capsys):
        main(["verify", "--seed", "1"])
        out = capsys.readouterr().out
        assert out.index("# resolved configuration") < out.index("[pass]")
        assert "[run]" in out

    def test_eval_small_images_omit_cpbd_with_a_note(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 2, 4, size=32)
        _write_scene_dir(tmp_path / "refs", 2, 5, size=32)
        args = ["--enhanced", str(tmp_path / "imgs"), "--reference", str(tmp_path / "refs")]
        assert main(["eval", *args, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        header = (tmp_path / "out" / "metrics.tsv").read_text().splitlines()[0]
        assert header.split("\t") == ["image", "PSNR", "SSIM", "UIQM", "UCIQE"]
        notes = [line for line in out.splitlines() if line.startswith("note:")]
        assert notes == ["note: no cpbd column: cpbd needs images of at least 64x64"]

    def test_eval_column_needs_every_image_to_admit_it(self, tmp_path, capsys):
        imgs = tmp_path / "imgs"
        _write_scene_dir(imgs, 1, 4, size=32)
        save_image(RgbImage.from_array(np.random.default_rng(5).uniform(0, 1, (64, 64, 3))), imgs / "big.png")
        assert main(["eval", "--enhanced", str(imgs), "--out", str(tmp_path / "out")]) == 0
        rows = [r.split("\t") for r in (tmp_path / "out" / "metrics.tsv").read_text().splitlines()]
        assert rows[0] == ["image", "UIQM", "UCIQE"]
        assert [r[0] for r in rows[1:]] == ["big.png", "s00.png", "mean"]
        assert "note: no cpbd column" in capsys.readouterr().out

    def test_eval_size_mismatch_exits_2_naming_the_pair(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 1, 4, size=32)
        _write_scene_dir(tmp_path / "refs", 1, 5, size=40)
        args = ["--enhanced", str(tmp_path / "imgs"), "--reference", str(tmp_path / "refs")]
        assert main(["eval", *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "imgs" / "s00.png") in err and str(tmp_path / "refs" / "s00.png") in err
        assert "32x32" in err and "40x40" in err


def _prompts_checkpoint(path, config: RunConfig) -> None:
    params = init_params(config.classifier(), config.seed)
    prompt_n, prompt_u = init_prompts(params.config, config.seed)
    prompts = {"prompt.natural": Tensor(prompt_n.tokens), "prompt.underwater": Tensor(prompt_u.tokens)}
    save_checkpoint(path, {**params.tensors, **prompts}, config)


def _rewrite_tensor(path, name, value) -> None:
    """Replace (or with None, drop) one tensor of a checkpoint, keeping its echo."""
    tensors, echo = read_checkpoint(path)
    if value is None:
        del tensors[name]
    else:
        tensors[name] = value
    write_checkpoint(path, tensors, echo)


class TestCheckpointLoads:
    @pytest.mark.parametrize(
        "which, name, value",
        [
            ("model", "denoiser.w2", None),
            ("model", "denoiser.b1", np.zeros(3)),
            ("prompts", "prompt.natural", None),
            ("prompts", "proj.weight", np.zeros((16, 32))),
            ("prompts", "prompt.underwater", np.zeros((77, 8))),
        ],
        ids=["model-missing", "model-shape", "prompts-missing", "params-shape", "prompt-shape"],
    )
    def test_bad_tensor_exits_2_naming_checkpoint_and_tensor(self, tmp_path, capsys, which, name, value):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        config = RunConfig(schedule_steps=2)
        ckpts = {"model": tmp_path / "model.ckpt", "prompts": tmp_path / "prompts.ckpt"}
        save_checkpoint(ckpts["model"], ConditionalDenoiser(width=config.denoiser_width).tensors, config)
        _prompts_checkpoint(ckpts["prompts"], config)
        _rewrite_tensor(ckpts[which], name, value)
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[schedule]\nsteps = 2\n[guidance]\ngamma2 = 1\n")
        args = ["--input", str(tmp_path / "imgs"), "--model", str(ckpts["model"]), "--prompts", str(ckpts["prompts"])]
        assert main(["enhance", "--config", str(cfg), *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(ckpts[which]) in err and repr(name) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cut", [9, 200])
    def test_truncated_checkpoint_exits_2_naming_it(self, tmp_path, capsys, cut):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        model = tmp_path / "model.ckpt"
        save_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width).tensors, RunConfig())
        blob = model.read_bytes()
        model.write_bytes(blob[: len(blob) - cut])
        args = ["--input", str(tmp_path / "imgs"), "--model", str(model)]
        assert main(["enhance", *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "'denoiser." in err

    def test_a_load_draws_no_weights_and_keeps_every_saved_bit(self, tmp_path, monkeypatch):
        config = RunConfig(classifier_width=8, denoiser_width=3)
        ckpts = {"model": tmp_path / "model.ckpt", "prompts": tmp_path / "prompts.ckpt"}
        save_checkpoint(ckpts["model"], ConditionalDenoiser(width=3, seed=5).tensors, config)
        _prompts_checkpoint(ckpts["prompts"], config)
        saved = {which: read_checkpoint(path)[0] for which, path in ckpts.items()}

        def draw(*args):
            raise AssertionError("a checkpoint load drew weights")

        monkeypatch.setattr(autodiff, "init_layers", draw)
        model, _ = load_model_checkpoint(ckpts["model"])
        context = joint_context_from_checkpoint(ckpts["prompts"], GuidanceConfig())
        prompts = {name: saved["prompts"].pop(name) for name in ("prompt.natural", "prompt.underwater")}
        for loaded, arrays in ((model.tensors, saved["model"]), (context.params.tensors, saved["prompts"])):
            assert list(loaded) == list(arrays)
            for name, tensor in loaded.items():
                assert (tensor.data.shape, tensor.data.tobytes()) == (arrays[name].shape, arrays[name].tobytes())
        thetas = {"prompt.natural": context.theta_natural, "prompt.underwater": context.theta_underwater}
        for name, theta in thetas.items():
            assert np.array_equal(theta, encode_prompt(PromptTensor(prompts[name]), context.params))


class TestUncheckedValues:
    @pytest.mark.parametrize("key", ["width", "embed_dim", "epochs"])
    def test_non_positive_classifier_size_exits_2_before_training(self, tmp_path, capsys, key):
        _write_scene_dir(tmp_path / "imgs", 2, 0)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[classifier]\n{key} = 0\n")
        args = ["--natural", str(tmp_path / "imgs"), "--underwater", str(tmp_path / "imgs")]
        assert main(["train-prompts", "--config", str(cfg), *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and f"classifier.{key}" in err and "must be >= 1, got 0" in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_2_naming_where_it_was_set(self, tmp_path, capsys, where):
        _write_scene_dir(tmp_path / "clean", 2, 0)
        _write_scene_dir(tmp_path / "tpl", 1, 1)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nseed = -1\n")
        seed = ["--config", str(cfg)] if where == "config" else ["--seed", "-1"]
        args = ["--clean", str(tmp_path / "clean"), "--templates", str(tmp_path / "tpl")]
        assert main(["synth", *seed, *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert (f"{cfg}:2" if where == "config" else "--seed") in err
        assert "run.seed" in err and "must be >= 0, got -1" in err
        assert not os.path.exists(tmp_path / "out")

    def test_checkpoint_echo_values_parse_the_same_way(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        model = tmp_path / "model.ckpt"
        echo = resolve_text(RunConfig()).replace("seed = 0", "seed = -1")
        named = ConditionalDenoiser(width=RunConfig().denoiser_width).tensors
        write_checkpoint(model, {name: tensor.data for name, tensor in named.items()}, echo)
        args = ["--input", str(tmp_path / "imgs"), "--model", str(model)]
        assert main(["enhance", *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{model}:echo:2" in err and "run.seed" in err


# (keys set, each to its value; the builder's message): each case exits 2 naming every key it sets
BAD_SETTINGS = [
    ({"guidance.gamma2": "-1"}, "gamma weights must be >= 0"),
    ({"loss.lambda1": "0", "loss.lambda2": "0"}, "at least one loss weight must be positive"),
    ({"optimizer.learning_rate": "-1"}, "learning rate must be >= 0"),
    ({"optimizer.steps": "0"}, "total_steps must be >= 1"),
    ({"optimizer.t_min": "500"}, "t_range (500, 200) outside 1..200"),
    ({"schedule.beta_start": "0.05", "schedule.beta_end": "0.01"}, "need 0 < beta_start <= beta_end < 1"),
    ({"schedule.steps": "0"}, "steps must be >= 1, got 0"),
    ({"denoiser.width": "0"}, "width must be >= 1, got 0"),
    ({"synthesis.veil_max": "2"}, "veil range must stay within [0, 1]"),
]


def _config_file(path, settings: dict[str, str]) -> dict[str, int]:
    """Write each "section.key" = value under its own section header; the line of each key."""
    lines, at = [], {}
    for name, value in settings.items():
        section, _, key = name.partition(".")
        lines += [f"[{section}]", f"{key} = {value}"]
        at[name] = len(lines)
    path.write_text("\n".join(lines) + "\n")
    return at


def _echo_checkpoint(path, settings: dict[str, str]) -> dict[str, int]:
    """A model checkpoint whose echo sets settings over the defaults; the echo line of each key."""
    lines, at, section = resolve_text(RunConfig()).splitlines(), {}, None
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("["):
            section = line[1:-1]
        key = line.partition(" = ")[0]
        if f"{section}.{key}" in settings:
            lines[lineno - 1] = f"{key} = {settings[f'{section}.{key}']}"
            at[f"{section}.{key}"] = lineno
    named = ConditionalDenoiser(width=RunConfig().denoiser_width).tensors
    write_checkpoint(path, {name: tensor.data for name, tensor in named.items()}, "\n".join(lines) + "\n")
    return at


class TestBounds:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: JointNetConfig(width=0), "width must be >= 1, got 0"),
            (lambda: JointNetConfig(embed_dim=0), "embed_dim must be >= 1, got 0"),
            (lambda: PromptTrainConfig(epochs=0), "epochs must be >= 1, got 0"),
            (lambda: OptimizerConfig(seed=-1), "seed must be >= 0, got -1"),
            (lambda: ScatterRanges(veil=(0.1, 2.0)), "veil range must stay within [0, 1]"),
            (lambda: RunConfig(veil_max=2.0), "veil range must stay within [0, 1]"),
            (lambda: RunConfig(train_t_min=3, schedule_steps=2), "t_range (3, 2) outside 1..2"),
        ],
        ids=["classifier-width", "embed-dim", "epochs", "seed", "veil", "run-config", "run-config-cross-key"],
    )
    def test_builder_rejects_out_of_range_value_at_construction(self, build, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("source", ["config", "echo"])
    @pytest.mark.parametrize(
        "settings, message", BAD_SETTINGS, ids=["+".join(settings) for settings, _ in BAD_SETTINGS]
    )
    def test_out_of_range_value_exits_2_naming_where_each_key_was_set(
        self, tmp_path, capsys, settings, message, source
    ):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        path, imgs = tmp_path / "bad", str(tmp_path / "imgs")
        write, args, where = {
            "config": (_config_file, ["finetune", "--config", str(path), "--manifest", str(path)], f"{path}"),
            "echo": (_echo_checkpoint, ["enhance", "--input", imgs, "--model", str(path)], f"{path}:echo"),
        }[source]
        at = write(path, settings)
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        for name, line in at.items():
            assert f"{where}:{line}: {name}" in err
        assert message in err

    def test_a_key_set_to_its_default_is_named_when_the_message_names_it(self, tmp_path):
        # an echo sets every key; resetting beta_start = 1e-05 to its default leaves the message as it is
        path = tmp_path / "bad"
        at = _echo_checkpoint(path, {"schedule.beta_start": "1e-05", "schedule.beta_end": "1e-06"})
        with pytest.raises(ConfigError) as caught:
            load_model_checkpoint(path)
        for name, line in at.items():
            assert f"{path}:echo:{line}: {name}" in str(caught.value)
        assert "need 0 < beta_start <= beta_end < 1" in str(caught.value)

    @pytest.mark.parametrize("source", ["config", "echo"])
    def test_two_bad_keys_name_only_the_key_of_the_message(self, tmp_path, source):
        path = tmp_path / "bad"
        write, load, where = {
            "config": (_config_file, load_config, f"{path}"),
            "echo": (_echo_checkpoint, load_model_checkpoint, f"{path}:echo"),
        }[source]
        line = write(path, {"guidance.gamma2": "-1", "optimizer.learning_rate": "-1"})["guidance.gamma2"]
        with pytest.raises(ConfigError) as caught:
            load(path)
        assert str(caught.value) == f"{where}:{line}: guidance.gamma2: gamma weights must be >= 0"

    def test_finetune_without_prompts_and_zero_lambda1_exits_2_before_any_work(self, tmp_path, capsys):
        paths = _guidance_inputs(tmp_path)
        cfg = tmp_path / "l1.cfg"
        cfg.write_text("[loss]\nlambda1 = 0\n")
        capsys.readouterr()
        args = ["--config", str(cfg), "--manifest", paths["manifest"], "--out", str(tmp_path / "out")]
        assert main(["finetune", *args]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: loss.lambda1 = 0" in err and "needs --prompts" in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", ["synth", "train-prompts", "finetune", "enhance", "eval", "verify"])
    def test_every_stage_rejects_a_bad_key_of_any_section_before_any_work(self, tmp_path, capsys, command):
        paths = _guidance_inputs(tmp_path)
        cfg = tmp_path / "veil.cfg"
        cfg.write_text("[synthesis]\nveil_max = 2\n")
        clean, tpl = str(tmp_path / "clean"), str(tmp_path / "tpl")
        args = {
            "synth": ["--clean", clean, "--templates", tpl],
            "train-prompts": ["--natural", clean, "--underwater", tpl],
            "finetune": ["--manifest", paths["manifest"]],
            "enhance": ["--input", paths["input"], "--model", paths["model"]],
            "eval": ["--enhanced", paths["input"]],
            "verify": [],
        }[command]
        if command != "verify":
            args += ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *args]) == 2
        assert f"{cfg}:2: synthesis.veil_max: veil range must stay within [0, 1]" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


class TestUndecodableInputs:
    def test_eval_names_the_truncated_file_once(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 2, 0)
        bad = tmp_path / "imgs" / "s01.png"
        bad.write_bytes(bad.read_bytes()[:20])
        assert main(["eval", "--enhanced", str(tmp_path / "imgs"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1 and "PNG ends inside chunk b'IHDR'" in err

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (png_blob(0, 16, 8, 2, b""), "degenerate image dimensions 0x16"),
            (png_blob(2, 2, 8, 2, b"")[:20], "PNG ends inside chunk b'IHDR'"),
        ],
        ids=["0x16", "truncated"],
    )
    @pytest.mark.parametrize("directory", ["clean", "tpl"])
    def test_synth_skips_and_records_an_undecodable_file(self, tmp_path, capsys, directory, blob, reason):
        _write_scene_dir(tmp_path / "clean", 2, 0)
        _write_scene_dir(tmp_path / "tpl", 2, 1)
        bad = tmp_path / directory / "zz.png"
        bad.write_bytes(blob)
        args = ["--clean", str(tmp_path / "clean"), "--templates", str(tmp_path / "tpl")]
        assert main(["synth", *args, "--out", str(tmp_path / "out")]) == 0
        manifest = tmp_path / "out" / "manifest.tsv"
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        skips = [line for line in manifest.read_text().splitlines() if line.startswith("# skip")]
        assert len(warnings) == 1 and len(skips) == 1
        for line in warnings + skips:
            assert line.count(str(bad)) == 1 and line.endswith(reason)
        assert len(DatasetManifest.read(manifest).entries) == 2


def _guidance_inputs(tmp_path) -> dict[str, str]:
    """A manifest, a model checkpoint and a prompts checkpoint for a 2-step schedule."""
    _write_scene_dir(tmp_path / "clean", 2, 0)
    _write_scene_dir(tmp_path / "tpl", 1, 1)
    args = ["--clean", str(tmp_path / "clean"), "--templates", str(tmp_path / "tpl")]
    assert main(["synth", *args, "--out", str(tmp_path / "synth")]) == 0
    config = RunConfig(schedule_steps=2)
    save_checkpoint(tmp_path / "model.ckpt", ConditionalDenoiser(width=config.denoiser_width).tensors, config)
    _prompts_checkpoint(tmp_path / "prompts.ckpt", config)
    return {
        "manifest": str(tmp_path / "synth" / "manifest.tsv"),
        "input": str(tmp_path / "synth" / "degraded"),
        "model": str(tmp_path / "model.ckpt"),
        "prompts": str(tmp_path / "prompts.ckpt"),
    }


class TestGuidanceSwitch:
    @pytest.mark.parametrize("prompts", [True, False], ids=["prompts", "no-prompts"])
    @pytest.mark.parametrize("command", ["finetune", "enhance"])
    def test_negative_gamma2_exits_2(self, tmp_path, capsys, command, prompts):
        paths = _guidance_inputs(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[schedule]\nsteps = 2\n[optimizer]\nsteps = 1\n[guidance]\ngamma2 = -1\n")
        args = {
            "finetune": ["--manifest", paths["manifest"]],
            "enhance": ["--input", paths["input"], "--model", paths["model"]],
        }[command]
        if prompts:
            args += ["--prompts", paths["prompts"]]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *args, "--out", str(tmp_path / "out")]) == 2
        assert "gamma weights must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_context_with_zero_gamma2_samples_the_bytes_of_no_context(self, tmp_path):
        sched = make_linear_schedule(4, 1e-3, 2e-2)
        model = ConditionalDenoiser(width=2, seed=0)
        image = RgbImage.from_array(np.random.default_rng(3).uniform(0, 1, (8, 8, 3)))
        os.makedirs(tmp_path / "in")
        save_image(image, tmp_path / "in" / "a.png")

        def directory(name, context):  # guided by the context's own weight
            (path,) = enhance_directory(tmp_path / "in", tmp_path / name, model, sched, 0, context)
            with open(path, "rb") as fh:
                return fh.read()

        def single(gamma2, context):  # guided by the weight it is given
            guidance = GuidanceConfig(gamma2=gamma2)
            return enhance_image(image, model, sched, guidance, context, stream_rng(0, 0)).data.tobytes()

        unguided = directory("none", None)
        assert directory("zero", tiny_context(0.0)) == unguided
        assert directory("strong", tiny_context(1e3)) != unguided
        unguided = single(0.0, None)
        assert single(0.0, tiny_context(1e3)) == unguided
        assert single(1e3, None) == unguided
        assert single(1e3, tiny_context(0.0)) != unguided


class TestSampler:
    def test_enhance_prints_the_sampled_steps_to_stdout_only(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 1, 0, size=8)
        model = tmp_path / "model.ckpt"
        save_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width).tensors, RunConfig())
        args = ["--input", str(tmp_path / "imgs"), "--model", str(model), "--out", str(tmp_path / "out")]
        assert main(["enhance", *args]) == 0
        out = capsys.readouterr().out
        assert "# seed in effect: 0\n# sampling 100 of 200 schedule steps\n" in out
        assert os.listdir(tmp_path / "out") == ["s00.png"]

    def test_enhance_and_verify_sample_the_sampling_schedule(self, tmp_path, monkeypatch):
        import uwdiff.cli as cli

        seen = []
        monkeypatch.setattr(cli, "enhance_directory", lambda _in, _out, _model, sched, **_: seen.append(sched) or [])
        monkeypatch.setattr(cli, "run_all", lambda seed, sched, sampling: seen.extend([sched, sampling]) or [])
        model = tmp_path / "model.ckpt"
        save_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width).tensors, RunConfig())
        assert main(["enhance", "--input", str(tmp_path), "--model", str(model), "--out", str(tmp_path / "out")]) == 0
        assert main(["verify"]) == 0
        want = RunConfig().sampling_schedule().timestep
        assert [s.timestep.tolist() for s in seen] == [want.tolist(), list(range(1, 201)), want.tolist()]

    def test_a_schedule_of_at_most_sampler_steps_is_sampled_whole(self):
        config = RunConfig(schedule_steps=SAMPLER_STEPS)
        full, sampled = config.schedule(), config.sampling_schedule()
        for name in ("beta", "alpha", "alpha_bar", "timestep"):
            assert np.array_equal(getattr(sampled, name), getattr(full, name))
        assert RunConfig().sampling_schedule().steps == SAMPLER_STEPS < RunConfig().schedule_steps
