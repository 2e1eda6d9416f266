import math
import os
import re
import struct

import numpy as np
import pytest

from uwdiff.checkpoint import read_checkpoint, write_checkpoint
from uwdiff.cli import main
from uwdiff.config import RunConfig, load_config, parse_config_text, resolve_text
from uwdiff.denoiser import ConditionalDenoiser
from uwdiff.diffusion import GuidanceConfig
from uwdiff.errors import ConfigError, TruncatedFileError, UnsupportedFormatError
from uwdiff.images import RgbImage
from uwdiff.imageio import save_image
from uwdiff.jointnet import JointNetConfig, PromptTrainConfig, init_params, init_prompts
from uwdiff.pipeline import save_model_checkpoint, save_prompts_checkpoint
from uwdiff.synthesis import ScatterRanges
from uwdiff.training import LossWeights, OptimizerConfig


class TestConfigParsing:
    def test_defaults_round_trip_through_render(self):
        config = RunConfig()
        parsed = parse_config_text(resolve_text(config))
        assert parsed == config

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
        # the schedule is left out: RunConfig().schedule() differs from
        # default_schedule(200) in the last bits of beta
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
        save_model_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width), RunConfig())
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
        named = ConditionalDenoiser(width=RunConfig().denoiser_width).named_tensors()
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
        save_model_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width), RunConfig())
        args = {
            "synth": ["--clean", str(imgs), "--templates", str(imgs)],
            "enhance": ["--input", str(imgs), "--model", str(model)],
        }[command]
        assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(imgs) in err and "['s01']" in err
        assert os.listdir(tmp_path / "out") == []

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
        save_model_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width), RunConfig())
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
        assert os.listdir(tmp_path / "out") == []

    def test_diverging_chain_exits_1_naming_image_and_step(self, tmp_path, capsys):
        _write_scene_dir(tmp_path / "imgs", 2, 0)
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[schedule]\nsteps = 5\n")
        config = load_config(cfg)
        denoiser = ConditionalDenoiser(width=config.denoiser_width)
        denoiser.w2.data[0, 0, 1, 1] = np.nan
        model = tmp_path / "model.ckpt"
        save_model_checkpoint(model, denoiser, config)
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
        assert os.listdir(tmp_path / "out") == []

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
    save_prompts_checkpoint(path, params, *init_prompts(params.config, config.seed), config)


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
        save_model_checkpoint(ckpts["model"], ConditionalDenoiser(width=config.denoiser_width), config)
        _prompts_checkpoint(ckpts["prompts"], config)
        _rewrite_tensor(ckpts[which], name, value)
        cfg = tmp_path / "short.cfg"
        cfg.write_text("[schedule]\nsteps = 2\n[guidance]\ngamma2 = 1\n")
        args = ["--input", str(tmp_path / "imgs"), "--model", str(ckpts["model"]), "--prompts", str(ckpts["prompts"])]
        assert main(["enhance", "--config", str(cfg), *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(ckpts[which]) in err and repr(name) in err
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("cut", [9, 200])
    def test_truncated_checkpoint_exits_2_naming_it(self, tmp_path, capsys, cut):
        _write_scene_dir(tmp_path / "imgs", 1, 0)
        model = tmp_path / "model.ckpt"
        save_model_checkpoint(model, ConditionalDenoiser(width=RunConfig().denoiser_width), RunConfig())
        blob = model.read_bytes()
        model.write_bytes(blob[: len(blob) - cut])
        args = ["--input", str(tmp_path / "imgs"), "--model", str(model)]
        assert main(["enhance", *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(model) in err and "'denoiser." in err
