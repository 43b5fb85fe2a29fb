"""End-to-end CLI behaviour: commands, exit codes, file outputs."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ssmocr.cli import _load_run_config, build_parser
from ssmocr.pgm import write_pgm
from ssmocr.synth import GlyphSet, render_line


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ssmocr", *argv],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset + a quickly trained tiny checkpoint, shared by CLI tests."""
    td = tmp_path_factory.mktemp("cliwork")
    r = run_cli("synth", "--out", str(td / "data"), "--n", "8",
                "--min-chars", "4", "--max-chars", "8", "--scale", "2",
                "--splits", "1.0", "0.0", "0.0", "--seed", "3")
    assert r.returncode == 0, r.stderr
    cfg = td / "run.cfg"
    cfg.write_text(
        "# tiny smoke config\n"
        "model.kind = mamba-ctc\n"
        "model.d = 16\n"
        "model.n_state = 4\n"
        "model.layers = 2\n"
        "encoder.channels = 4,4,8,8\n"
        "train.batch_size = 2\n"
        "train.max_steps = 6\n"
        "train.eval_every = 0\n"
        "optim.lr = 0.001\n"
        f"data.train_manifest = {td / 'data' / 'train.tsv'}\n"
        f"out.dir = {td / 'run'}\n"
    )
    r = run_cli("train", "--config", str(cfg))
    assert r.returncode == 0, r.stderr
    return td


class TestHelp:
    def test_top_level_help(self):
        r = run_cli("--help")
        assert r.returncode == 0
        for cmd in ("synth", "train", "eval", "decode", "bench", "rover"):
            assert cmd in r.stdout

    @pytest.mark.parametrize("cmd", ["synth", "train", "eval", "decode",
                                     "bench", "rover"])
    def test_subcommand_help(self, cmd):
        r = run_cli(cmd, "--help")
        assert r.returncode == 0
        assert "usage" in r.stdout.lower()

    def test_unknown_command_usage_error(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2


class TestSynth:
    def test_reports_split_sizes(self, tmp_path):
        r = run_cli("synth", "--out", str(tmp_path / "d"), "--n", "10",
                    "--scale", "2", "--min-chars", "3", "--max-chars", "6")
        assert r.returncode == 0
        assert "train: 8" in r.stdout
        assert (tmp_path / "d" / "train.tsv").exists()

    @pytest.mark.parametrize("args,field", [
        (("--min-chars", "0"), "line_chars"),
        (("--splits", "1.2", "-0.1", "-0.1"), "splits"),
    ])
    def test_unusable_setting_named_before_writing(self, tmp_path, args, field):
        r = run_cli("synth", "--out", str(tmp_path / "d"), "--n", "4", *args)
        assert r.returncode == 1
        assert field in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "d").exists()


class TestTrainEvalDecode:
    def test_eval_writes_reports(self, workdir):
        r = run_cli("eval", "--checkpoint", str(workdir / "run" / "last.ckpt"),
                    "--manifest", str(workdir / "data" / "train.tsv"),
                    "--out-dir", str(workdir / "eval"))
        assert r.returncode == 0, r.stderr
        assert "CER:" in r.stdout
        assert (workdir / "eval" / "per_sample.csv").exists()
        assert (workdir / "eval" / "summary.txt").exists()

    def test_decode_order_preserved_and_idempotent(self, workdir, tmp_path):
        gs = GlyphSet(scale=2)
        paths = []
        for k, text in enumerate(["abc", "de", "fgh"]):
            p = tmp_path / f"img{k}.pgm"
            write_pgm(p, render_line(text, gs, height_px=32))
            paths.append(str(p))
        ckpt = str(workdir / "run" / "last.ckpt")
        r1 = run_cli("decode", "--checkpoint", ckpt, *paths)
        r2 = run_cli("decode", "--checkpoint", ckpt, *paths)
        assert r1.returncode == 0
        assert len(r1.stdout.splitlines()) == 3
        assert r1.stdout == r2.stdout

    def test_decode_no_images_usage_error(self, workdir):
        r = run_cli("decode", "--checkpoint", str(workdir / "run" / "last.ckpt"))
        assert r.returncode == 2
        assert "usage" in r.stderr.lower()

    def test_decode_unreadable_image_continues(self, workdir, tmp_path):
        good = tmp_path / "ok.pgm"
        write_pgm(good, render_line("ab", GlyphSet(scale=2), height_px=32))
        bad = tmp_path / "missing.pgm"
        short = tmp_path / "short.pgm"
        short.write_bytes(b"P5\n3")  # header ends before the height
        r = run_cli("decode", "--checkpoint", str(workdir / "run" / "last.ckpt"),
                    str(bad), str(short), str(good))
        assert r.returncode == 1
        assert "missing.pgm" in r.stderr
        assert str(short) in r.stderr
        assert "Traceback" not in r.stderr
        assert len(r.stdout.splitlines()) == 1  # the good image still decoded

    def test_train_unknown_config_key(self, workdir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.kind = mamba-ctc\nmodel.depth = 4\n")
        r = run_cli("train", "--config", str(cfg))
        assert r.returncode == 1
        assert "model.depth" in r.stderr

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.d = 16\nseed = 1\nout.dir = runs/é\n", encoding="utf-8")
        args = build_parser().parse_args(
            ["train", "--config", str(cfg), "--set", "model.d=32"])
        run = _load_run_config(args)
        assert (run.d_model, run.seed, run.out_dir) == (32, 1, "runs/é")


class TestBench:
    def test_default_growth_rows(self, tmp_path):
        r = run_cli("bench", "--out-dir", str(tmp_path / "b"))
        assert r.returncode == 0, r.stderr
        csv_lines = (tmp_path / "b" / "growth.csv").read_text().splitlines()
        assert csv_lines[0] == "model,length,bytes,factor"
        lengths = sorted({int(l.split(",")[1]) for l in csv_lines[1:]})
        assert lengths == [100, 300, 600, 1000]
        assert (tmp_path / "b" / "growth.dat").exists()

    def test_environment_written_beside_growth(self, tmp_path):
        r = run_cli("bench", "--out-dir", str(tmp_path / "b"))
        assert r.returncode == 0, r.stderr
        env = json.loads((tmp_path / "b" / "env.json").read_text())
        assert set(env) == {"nproc", "python", "numpy", "blas", "SSMOCR_THREADS",
                            "live_threads"}
        assert env["live_threads"] == 1
        assert env["SSMOCR_THREADS"] == 1
        assert env["numpy"] == np.__version__

    def test_mamba_factor_bounded_attention_increasing(self, tmp_path):
        r = run_cli("bench", "--out-dir", str(tmp_path / "b"))
        assert r.returncode == 0
        rows = [l.split(",") for l in
                (tmp_path / "b" / "growth.csv").read_text().splitlines()[1:]]
        mamba = [float(x[3]) for x in rows if x[0] == "mamba-ar"]
        attn = [float(x[3]) for x in rows if x[0] == "attn-ar-baseline"]
        assert all(f <= 1.05 for f in mamba)
        assert all(b > a for a, b in zip(attn, attn[1:]))

    def test_thread_pinning_conflict_refused(self, tmp_path):
        import os
        env = dict(os.environ, SSMOCR_THREADS="8")
        r = subprocess.run(
            [sys.executable, "-m", "ssmocr", "bench", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert r.returncode == 1
        assert "single-thread" in r.stderr


class TestRover:
    def write(self, tmp_path, name, lines):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(p)

    def test_weighted_vote_across_files(self, tmp_path):
        f1 = self.write(tmp_path, "a.txt", ["abc", "xyz"])
        f2 = self.write(tmp_path, "b.txt", ["abc", "xyw"])
        f3 = self.write(tmp_path, "c.txt", ["abd", "xyw"])
        r = run_cli("rover", f1, f2, f3, "--weights", "5,3,3")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["abc", "xyw"]

    def test_single_file_cat(self, tmp_path):
        f1 = self.write(tmp_path, "one.txt", ["hello", "world"])
        r = run_cli("rover", f1)
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["hello", "world"]

    def test_line_count_mismatch(self, tmp_path):
        f1 = self.write(tmp_path, "a.txt", ["one"])
        f2 = self.write(tmp_path, "b.txt", ["one", "two"])
        r = run_cli("rover", f1, f2)
        assert r.returncode != 0
        assert "a.txt" in r.stderr and "b.txt" in r.stderr
        assert "1" in r.stderr and "2" in r.stderr

    def test_weight_count_mismatch_usage(self, tmp_path):
        f1 = self.write(tmp_path, "a.txt", ["x"])
        r = run_cli("rover", f1, "--weights", "1,2")
        assert r.returncode == 2
