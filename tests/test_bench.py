"""Byte accounting, growth tables, timing statistics and thread pinning."""

import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ssmocr import bench as B
from ssmocr import tensor as T
from ssmocr.config import RunConfig
from ssmocr.decoders import ArDecoder, AttentionBaselineDecoder


@pytest.fixture
def desk_cfg():
    return RunConfig()  # desk preset: d=64, n=16, expand=2, layers=4


class TestCacheBytes:
    def test_mamba_constant_factor_one(self, desk_cfg):
        b100 = B.mamba_cache_bytes(desk_cfg, 100)
        b1000 = B.mamba_cache_bytes(desk_cfg, 1000)
        assert b1000 == b100
        assert b1000 / b100 == 1.0

    def test_mamba_closed_form(self, desk_cfg):
        d_inner = desk_cfg.expand * desk_cfg.d_model
        expect = desk_cfg.layers * (d_inner * desk_cfg.n_state + 3 * d_inner) * 4
        assert B.mamba_cache_bytes(desk_cfg, 1) == expect
        assert expect > 0

    def test_mamba_matches_actual_state(self, desk_cfg):
        dec = ArDecoder(desk_cfg.d_model, 20, n_layers=desk_cfg.layers,
                        n_state=desk_cfg.n_state, expand=desk_cfg.expand,
                        rng=np.random.default_rng(0))
        states = dec.start_stream(np.zeros((7, desk_cfg.d_model), dtype=np.float32))
        assert sum(s.nbytes for s in states) == B.mamba_cache_bytes(desk_cfg, 1)

    def test_attention_affine_formula(self, desk_cfg):
        prefill = 200
        b100 = B.attention_cache_bytes(desk_cfg, prefill, 100)
        b1000 = B.attention_cache_bytes(desk_cfg, prefill, 1000)
        assert b1000 / b100 == (prefill + 1000) / (prefill + 100)

    def test_attention_matches_actual_cache(self, desk_cfg):
        dec = AttentionBaselineDecoder(desk_cfg.d_model, 20,
                                       n_layers=desk_cfg.layers, n_heads=4,
                                       rng=np.random.default_rng(1))
        prefill = 9
        gen = dec.generate(np.zeros((prefill, desk_cfg.d_model), dtype=np.float32),
                           max_len=5, force_ids=[4] * 5)
        assert gen.cache_bytes == B.attention_cache_bytes(desk_cfg, prefill, 5)

    def test_zero_length_rejected(self, desk_cfg):
        with pytest.raises(ValueError):
            B.mamba_cache_bytes(desk_cfg, 0)


class TestGrowthTable:
    def test_single_model_single_length(self, desk_cfg):
        table = B.growth_table([("m", lambda t: B.mamba_cache_bytes(desk_cfg, t))],
                               lengths=[100])
        assert [r.factor for r in table.rows] == [1.0]

    def test_mamba_factors_at_most_1p05(self, desk_cfg):
        table = B.growth_table([("mamba-ar", lambda t: B.mamba_cache_bytes(desk_cfg, t))])
        assert all(f <= 1.05 for f in table.factors("mamba-ar").values())

    def test_attention_factors_strictly_increasing(self, desk_cfg):
        table = B.growth_table(
            [("attn", lambda t: B.attention_cache_bytes(desk_cfg, 200, t))])
        factors = [table.factors("attn")[n] for n in B.DEFAULT_LENGTHS]
        assert all(b > a for a, b in zip(factors, factors[1:]))

    def test_unsorted_lengths_rejected(self, desk_cfg):
        with pytest.raises(ValueError):
            B.growth_table([("m", lambda t: 1)], lengths=[300, 100])

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError):
            B.growth_table([])

    def test_csv_and_plot_data(self, tmp_path, desk_cfg):
        table = B.growth_table(
            [("mamba-ar", lambda t: B.mamba_cache_bytes(desk_cfg, t)),
             ("attn", lambda t: B.attention_cache_bytes(desk_cfg, 200, t))])
        table.write_csv(tmp_path / "g.csv")
        table.write_plot_data(tmp_path / "g.dat")
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "model,length,bytes,factor"
        assert len(lines) == 1 + 8
        dat = (tmp_path / "g.dat").read_text()
        assert "# mamba-ar" in dat and "# attn" in dat
        assert "\n\n" in dat  # series separated by a blank block

    def test_accounting_pure(self, desk_cfg):
        a = B.mamba_cache_bytes(desk_cfg, 123)
        b = B.mamba_cache_bytes(desk_cfg, 123)
        assert a == b


class TestTiming:
    def test_slope_fit_flat_and_rising(self):
        flat = B.fit_step_slope(np.full(200, 1e-4))
        assert flat.flat and flat.slope == pytest.approx(0.0, abs=1e-18)
        rising = B.fit_step_slope(np.linspace(1e-4, 3e-4, 200))
        assert rising.slope > 0
        steep = B.fit_step_slope(np.linspace(1e-4, 3e-2, 200))
        assert not steep.flat  # per-step drift above 5% of the base cost

    def test_slope_standard_error_on_a_noisy_line(self):
        n, slope, sigma = 500, 2e-9, 1e-6
        t = np.arange(n)
        sxx = float(((t - t.mean()) ** 2).sum())
        rng = np.random.default_rng(0)
        fits = [B.fit_step_slope(7e-4 + slope * t + rng.normal(0.0, sigma, n))
                for _ in range(400)]
        ses = np.array([f.slope_se for f in fits])
        # each fit's error estimate matches the closed form sigma / sqrt(Sxx) ...
        assert np.allclose(ses, sigma / np.sqrt(sxx), rtol=0.2)
        # ... and the spread of the fitted slopes around the true one
        errors = np.array([f.slope for f in fits]) - slope
        assert np.std(errors) == pytest.approx(np.mean(ses), rel=0.15)
        assert abs(np.mean(errors)) < 4 * np.mean(ses) / np.sqrt(len(fits))

    def test_slope_standard_error_edges(self):
        exact = B.fit_step_slope(np.linspace(1e-4, 3e-4, 200))
        assert exact.slope_se == pytest.approx(0.0, abs=1e-15)
        assert B.fit_step_slope(np.array([1e-4, 2e-4])).slope_se == float("inf")

    def test_single_thread_guard(self, monkeypatch):
        monkeypatch.setenv("SSMOCR_THREADS", "4")
        with pytest.raises(B.BenchConfigError, match="SSMOCR_THREADS=4"):
            B.require_single_thread()

    def test_encoder_latency_monotone_in_width(self):
        from ssmocr.encoder import ConvEncoder

        enc = ConvEncoder(16, (4, 4, 8, 8), ((2, 2), (2, 2), (2, 2), (2, 2), (2, 1)),
                          rng=np.random.default_rng(0))
        enc.training = False
        narrow = np.zeros((32, 128), dtype=np.float32)
        wide = np.zeros((32, 256), dtype=np.float32)

        def timed_s(img):  # one warm-up, then 3 timed runs
            enc.forward(img)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                enc.forward(img)
                times.append(time.perf_counter() - t0)
            return times

        narrow_s, wide_s = [], []
        gc.disable()
        try:
            with T.no_grad():
                for _ in range(9):  # alternate widths so a slow spell hits both
                    narrow_s += timed_s(narrow)
                    wide_s += timed_s(wide)
        finally:
            gc.enable()
        # load only ever inflates a run, so the fastest of the 27 is the cost
        assert min(wide_s) > min(narrow_s)


# after the timing tests: run just before them, its subprocess slowed their medians
class TestThreadPinning:
    def test_live_thread_guard(self, monkeypatch):
        monkeypatch.setattr(B, "live_threads", lambda: 3)
        with pytest.raises(B.BenchConfigError, match="3 threads are live"):
            B.require_single_thread()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count threads")
    def test_import_pins_blas_to_one_thread(self):
        thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                       "NUMEXPR_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in thread_vars}
        env["SSMOCR_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(B.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
        code = ("import ssmocr, os, numpy as np\n"
                "a = np.ones((256, 256))\n"
                "a @ a\n"
                "print(len(os.listdir('/proc/self/task')))\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "1"
