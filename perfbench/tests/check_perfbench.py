"""Tests of the benchmark's own code.

The file name does not match pytest's test_*.py pattern, so the package's
test suite does not collect it.  Run it explicitly:

    python3 -m pytest -q perfbench/tests/check_perfbench.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wk  # noqa: E402
from perfbench.report import result_line  # noqa: E402
from perfbench.tracing import Tracer, install_paprlab  # noqa: E402

TINY_TRAIN = {
    "system": {"n_subcarriers": 8, "oversampling": 4},
    "model": {"enc_channels": [4, 3], "dec_channels": [3, 4], "fc_hidden": [24, 32]},
    "train": {"batch_size": 8},
}
TINY_EVAL = dict(TINY_TRAIN, **{
    "eval": {"p_snr_db": [8.0, 14.0], "ber_symbols": 400, "ccdf_symbols": 600,
             "psd_symbols": 400, "table_symbols": 400, "batch": 200,
             "obo_acpr_ibo_db": [2.0, 5.0]},
    "slm": {"num_sequences": 8},
})


class TestTail:
    @pytest.mark.parametrize("n, want", [(150, 93), (40, 75), (20, 50), (19, 100), (3, 100)])
    def test_percentile_choice(self, n, want):
        assert wk.tail_percentile(n) == want

    @pytest.mark.parametrize("n", [20, 37, 150, 1000])
    def test_ten_samples_beyond(self, n):
        values = list(range(n))
        p = wk.tail_percentile(n)
        tail = wk.percentile(values, p)
        assert sum(v > tail for v in values) >= 10
        # one percentile higher leaves fewer than ten beyond
        assert sum(v > wk.percentile(values, p + 1) for v in values) < 10

    def test_short_sample_uses_maximum(self):
        assert wk.percentile([3.0, 1.0, 2.0], wk.tail_percentile(3)) == 3.0


class TestSelfTime:
    def test_nested_spans(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0, 11.0, 12.0])
        tr = Tracer(clock=lambda: next(ticks))
        outer, inner = tr.label_id("outer"), tr.label_id("inner")
        a = tr.begin(outer)          # 0
        b = tr.begin(inner)          # 1
        tr.finish(b)                 # 3
        c = tr.begin(inner)          # 4
        tr.finish(c)                 # 5
        tr.finish(a)                 # 10
        tr.group = 1
        d = tr.begin(inner)          # 11
        tr.finish(d)                 # 12
        rows = tr.per_group()
        # [inclusive, self, top-level]
        assert rows[0]["outer"] == [10.0, 7.0, 10.0]
        assert rows[0]["inner"] == [3.0, 3.0, 0.0]
        assert rows[1]["inner"] == [1.0, 1.0, 1.0]

    def test_span_closed_when_call_raises(self):
        tr = Tracer()

        def boom():
            raise KeyError("x")
        with pytest.raises(KeyError):
            tr.call(tr.label_id("boom"), boom)
        assert tr._stack == [] and tr.span_end[0] >= tr.span_start[0]


def _originals(pkg):
    return {
        "conv1d": pkg.autodiff.conv1d, "selu": pkg.autodiff.selu,
        "_add": pkg.autodiff._add, "backward": vars(pkg.autodiff.Tensor)["backward"],
        "step": vars(pkg.optim.AdamW)["step"], "encode": vars(pkg.models.CaeModel)["encode"],
        "train_psd": pkg.training.psd, "harness_psd": pkg.harness.psd,
        "transmit": vars(pkg.harness._MethodBank)["transmit"],
        "run_chain": pkg.training.run_chain,
    }


class TestRestore:
    def test_install_then_restore(self):
        pkg = wk.import_paprlab()
        before = _originals(pkg)
        tracer = install_paprlab(Tracer(), pkg)
        assert tracer.missing == []
        assert pkg.autodiff.conv1d is not before["conv1d"]
        assert pkg.training.psd is not before["train_psd"]
        tracer.restore()
        assert _originals(pkg) == before

    @pytest.mark.parametrize("name", ["train-cae", "eval-suite"])
    def test_traced_run_leaves_package_unwrapped(self, tmp_path, name):
        overrides = TINY_EVAL if name == "eval-suite" else TINY_TRAIN
        wk.run_workload(name, 3, 0.0, True, tmp_path, overrides)
        modules = sys.modules
        assert modules["paprlab.autodiff"].conv1d.__qualname__ == "conv1d"
        assert modules["paprlab.training"].qam4_map.__qualname__ == "qam4_map"
        assert modules["paprlab.harness"]._MethodBank.transmit.__qualname__ == \
            "_MethodBank.transmit"


class TestWorkloads:
    @pytest.mark.parametrize("name", ["train-cae", "train-fcae", "eval-suite"])
    @pytest.mark.parametrize("trace", [False, True])
    def test_runs_end_to_end(self, tmp_path, name, trace):
        overrides = TINY_EVAL if name == "eval-suite" else TINY_TRAIN
        result = wk.run_workload(name, 5, 0.0, trace, tmp_path, overrides)
        assert result.failed == 0, [c for c in result.checks if not c[1]]
        assert result.attempted >= wk.WORKLOADS[name].prefix_ops
        if trace:
            want = [n for n, _ in wk.per_layer_names()]
            assert "trace.same_digest" in [c[0] for c in result.checks]
        else:
            want = ["setup_s", "samples_per_s", "step_ms_p50", "step_ms_tail", "peak_rss_mb"]
            assert all(result.metrics[m][0] > 0 for m in want)
        assert sorted(result.metrics) == sorted(want)
        assert result_line(result).startswith('{"correct": true')

    @pytest.mark.parametrize("name", ["train-fcae", "eval-suite"])
    def test_same_seed_same_digest(self, tmp_path, name):
        overrides = TINY_EVAL if name == "eval-suite" else TINY_TRAIN
        a = wk.run_workload(name, 9, 0.0, False, tmp_path / "a", overrides)
        b = wk.run_workload(name, 9, 0.0, False, tmp_path / "b", overrides)
        c = wk.run_workload(name, 10, 0.0, False, tmp_path / "c", overrides)
        assert a.detail["digest"] == b.detail["digest"] != c.detail["digest"]

    def test_exact_counts_repeat(self, tmp_path):
        runs = [wk.run_workload("eval-suite", 4, 0.0, True, tmp_path / str(i), TINY_EVAL)
                for i in range(2)]
        for name in ("harness.tx_symbols.slm", "models.load_checkpoint_calls",
                     "baselines.slm_candidates_per_symbol", "autodiff.live_tensors"):
            assert runs[0].metrics[name] == runs[1].metrics[name]
        assert runs[0].metrics["models.load_checkpoint_calls"][0] == 5
        assert runs[0].metrics["baselines.slm_candidates_per_symbol"][0] == 8

    def test_live_tensors_repeat_in_training(self, tmp_path):
        runs = [wk.run_workload("train-cae", 4, 0.0, True, tmp_path, TINY_TRAIN)
                for _ in range(2)]
        counts = [r.metrics["autodiff.live_tensors"][0] for r in runs]
        assert counts[0] == counts[1] > 0
