"""The benchmark's workloads: what each runs, how it is timed and checked.

Every workload drives paprlab only through its public functions
(``training.train``, ``harness.eval_*``, ``harness.build_model_from_config``,
``models.save_checkpoint``) and times it from outside.  One op is one training
step or one eval command.  A run repeats ops for a fixed wall-clock window;
besides that, every run completes a fixed prefix of ops (``prefix_ops``) on
which the seed-determined outputs are digested and the memory figures taken,
so those do not depend on how fast the machine is.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .tracing import NAMED_OPS, Patcher, Tracer, install_paprlab

__all__ = ["Workload", "WORKLOADS", "RunResult", "run_workload", "tail_percentile",
           "percentile", "per_layer_names"]

clock = time.perf_counter

SETUP_REPEATS = 7        # set-ups per untraced run; setup_s is their median
WARMUP_STEPS = 2         # first training steps left out of the step statistics
TAIL_BEYOND = 10         # samples a tail percentile must have beyond it
LOSS_WINDOW = 10         # steps averaged at each end of a run by the loss check
EVAL_SCALE = 0.02        # common factor on every *_symbols count of eval-suite
EVAL_METHODS = ("none", "cf", "slm", "cae")
EVAL_COMMANDS = (("ber", "eval_ber"), ("ccdf", "eval_ccdf"), ("psd", "eval_psd"),
                 ("table", "eval_table"), ("obo_acpr", "eval_obo_vs_acpr"))
_MODULES = ("autodiff", "optim", "models", "chain", "training", "harness", "config",
            "metrics", "baselines", "ofdm", "seeding", "curvefile")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "eval"
    arch: str | None       # model trained by a train workload
    prefix_ops: int        # ops every run completes (steps, or eval suites)
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("train-cae", "train", "cae", 40,
             "stock CAE training step, stage-2 loss, batch 32: the 33 h default run; "
             "AdamW plus conv1d/linear/batch_norm/selu"),
    Workload("train-fcae", "train", "fc_ae", 20,
             "FC-AE step: no conv1d or batch_norm, so it bypasses conv changes; "
             "AdamW over 21.8M params on arrays far larger than cache"),
    Workload("eval-suite", "eval", None, 1,
             "the five eval commands for none/cf/slm/cae at 2% of default sizes, batch 500: "
             "forward only, no optimizer; SLM and CAE transmit dominate"),
)}


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)      # (name, ok, detail)
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    detail: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1


# -- statistics ------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile with at least `beyond` of n samples above it.

    Below 2*beyond samples no percentile at or above the median qualifies;
    the tail is then the maximum, reported as percentile 100.
    """
    if n < 2 * beyond:
        return 100
    return math.floor(100 * (n - beyond) / n)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- program under test ------------------------------------------------------------


def import_paprlab() -> SimpleNamespace:
    """Import paprlab afresh, so that each set-up pays the package import."""
    for name in [m for m in sys.modules if m == "paprlab" or m.startswith("paprlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"paprlab.{m}") for m in _MODULES})


def _merge(base: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def make_config(pkg, wl: Workload, seed: int, out_dir: Path, overrides: dict | None):
    """The workload's experiment config: paprlab's defaults, sized for a run."""
    data = pkg.config.config_to_dict(pkg.config.default_config())
    data["seed"] = seed
    data["output_dir"] = str(out_dir)
    if wl.kind == "eval":
        for key in ("ber_symbols", "ccdf_symbols", "psd_symbols", "table_symbols"):
            data["eval"][key] = max(1, round(data["eval"][key] * EVAL_SCALE))
        data["methods"] = list(EVAL_METHODS)
    else:
        # stage 2 (all three loss terms) from the first step; an epoch is
        # longer than any run, so the data pool stays small.
        data["train"].update(epochs=1000, batches_per_epoch=250, schedule="fixed",
                             stage1_epochs=0)
    return pkg.config.config_from_dict(_merge(data, overrides or {}))


def _live_tensors(pkg) -> int:
    tensor = pkg.autodiff.Tensor
    return sum(1 for obj in gc.get_objects() if type(obj) is tensor)


def _src_lines(pkg) -> int:
    root = Path(pkg.config.__file__).parent
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in root.glob("*.py"))


def environment(pkg) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "build_id": pkg.config.build_id(),
        "src_paprlab_lines": _src_lines(pkg),
    }


# -- training ------------------------------------------------------------------------


class _Stop(Exception):
    """Raised at a step boundary to end a training run early."""


class _TrainPhase:
    """One call of training.train, cut into steps at each data draw.

    A step runs from one call of ``training.qam4_map`` (the first thing the
    loop does for a batch) to the next, so it covers data, chain, loss,
    backward, optimizer and the per-step monitor metrics.
    """

    def __init__(self, wl: Workload, seed: int, seconds: float, overrides, tracer,
                 setup_only: bool, workdir: Path):
        self.wl, self.seconds, self.tracer, self.setup_only = wl, seconds, tracer, setup_only
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.losses: list[float] = []
        self.live: list[int] = []
        self.prefix_rss = None
        self.error = None
        self.setup_end = None

        t0 = clock()
        pkg = self.pkg = import_paprlab()
        if tracer is not None:
            install_paprlab(tracer, pkg)
        cfg = make_config(pkg, wl, seed, Path("."), overrides)
        model = pkg.harness.build_model_from_config(cfg, wl.arch)
        spectral = pkg.metrics.SpectralParams(bw_bins=cfg.system.n_subcarriers,
                                              acpr_req_db=cfg.acpr_req_db)
        self.batch_size = cfg.train.batch_size
        hooks = Patcher()
        hooks.patch(pkg.training, "qam4_map", self._step_hook)
        hooks.patch(pkg.training, "joint_loss", self._loss_hook)
        try:
            pkg.training.train(model, cfg.train, cfg.loss, cfg.hpa, spectral,
                               seed=pkg.seeding.derive_seed(cfg.seed, f"train/{wl.arch}"))
        except _Stop:
            pass
        except Exception as err:  # the program failed: report it as a failed op
            traceback.print_exc(file=sys.stderr)
            self.error = f"{type(err).__name__}: {err}"
        finally:
            hooks.restore()
        if self.setup_end is None:
            raise RuntimeError(f"training stopped before its first step: {self.error}")
        if len(self.ends) < len(self.starts):
            self.ends.append(clock())
        self.setup_s = self.setup_end - t0

    def _step_hook(self, fn):
        def boundary(*args, **kwargs):
            now = clock()
            done = len(self.starts)
            if done == 0:
                self.setup_end = now
                if self.setup_only:
                    raise _Stop
            else:
                self.ends.append(now)
                if done == self.wl.prefix_ops:
                    self.prefix_rss = _maxrss_mb()
                if self.tracer is not None and done <= self.wl.prefix_ops:
                    self.live.append(_live_tensors(self.pkg))
                if done >= self.wl.prefix_ops and now - self.starts[0] >= self.seconds:
                    raise _Stop
            if self.tracer is not None:
                self.tracer.group = done + 1
            self.starts.append(clock())
            return fn(*args, **kwargs)
        return boundary

    def _loss_hook(self, fn):
        def capture(*args, **kwargs):
            loss, parts = fn(*args, **kwargs)
            self.losses.append(loss.item())
            return loss, parts
        return capture

    @property
    def attempted(self) -> int:
        return len(self.starts)

    @property
    def ops(self) -> list[float]:
        """Step times, warm-up steps left out."""
        return [e - s for s, e in zip(self.starts, self.ends)][WARMUP_STEPS:]

    def samples_per_s(self) -> float:
        return self.batch_size * len(self.ops) / sum(self.ops)

    def digest(self) -> str:
        prefix = np.array(self.losses[:self.wl.prefix_ops], dtype=np.float64)
        return hashlib.sha256(prefix.tobytes()).hexdigest()[:16]

    def detail(self) -> dict:
        return {"steps": len(self.starts), "warmup_steps": WARMUP_STEPS,
                "prefix_steps": self.wl.prefix_ops,
                "loss_first_last": [self.losses[0], self.losses[-1]] if self.losses else None}

    def layers(self, tracer: Tracer, plain_ops: list[float]) -> dict:
        steps = range(WARMUP_STEPS, len(self.ends))
        walls = [self.ends[i] - self.starts[i] for i in steps]
        live = statistics.median_low(self.live) if self.live else 0
        return _layer_metrics(tracer, [i + 1 for i in steps], walls, self.ops, plain_ops, live)

    def checks(self, result: RunResult, seed: int):
        if self.error is not None:
            result.check("train.completed", False, self.error)
        result.check("train.prefix_completed", len(self.ends) >= self.wl.prefix_ops,
                     f"{len(self.ends)} of {self.wl.prefix_ops} steps")
        bad = [i for i, v in enumerate(self.losses) if not math.isfinite(v)]
        result.check("train.loss_finite", not bad, f"non-finite at steps {bad[:5]}")
        # One step's loss depends on the SNR drawn for its batch, and AdamW's
        # first steps raise the FC-AE loss for about ten steps before it falls,
        # so the first and last stretches of the run are compared, not steps.
        k = min(LOSS_WINDOW, len(self.losses) // 2)
        first = statistics.fmean(self.losses[:k]) if k else math.nan
        last = statistics.fmean(self.losses[-k:]) if k else math.nan
        result.check("train.loss_decreased", last < first,
                     f"mean loss of the first {k} steps {first!r}, of the last {k} {last!r}")


# -- evaluation ------------------------------------------------------------------------


class _EvalPhase:
    """Repeated runs of the eval suite against one freshly initialised CAE."""

    def __init__(self, wl: Workload, seed: int, seconds: float, overrides, tracer,
                 setup_only: bool, workdir: Path):
        t0 = clock()
        pkg = self.pkg = import_paprlab()
        if tracer is not None:
            install_paprlab(tracer, pkg)
        out = workdir / ("traced" if tracer is not None else "plain")
        cfg = self.cfg = make_config(pkg, wl, seed, out, overrides)
        ckpt = workdir / "cae.npz"
        pkg.models.save_checkpoint(ckpt, pkg.harness.build_model_from_config(cfg, "cae"),
                                   seed=cfg.seed)
        self.setup_s = clock() - t0
        self.out, self.tracer = out, tracer
        self.command_s: list[float] = []
        self.suite_s: list[float] = []
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.psd_calls: list[tuple[float, float]] = []
        self.live = None
        self.prefix_rss = None
        if setup_only:
            return
        start = clock()
        while True:
            suite = len(self.suite_s)
            self._suite(suite, {"cae": str(ckpt)})
            self.digests.append(self._hash_outputs())
            if suite == 0:
                self.prefix_rss = _maxrss_mb()
                if tracer is not None:
                    self.live = _live_tensors(pkg)
            if suite + 1 >= wl.prefix_ops and clock() - start >= seconds:
                break

    def _suite(self, suite: int, checkpoints: dict):
        harness = self.pkg.harness
        if self.tracer is not None:
            self.tracer.group = suite + 1
        begin = clock()
        for label, name in EVAL_COMMANDS:
            capture = Patcher()
            if suite == 0 and label == "psd":
                capture.patch(harness, "psd", self._psd_capture)
            t0 = clock()
            try:
                if self.tracer is not None:
                    self.tracer.call(self.tracer.label_id(f"harness.{label}"),
                                     getattr(harness, name), self.cfg, checkpoints)
                else:
                    getattr(harness, name)(self.cfg, checkpoints)
            except Exception as err:  # the program failed: report it as a failed op
                traceback.print_exc(file=sys.stderr)
                self.errors.append(f"{label}: {type(err).__name__}: {err}")
            finally:
                self.command_s.append(clock() - t0)
                capture.restore()
        self.suite_s.append(clock() - begin)

    def _psd_capture(self, fn):
        def capture(batch, *args, **kwargs):
            spectrum = fn(batch, *args, **kwargs)
            self.psd_calls.append((float(np.mean(np.abs(batch) ** 2)), float(np.sum(spectrum))))
            return spectrum
        return capture

    def _hash_outputs(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.out.glob("*.csv")) + sorted(self.out.glob("*.json")):
            h.update(path.name.encode("utf-8"))
            h.update(path.read_bytes())
        return h.hexdigest()[:16]

    @property
    def attempted(self) -> int:
        return len(self.command_s)

    @property
    def ops(self) -> list[float]:
        """Command times."""
        return self.command_s

    def nominal_symbols(self) -> int:
        """Symbol blocks the suite's config asks for, summed over methods."""
        ev = self.cfg.eval
        per_method = (ev.ber_symbols * len(ev.p_snr_db) + ev.ccdf_symbols + ev.psd_symbols
                      + ev.table_symbols * (1 + len(ev.obo_acpr_ibo_db)))
        return per_method * len(self.cfg.methods)

    def samples_per_s(self) -> float:
        return self.nominal_symbols() * len(self.suite_s) / sum(self.suite_s)

    def digest(self) -> str:
        return self.digests[0]

    def detail(self) -> dict:
        return {"suites": len(self.suite_s), "eval_wall_s": self.suite_s,
                "nominal_symbols_per_suite": self.nominal_symbols()}

    def layers(self, tracer: Tracer, plain_ops: list[float]) -> dict:
        groups = list(range(1, len(self.suite_s) + 1))
        return _layer_metrics(tracer, groups, None, self.command_s, plain_ops, self.live)

    def checks(self, result: RunResult, seed: int):
        for err in self.errors:
            result.check("eval.completed", False, err)
        result.check("eval.deterministic", len(set(self.digests)) == 1,
                     f"suite digests {self.digests}")
        read = self.pkg.curvefile.read_curve
        files = {p.name for p in self.out.iterdir()}
        for name in ("ber.csv", "ccdf.csv", "psd.csv", "table_summary.json", "obo_acpr.csv"):
            if name not in files:
                result.check(f"eval.{name}", False, "missing")
                return

        # A model-driven receiver never does worse than guessing; the CAE here
        # is untrained, so its decisions are a random function of the input and
        # its BER only has to be a probability.
        _, cols, rows = read(self.out / "ber.csv")
        bad = [r for r in rows if not 0.0 <= float(r[cols.index("ber")]) <= (
            1.0 if r[cols.index("method")] in ("cae", "fc_ae") else 0.5)]
        result.check("eval.ber_in_range", not bad, f"out of range: {bad[:3]}")

        _, cols, rows = read(self.out / "ccdf.csv")
        curves: dict[str, list[tuple[float, float]]] = {}
        for r in rows:
            curves.setdefault(r[cols.index("method")], []).append(
                (float(r[cols.index("papr0_db")]), float(r[cols.index("prob_exceed")])))
        rising = [m for m, c in curves.items()
                  if any(b[1] > a[1] for a, b in zip(sorted(c), sorted(c)[1:]))]
        result.check("eval.ccdf_nonincreasing", not rising, f"rising for {rising}")
        if "slm" in curves and "none" in curves:
            above = [t for (t, ps), (_, pn) in zip(sorted(curves["slm"]), sorted(curves["none"]))
                     if ps > pn]
            result.check("eval.ccdf_slm_below_none", not above, f"above at {above[:5]}")
            self._check_slm_blocks(result, seed)

        _, cols, rows = read(self.out / "psd.csv")
        sums: dict[str, float] = {}
        for r in rows:
            method = r[cols.index("method")]
            if method != "ideal":
                sums[method] = sums.get(method, 0.0) + 10.0 ** (float(r[cols.index("psd_db")]) / 10)
        calls = self.psd_calls
        result.check("eval.psd_observed", bool(calls), f"{len(calls)} PSD calls in eval_psd")
        if calls:
            worst = max(abs(s - p) / p for p, s in calls)
            result.check("eval.psd_sums_to_power", worst < 1e-9,
                         f"worst relative gap {worst:.2e} over {len(calls)} batches")
            # every method sees the same number of batches, so the mean over
            # methods of each file total equals the mean over all batches
            want = statistics.fmean(p for p, _ in calls)
            got = statistics.fmean(sums.values())
            result.check("eval.psd_file_matches_power", abs(got - want) < 1e-9 * want,
                         f"file {got!r}, PA output {want!r}")

        table = json.loads((self.out / "table_summary.json").read_text())["table"]
        _, cols, rows = read(self.out / "obo_acpr.csv")
        acprs = [v["acpr_db"] for v in table.values()] + [float(r[cols.index("acpr_db")])
                                                          for r in rows]
        result.check("eval.acpr_nonpositive", all(a <= 0.0 for a in acprs),
                     f"max {max(acprs)} dB")

    def _check_slm_blocks(self, result: RunResult, seed: int):
        """SLM's per-block PAPR is at most that of the unmodified block."""
        pkg, cfg = self.pkg, self.cfg
        rng = np.random.default_rng(seed)
        blocks = pkg.ofdm.qam4_map(rng.integers(0, 2, size=(64, 2 * cfg.system.n_subcarriers)))
        ell = cfg.system.oversampling
        slm, _ = pkg.baselines.slm_select_batch(blocks, cfg.slm, ell)
        plain = pkg.ofdm.ofdm_modulate(blocks, ell)
        gap = np.max(pkg.metrics.papr_db(slm) - pkg.metrics.papr_db(plain))
        result.check("eval.slm_block_papr", gap <= 1e-9, f"largest excess {gap:.3e} dB")


# -- per-layer metrics (traced run) ------------------------------------------------------

_OPS = NAMED_OPS + ("layout", "arith")
_TIMED = ([f"ofdm.{n}" for n in ("qam4_map", "ofdm_modulate", "ofdm_demodulate", "bpf",
                                  "ml_detect")]
          + [f"frontend.{n}" for n in ("rapp_amplify", "bussgang_alpha")]
          + [f"metrics.{n}" for n in ("papr_db", "psd", "ccdf", "acpr")]
          + ["optim.step", "models.encode", "models.decode", "chain.run_chain",
             "losses.joint_loss", "baselines.slm_select_batch", "baselines.clip_filter",
             "models.load_checkpoint", "curvefile.write"])
_COMMANDS = tuple(label for label, _ in EVAL_COMMANDS)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for op in _OPS:
        names += [(f"autodiff.{op}.fwd_ms", "ms"), (f"autodiff.{op}.bwd_ms", "ms")]
    names += [("autodiff.backward_self_ms", "ms"), ("autodiff.live_tensors", "count"),
              ("optim.bytes_computed", "B"), ("training.data_ms", "ms"),
              ("training.monitor_ms", "ms"), ("training.self_ms", "ms")]
    names += [(f"{label}_ms", "ms") for label in _TIMED]
    for method in EVAL_METHODS:
        names += [(f"harness.tx_us_per_symbol.{method}", "us"),
                  (f"harness.rx_us_per_symbol.{method}", "us"),
                  (f"harness.tx_symbols.{method}", "count")]
    names += [(f"harness.{c}_s", "s") for c in _COMMANDS] + [("harness.self_s", "s")]
    names += [("baselines.slm_candidates_per_symbol", "count"),
              ("models.load_checkpoint_calls", "count"), ("curvefile.bytes", "B"),
              ("trace.step_ms_p50", "ms"), ("trace.untraced_step_ms_p50", "ms"),
              ("trace.overhead_pct", "%")]
    return names


def _layer_metrics(tracer: Tracer, groups: list[int], step_walls: list[float] | None,
                   traced_ops: list[float], plain_ops: list[float], live: int) -> dict:
    """Per-layer metrics of a traced phase: medians over groups of per-group sums.

    step_walls (training only) gives each group's wall time, from which the
    loop's own time is what its top-level spans leave uncovered.
    """
    rows = tracer.per_group()

    def field(g, label, k):  # k: 0 inclusive, 1 self, 2 top-level seconds
        return rows[g][label][k] if label in rows[g] else 0.0

    def count(g, label):
        return tracer.counts.get((g, label), 0)

    def med(per_group):
        return _median([per_group(g) for g in groups])

    def per_unit(label, unit_label, scale):
        units = sum(count(g, unit_label) for g in groups)
        return scale * sum(field(g, label, 0) for g in groups) / units if units else 0.0

    out = {}
    for op in _OPS:
        for part in ("fwd", "bwd"):
            label = f"autodiff.{op}.{part}"
            out[f"{label}_ms"] = med(lambda g: 1e3 * field(g, label, 0))
    out["autodiff.backward_self_ms"] = med(lambda g: 1e3 * field(g, "autodiff.backward", 1))
    out["autodiff.live_tensors"] = live
    out["optim.bytes_computed"] = med(lambda g: count(g, "optim.bytes_computed"))
    out["training.data_ms"] = med(lambda g: 1e3 * sum(
        field(g, label, 2) for label in ("ofdm.qam4_map", "ofdm.ofdm_modulate")))
    out["training.monitor_ms"] = med(lambda g: 1e3 * sum(
        field(g, label, 2) for label in ("metrics.papr_db", "metrics.psd", "metrics.acpr")))
    out["training.self_ms"] = 0.0
    if step_walls is not None:
        out["training.self_ms"] = _median([
            1e3 * (wall - sum(row[2] for row in rows[g].values()))
            for g, wall in zip(groups, step_walls)])
    for label in _TIMED:
        out[f"{label}_ms"] = med(lambda g: 1e3 * field(g, label, 0))
    for m in EVAL_METHODS:
        out[f"harness.tx_us_per_symbol.{m}"] = per_unit(f"harness.tx.{m}", f"harness.tx.{m}", 1e6)
        out[f"harness.rx_us_per_symbol.{m}"] = per_unit(f"harness.rx.{m}", f"harness.rx.{m}", 1e6)
        out[f"harness.tx_symbols.{m}"] = med(lambda g: count(g, f"harness.tx.{m}"))
    for c in _COMMANDS:
        out[f"harness.{c}_s"] = med(lambda g: field(g, f"harness.{c}", 0))
    out["harness.self_s"] = med(lambda g: sum(field(g, f"harness.{c}", 1) for c in _COMMANDS))
    symbols = sum(count(g, "baselines.slm_symbols") for g in groups)
    out["baselines.slm_candidates_per_symbol"] = (
        sum(count(g, "baselines.slm_candidates") for g in groups) / symbols if symbols else 0.0)
    out["models.load_checkpoint_calls"] = med(lambda g: count(g, "models.load_checkpoint"))
    out["curvefile.bytes"] = med(lambda g: count(g, "curvefile.bytes"))
    traced, plain = 1e3 * statistics.median(traced_ops), 1e3 * statistics.median(plain_ops)
    out["trace.step_ms_p50"] = traced
    out["trace.untraced_step_ms_p50"] = plain
    out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return {name: (out[name], unit) for name, unit in per_layer_names()}


# -- entry point -----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 overrides: dict | None = None) -> RunResult:
    """Run one workload; overrides are merged into its config (tests use n=8).

    Untraced: SETUP_REPEATS set-ups, the last of which goes on to run ops for
    `seconds`.  Traced: a plain phase and a traced phase of seconds/2 each.
    """
    wl = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    phase = _TrainPhase if wl.kind == "train" else _EvalPhase
    result = RunResult()
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(phase(wl, seed, seconds, overrides, None, True, workdir).setup_s)
            gc.collect()
    window = seconds / 2 if trace else seconds
    phases = [phase(wl, seed, window, overrides, None, False, workdir)]
    setups.append(phases[0].setup_s)
    if trace:
        gc.collect()
        tracer = Tracer()
        try:
            phases.append(phase(wl, seed, window, overrides, tracer, False, workdir))
        finally:
            tracer.restore()
    for p in phases:
        result.attempted += p.attempted
        p.checks(result, seed)
    plain = phases[0]
    if not plain.ops:
        raise RuntimeError(f"{name}: no op was measured")
    digests = [p.digest() for p in phases]
    if trace:
        result.check("trace.same_digest", digests[0] == digests[1],
                     f"untraced {digests[0]}, traced {digests[1]}")
    tail_p = tail_percentile(len(plain.ops))
    result.detail.update(plain.detail(), environment=environment(plain.pkg), digest=digests[0],
                         op_samples=len(plain.ops), tail_percentile=tail_p)
    if trace:
        result.detail["unwrapped"] = tracer.missing
        result.metrics = phases[1].layers(tracer, plain.ops)
        return result
    result.detail["setup_samples_s"] = setups
    result.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (plain.samples_per_s(), "1/s"),
        "step_ms_p50": (1e3 * statistics.median(plain.ops), "ms"),
        "step_ms_tail": (1e3 * percentile(plain.ops, tail_p), "ms"),
        "peak_rss_mb": (plain.prefix_rss or _maxrss_mb(), "MB"),
    }
    return result
