"""Spans recorded around paprlab's layers, from outside the package.

A :class:`Tracer` replaces module and class attributes with timing wrappers
at the place each name is looked up (``paprlab.training.psd`` and
``paprlab.harness.psd`` are separate lookups), records one span per call and
puts every attribute back on :meth:`Tracer.restore`.  Spans stay in memory as
parallel lists (name, start, end, parent, group); nothing is written until
the run ends.  A group is the unit the per-layer numbers are reported per: a
training step or an eval suite.
"""

from __future__ import annotations

import time
from collections import defaultdict

__all__ = ["Patcher", "Tracer", "install_paprlab", "LAYOUT_OPS", "ARITH_OPS", "NAMED_OPS"]

# autodiff ops reported one by one, and the two lumped entries.
NAMED_OPS = ("conv1d", "linear", "batch_norm", "selu", "power_norm", "bandpass",
             "rapp_nonlinearity", "dft_unpad", "mse_complex", "papr_loss", "acpr_value")
LAYOUT_OPS = ("interleaved_to_complex", "complex_to_interleaved", "channels_to_complex",
              "complex_to_channels", "reshape", "complex_scale", "add_constant")
ARITH_OPS = ("_add", "_mul", "_mul_scalar", "sq_norm", "relu")


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> bool:
        """Replace owner.attr by make_wrapper(original); False if it is absent."""
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        """Put back every patched attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    """In-memory span recorder; its wrappers time the calls they replace."""

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_label: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_group: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.group = 0
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def begin(self, lid: int) -> int:
        idx = len(self.span_start)
        self.span_label.append(lid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_group.append(self.group)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def finish(self, idx: int):
        self.span_end[idx] = self.clock()
        self._stack.pop()

    def count(self, label: str, amount: float = 1):
        self.counts[(self.group, label)] += amount

    def call(self, lid: int, fn, *args, **kwargs):
        idx = self.begin(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(idx)

    # -- wrappers --------------------------------------------------------------

    def timed(self, label: str):
        """Wrapper factory recording one span named label per call."""
        lid = self.label_id(label)

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(lid, fn, *args, **kwargs)
            return wrapper
        return make

    def timed_op(self, label: str):
        """Wrapper factory for an autodiff op: times the forward call, and the
        returned node's backward closure under label + '.bwd'."""
        fwd = self.label_id(label + ".fwd")
        bwd = self.label_id(label + ".bwd")

        def make(fn):
            def wrapper(*args, **kwargs):
                out = self.call(fwd, fn, *args, **kwargs)
                closure = out._backward
                if closure is not None:
                    def timed_backward():
                        self.call(bwd, closure)
                    out._backward = timed_backward
                return out
            return wrapper
        return make

    # -- analysis ------------------------------------------------------------

    def per_group(self) -> dict[int, dict[str, list[float]]]:
        """group -> label -> [inclusive seconds, self seconds, top-level seconds].

        Self time is a span's duration minus the durations of its direct
        children; top-level seconds sum the spans that have no parent span.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[int, dict[str, list[float]]] = defaultdict(dict)
        for i in range(n):
            label = self.labels[self.span_label[i]]
            row = out[self.span_group[i]].setdefault(label, [0.0, 0.0, 0.0])
            row[0] += dur[i]
            row[1] += dur[i] - child[i]
            if self.span_parent[i] < 0:
                row[2] += dur[i]
        return out


def _counted_calls(tracer: Tracer, label: str, fn):
    lid = tracer.label_id(label)

    def wrapper(*args, **kwargs):
        tracer.count(label)
        return tracer.call(lid, fn, *args, **kwargs)
    return wrapper


def _slm_select(tracer: Tracer, fn):
    lid = tracer.label_id("baselines.slm_select_batch")

    def wrapper(blocks, slm, *args, **kwargs):
        # every block is tried under each of the U phase sequences
        tracer.count("baselines.slm_symbols", len(blocks))
        tracer.count("baselines.slm_candidates", len(blocks) * slm.num_sequences)
        return tracer.call(lid, fn, blocks, slm, *args, **kwargs)
    return wrapper


def _file_bytes(tracer: Tracer, fn):
    lid = tracer.label_id("curvefile.write")

    def wrapper(*args, **kwargs):
        path = tracer.call(lid, fn, *args, **kwargs)
        tracer.count("curvefile.bytes", path.stat().st_size)
        return path
    return wrapper


def _per_method(tracer: Tracer, prefix: str, fn):
    """Method wrapper for _MethodBank.transmit/receive_bits: span and symbol
    count per evaluated method (the method name is the first argument)."""
    def wrapper(bank, method, blocks, *args, **kwargs):
        label = f"{prefix}.{method}"
        tracer.count(label, len(blocks))
        return tracer.call(tracer.label_id(label), fn, bank, method, blocks, *args, **kwargs)
    return wrapper


def _adamw_step(tracer: Tracer, fn):
    lid = tracer.label_id("optim.step")

    def wrapper(opt, *args, **kwargs):
        # AdamW reads theta, grad, m, v and writes theta, m, v: 7 float64 arrays.
        tracer.count("optim.bytes_computed", 7 * 8 * sum(p.data.size for p in opt.params))
        return tracer.call(lid, fn, opt, *args, **kwargs)
    return wrapper


def install_paprlab(tracer: Tracer, pkg) -> Tracer:
    """Wrap paprlab's layers where its pipeline looks them up.

    pkg carries the imported modules (autodiff, optim, models, chain,
    training, harness).  Call before any model is built: layers capture the
    activation function (``ad.selu``) at construction.
    """
    ad, harness, training = pkg.autodiff, pkg.harness, pkg.training
    for op in NAMED_OPS:
        tracer.patch(ad, op, tracer.timed_op(f"autodiff.{op}"))
    for op in LAYOUT_OPS:
        tracer.patch(ad, op, tracer.timed_op("autodiff.layout"))
    for op in ARITH_OPS:
        tracer.patch(ad, op, tracer.timed_op("autodiff.arith"))
    tracer.patch(ad.Tensor, "backward", tracer.timed("autodiff.backward"))
    tracer.patch(pkg.optim.AdamW, "step", lambda fn: _adamw_step(tracer, fn))
    for cls in (pkg.models.CaeModel, pkg.models.FcAeModel):
        tracer.patch(cls, "encode", tracer.timed("models.encode"))
        tracer.patch(cls, "decode", tracer.timed("models.decode"))
    tracer.patch(pkg.chain, "bussgang_alpha", tracer.timed("frontend.bussgang_alpha"))

    tracer.patch(training, "run_chain", tracer.timed("chain.run_chain"))
    tracer.patch(training, "joint_loss", tracer.timed("losses.joint_loss"))
    for module in (training, harness):
        for name in ("qam4_map", "ofdm_modulate"):
            tracer.patch(module, name, tracer.timed(f"ofdm.{name}"))
        for name in ("papr_db", "psd", "acpr"):
            tracer.patch(module, name, tracer.timed(f"metrics.{name}"))

    for name in ("ofdm_demodulate", "bpf", "ml_detect"):
        tracer.patch(harness, name, tracer.timed(f"ofdm.{name}"))
    tracer.patch(harness, "ccdf", tracer.timed("metrics.ccdf"))
    tracer.patch(harness, "rapp_amplify", tracer.timed("frontend.rapp_amplify"))
    tracer.patch(harness, "bussgang_alpha", tracer.timed("frontend.bussgang_alpha"))
    tracer.patch(harness, "clip_filter", tracer.timed("baselines.clip_filter"))
    tracer.patch(harness, "slm_select_batch", lambda fn: _slm_select(tracer, fn))
    tracer.patch(harness, "load_checkpoint",
                 lambda fn: _counted_calls(tracer, "models.load_checkpoint", fn))
    for name in ("write_curve", "write_summary"):
        tracer.patch(harness, name, lambda fn: _file_bytes(tracer, fn))
    bank = getattr(harness, "_MethodBank", None)
    if bank is None:
        tracer.missing.append("harness._MethodBank")
    else:
        tracer.patch(bank, "transmit", lambda fn: _per_method(tracer, "harness.tx", fn))
        tracer.patch(bank, "receive_bits", lambda fn: _per_method(tracer, "harness.rx", fn))
    return tracer
