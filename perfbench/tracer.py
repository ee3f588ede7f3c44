"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps the public functions the benchmark reports on, in
every `fockdirichlet` module namespace that binds them (names are imported
with `from .x import y`), plus a few methods on their classes.  Each call
records a span (name, start, end, parent) in memory; `metrics()` turns the
spans into call counts, inclusive seconds and self seconds (the span minus
its child spans).  Everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, function) -> span name
FUNCTIONS = {
    ("fock", "embed"): "fock.embed",
    ("fock", "site_operator"): "fock.site_operator",
    ("fock", "mollify"): "fock.mollify",
    ("fock", "clean_projector"): "fock.clean_projector",
    ("state", "gibbs_state"): "state.gibbs_state",
    ("state", "modular_flow"): "state.modular_flow",
    ("state", "decompose_modular"): "state.decompose_modular",
    ("dirichlet", "assemble_generator"): None,   # named by its `path`
    ("dirichlet", "semigroup_apply"): "dirichlet.semigroup_apply",
    ("models", "build_model"): "models.build_model",
    ("models", "verify_algebra"): "models.verify_algebra",
    ("bogolubov", "quasi_invariance_rep"): "bogolubov.quasi_invariance_rep",
    ("analysis", "spectral_gap"): "analysis.spectral_gap",
    ("analysis", "ladder_span_restriction"): "analysis.ladder_span_restriction",
    ("analysis", "heat_comparison"): "analysis.heat_comparison",
    ("analysis", "polynomial_decay_probe"): "analysis.polynomial_decay_probe",
    ("analysis", "rayleigh_scaling"): "analysis.rayleigh_scaling",
    ("analysis", "lieb_robinson_probe"): "analysis.lieb_robinson_probe",
    ("cli", "load_config"): "cli.load_config",
    ("cli", "run_scenario"): "cli.run_scenario",
}
# (module, class, method) -> span name
METHODS = {
    ("fock", "LatticeOperator", "__add__"): "fock.add",
    ("fock", "LatticeOperator", "__radd__"): "fock.add",
    ("fock", "LatticeOperator", "__matmul__"): "fock.matmul",
    ("state", "KmsMetric", "inner"): "state.inner",
    ("state", "KmsMetric", "vec_inner"): "state.vec_inner",
    ("kernels", "AdmissibleKernel", "fourier"): "kernels.fourier",
    ("kernels", "AdmissibleKernel", "time_grid"): "kernels.time_grid",
}


def _assembly_name(args, kwargs) -> str:
    path = kwargs.get("path", args[3] if len(args) > 3 else "eigen")
    return f"dirichlet.assemble_{path}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.quad_nodes = 0          # nodes returned by time_grid
        self.generator_nnz = 0       # largest assembled generator
        self.generator_mb = 0.0      # its CSR arrays, computed from their sizes
        self._open: list[int] = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name or _assembly_name(args, kwargs)
            idx = len(self.spans)
            self.spans.append((span, 0.0, 0.0, self._open[-1] if self._open else -1))
            self._open.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                self.spans[idx] = (span, t0, t1, self.spans[idx][3])
            self._observe(span, result)
            return result
        return traced

    def _observe(self, span, result):
        if span == "kernels.time_grid":
            self.quad_nodes += len(result[0])
        elif span.startswith("dirichlet.assemble_"):
            m = result.matrix
            self.generator_nnz = max(self.generator_nnz, m.nnz)
            nbytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            self.generator_mb = max(self.generator_mb, nbytes / 2 ** 20)

    @contextlib.contextmanager
    def installed(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "fockdirichlet" or name.startswith("fockdirichlet.")}
        undo = []
        try:
            for (mod, fname), span in FUNCTIONS.items():
                orig = getattr(mods[f"fockdirichlet.{mod}"], fname)
                wrapped = self._wrap(orig, span)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            undo.append((m, attr, orig))
            for (mod, cls_name, meth), span in METHODS.items():
                cls = getattr(mods[f"fockdirichlet.{mod}"], cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self._wrap(orig, span))
                undo.append((cls, meth, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def metrics(self) -> dict[str, dict]:
        """calls, inclusive s and self s per span name, plus the counts."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, child):
            calls[name] += 1
            incl[name] += t1 - t0
            own[name] += t1 - t0 - c
        out = {}
        for name in calls:
            out[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
            out[f"{name}.s"] = {"value": incl[name], "unit": "s"}
            out[f"{name}.self_s"] = {"value": own[name], "unit": "s"}
        out["kernels.quad_nodes"] = {"value": self.quad_nodes, "unit": "count"}
        out["dirichlet.generator_nnz"] = {"value": self.generator_nnz, "unit": "count"}
        out["dirichlet.generator_mb"] = {"value": self.generator_mb,
                                         "unit": "computed_MB"}
        return out
