"""Spans and counts around calls into the library's modules.

Spans are recorded by swapping module attributes for wrappers while a study
runs (`Tracer.patched`), so the library itself is left as it is.  A span is
(name, start, end, parent, root); the root is the enclosing per-level span,
so figures can be read for the finest level alone.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from hho import harness, hho_local, mesh as mesh_mod, solver

# (module whose attribute is swapped, attribute, span name): each entry sits
# in the namespace its caller reads it from
TRACED = (
    (mesh_mod, "generate", "mesh.generate"),
    (solver, "DofMap", "solver.DofMap"),
    (solver, "build_packs", "solver.build_packs"),
    (solver, "build_local_operators", "hho_local.build_local_operators"),
    (hho_local, "cell_basis", "polybasis.cell_basis"),
    (hho_local, "face_basis", "polybasis.face_basis"),
    (hho_local, "cell_rule", "quadrature.cell_rule"),
    (hho_local, "face_rule", "quadrature.face_rule"),
    (solver, "newton_solve", "solver.newton_solve"),
    (solver, "compute_loads", "solver.compute_loads"),
    (solver, "dirichlet_values", "solver.dirichlet_values"),
    (solver, "assemble_residual", "solver.assemble_residual"),
    (solver, "assemble_system", "solver.assemble_system"),
    (solver, "spsolve", "solver.spsolve"),
    (harness, "compute_errors", "harness.compute_errors"),
    (harness, "interpolate_global", "solver.interpolate_global"),
)

# quadrature rules also count the nodes they return
NODE_COUNTS = {"quadrature.cell_rule": "quadrature.cell_nodes",
               "quadrature.face_rule": "quadrature.face_nodes"}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, root]
        self.counts = defaultdict(Counter)   # root span -> name -> count
        self._open = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        root = self._open[0] if self._open else idx
        self.spans.append([name, 0.0, 0.0, parent, root])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int, t0: float):
        self.spans[idx][1] = t0
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            self._exit(idx, t0)

    def count(self, name: str, n: int):
        root = self._open[0] if self._open else -1
        self.counts[root][name] += n

    def wrap(self, name: str, fn):
        counter = NODE_COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = self._enter(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx, t0)
            if counter:
                self.count(counter, len(out.weights))
            return out
        return traced

    def traced_source(self, make_source):
        """manufactured_source returns a closure; span each call of it."""
        tracer = self

        class Source:
            def __init__(self, f):
                self._f = f
                self._call = tracer.wrap("harness.manufactured_source", f)

            def __call__(self, pts):
                return self._call(pts)

            @property
            def singular_hits(self):
                return self._f.singular_hits

        return lambda *a, **kw: Source(make_source(*a, **kw))

    def counting_law(self, law):
        """The law with every point passed to flux counted, continuation
        stages included."""
        def flux(x, xi, eps=0.0):
            self.count("law.flux_points", len(xi))
            return law.flux(x, xi, eps)
        return replace(law, flux=flux,
                       family=lambda p: self.counting_law(law.family(p)))

    @contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        saved.append((harness, "manufactured_source",
                      harness.manufactured_source))
        try:
            for mod, attr, name in TRACED:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            harness.manufactured_source = self.traced_source(
                harness.manufactured_source)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- reading the record ------------------------------------------------

    def root_of(self, name: str) -> int:
        return max(i for i, s in enumerate(self.spans) if s[0] == name)

    def totals(self, root: int) -> tuple[dict, dict, Counter]:
        """Total and self time per span name, and call counts, under root."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, t0, t1, parent, r in self.spans:
            if r != root:
                continue
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        selft = defaultdict(float)
        for i, (name, t0, t1, parent, r) in enumerate(self.spans):
            if r == root:
                selft[name] += (t1 - t0) - child[i]
        return dict(total), dict(selft), calls

    def dump(self) -> dict:
        return {"columns": ["name", "start_s", "end_s", "parent", "root"],
                "spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()}}


# ---------------------------------------------------------------------------
# probes: single layers called on the finest-level solution


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_layers(w, fin, repeats: int = 5) -> dict:
    """Median single-call times of the solve's layers at the finest-level
    solution `fin`, and the nonzeros of its Jacobian."""
    law = w.law()
    dm, packs, U = fin.dm, fin.packs, fin.U
    loads = solver.compute_loads(packs, fin.source)
    pts = np.concatenate([ops.rule.points for ops in packs])
    grads = np.concatenate([ops.grad_q @ U[dm.element_dofs(ei)]
                            for ei, ops in enumerate(packs)])
    r, J = solver.assemble_system(dm, packs, law, U, loads)
    step_cfg = replace(w.config(), max_iterations=1, continuation=(w.p,))
    u = harness.manufactured_solution(w.case)

    def newton_step():
        solver.newton_solve(fin.mesh, w.k, law, source=fin.source,
                            dirichlet=u, config=step_cfg, packs=packs, dm=dm)

    few = max(1, repeats // 2)
    return {
        "law.flux_s": _median_time(lambda: law.flux(pts, grads), repeats),
        "law.flux_jacobian_s": _median_time(
            lambda: law.flux_jacobian(pts, grads), repeats),
        "solver.assemble_residual_s": _median_time(
            lambda: solver.assemble_residual(dm, packs, law, U, loads), few),
        "solver.assemble_system_s": _median_time(
            lambda: solver.assemble_system(dm, packs, law, U, loads), few),
        "solver.spsolve_s": _median_time(
            lambda: solver.spsolve(J, -r), repeats),
        "solver.newton_step_s": _median_time(newton_step, few),
        "solver.jacobian_nnz": J.nnz,
    }
