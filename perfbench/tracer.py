"""Span tracer that wraps quadmatch's public functions from outside the package.

Nothing in ``src/`` is edited. ``Tracer.install`` replaces each traced
function by a timing wrapper in every ``quadmatch.*`` module namespace that
holds it (matched by object identity, since ``from .x import y`` copies the
binding into each importer), and ``Tracer.uninstall`` puts the originals back.

Spans stay in memory as ``[name, start, end, parent, op]`` rows, where
``parent`` is the index of the enclosing span (-1 for a root) and ``op`` is
the pair or training-session id the benchmark set before the call. Counts
that are too frequent for a span (scipy's ``linear_sum_assignment``) are bare
counters.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) pairs wrapped in a span; the span is named
# "<module>.<attribute>".
TRACED = (
    ("graphs", "build_graph"),
    ("graphs", "weighted_adjacency"),
    ("synth", "gen_dataset"),
    ("refine", "refine_pipeline"),
    ("refine", "node_affinity"),
    ("refine", "init_assignment"),
    ("projections", "sinkhorn"),
    ("projections", "hungarian"),
    ("qap", "objective"),
    ("qap", "objective_gradient"),
    ("qap", "fw_direction"),
    ("qap", "frank_wolfe_train"),
    ("qap", "frank_wolfe_infer"),
    ("losses", "false_matching_loss"),
    ("losses", "cross_entropy_loss"),
    ("losses", "accuracy"),
    ("losses", "f1_score"),
    ("losses", "permutation_to_matrix"),
    ("losses", "matrix_to_permutation"),
    ("train", "forward"),
    ("train", "grad_params"),
    ("train", "sgd_step"),
    ("train", "train"),
    ("bench", "match_pair"),
)


def package_module(short: str):
    """The ``quadmatch.<short>`` module object.

    Looked up in ``sys.modules`` because the package attribute
    ``quadmatch.train`` is the ``train`` function, which shadows the module.
    """
    return sys.modules[f"quadmatch.{short}"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self.sinkhorn_outputs: list = []   # returned matrices, for the residual reading
        self.fw_infer_runs: list = []      # (inner steps, converged) per frank_wolfe_infer call
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _rebind(self, orig, replacement) -> int:
        """Point every quadmatch namespace binding of ``orig`` at ``replacement``."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "quadmatch" or mod_name.startswith("quadmatch.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))
                    hits += 1
        return hits

    def install(self) -> None:
        import quadmatch  # noqa: F401  (loads every submodule)
        from quadmatch import autodiff as ad

        def after_sinkhorn(res):
            self.sinkhorn_outputs.append(ad.value(res.matrix))
            self.counts["sinkhorn_iterations"] += res.iterations

        def after_fw_infer(res):
            self.fw_infer_runs.append((len(res[1].steps), bool(res[1].converged)))

        after = {"projections.sinkhorn": after_sinkhorn, "qap.frank_wolfe_infer": after_fw_infer}
        for short, attr in TRACED:
            name = f"{short}.{attr}"
            orig = getattr(package_module(short), attr)
            if self._rebind(orig, self._wrap(name, orig, after.get(name))) == 0:
                raise RuntimeError(f"could not rebind {name}")

        lsa = package_module("projections").linear_sum_assignment
        counts = self.counts

        def counted_lsa(*args, **kwargs):
            counts["lsa"] += 1
            return lsa(*args, **kwargs)

        self._rebind(lsa, counted_lsa)

        backward = ad.Var.backward
        ad.Var.backward = self._wrap("autodiff.backward", backward)
        self._undo.append((ad.Var, "backward", backward))

        # Var.backward walks the tape once through the module-level
        # _toposort; its result length is the node count of that tape.
        toposort = getattr(ad, "_toposort", None)
        if toposort is not None:
            def counted_toposort(root):
                order = toposort(root)
                counts["tape_nodes"] += len(order)
                return order

            ad._toposort = counted_toposort
            self._undo.append((ad, "_toposort", toposort))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)
