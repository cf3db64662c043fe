"""Call spans around qshield's public functions, recorded from outside the package.

A :class:`Tracer` replaces each listed function in every module namespace of
the package that binds it (``kernel_matrix`` is bound in ``qkernel``,
``pipeline`` and ``cli``), and each listed method on its class. One wrapper
serves all bindings of a function, so a call through any of them is one span.
Spans stay in memory as ``[id, parent_id, name, start, end]`` and are written
once, by :meth:`Tracer.write`.

:func:`summarize` turns spans into per-name ``calls``, inclusive ``total_s``
and ``self_s`` (duration minus the time covered by wrapped child spans).
"""
from __future__ import annotations

import functools
import json
import sys
import time

# "<module>.<function>" or "<module>.<Class>.<method>", relative to the package.
TRACED = (
    "cli.main",
    "statevector.run_circuit",
    "encoding.apply_feature_map",
    "encoding.feature_map_circuit",
    "vqc.train_vqc",
    "vqc.forward",
    "vqc.VqcModel.predict",
    "qkernel.kernel_matrix",
    "qkernel.KernelMatrix.validate",
    "qkernel.train_qsvm",
    "qkernel.kernel_entry",
    "qkernel.svm_decision",
    "qkernel.SvmModel.predict",
    "preprocess.load_csv",
    "preprocess.fit_preprocess",
    "preprocess.prune_correlated",
    "preprocess.fit_pca",
    "preprocess.jacobi_eigh",
    "preprocess.apply_preprocess",
    "preprocess.write_csv",
    "pipeline.run_experiment",
    "pipeline.load_model",
    "pipeline.save_model",
    "pipeline.write_predictions_csv",
    "pipeline.EnsembleModel.predict",
    "evalstats.bootstrap_ci",
)


class Tracer:
    """Installs span-recording wrappers and puts the originals back."""

    def __init__(self, run_id: str, package: str = "qshield"):
        self.run_id = run_id
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(record)
            stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()

        return wrapper

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(prefix))
        ]

    def install(self, targets=TRACED) -> list[str]:
        """Wrap every target that exists; returns the targets not found."""
        missing = []
        modules = self._modules()
        for target in targets:
            module_name, *attrs = target.split(".")
            owner = sys.modules.get(f"{self.package}.{module_name}")
            if owner is None:
                missing.append(target)
                continue
            if len(attrs) == 2:  # a method, wrapped on its class
                cls = getattr(owner, attrs[0], None)
                original = None if cls is None else vars(cls).get(attrs[1])
                if original is None:
                    missing.append(target)
                    continue
                self._patch(cls, attrs[1], original, self.wrap(target, original))
                continue
            original = getattr(owner, attrs[0], None)
            if original is None:
                missing.append(target)
                continue
            wrapper = self.wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)
        return missing

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; returns the bindings that did not take."""
        failed = []
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                failed.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches.clear()
        return failed

    def write(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, **extra}, fh)


def summarize(spans) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    A span nested inside a span of the same name adds to ``calls`` and
    ``self_s`` but not again to ``total_s``, so recursion is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    covered: dict[int, float] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for sid, parent, name, start, end in spans:
        stats = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        stats["calls"] += 1
        stats["self_s"] += duration - covered.get(sid, 0.0)
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            stats["total_s"] += duration
    return out
