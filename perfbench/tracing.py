"""Timing wrappers around pstlab's public layer functions.

The package imports its functions with ``from .x import f``, so one function
object is bound under the same name in several modules (``expm`` lives in
``numerics``, ``pst_core`` and ``experiments``).  `Tracer.installed` wraps each
listed function once and rebinds the wrapper in every ``pstlab`` module that
holds the original, then restores every binding on exit.

Each call becomes a span (name, start, end, parent span).  Counters are read
from return values at the same boundary.  Spans stay in memory; `metrics`
folds them into per-function call counts, total and self time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

WRAPPED = {
    "pauli": ("matrix_of", "enumerate_group"),
    "liouville": ("hamiltonian_superop", "pauli_unitary_superop", "dissipator_superop"),
    "numerics": ("expm", "logm_principal", "op_norm", "triangle_quadrature",
                 "interval_quadrature"),
    "magnus": ("omega1_alpha", "omega2_alpha"),
    "pst_core": ("pst_realization", "pst_channel", "effective_generator"),
    "experiments": ("run_table1", "run_parity_sweep", "run_magnus_crosscheck"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in WRAPPED.items() for name in names)

# Counter metrics derived from return values: name -> unit.
COUNTERS = {
    "liouville.bytes_built": "B",
    "numerics.expm.max_dim": "count",
    "numerics.expm.unique_ratio": "ratio",
    "numerics.quadrature.evaluations": "count",
    "numerics.quadrature.max_error_estimate": "norm",
}


def metric_units() -> dict[str, str]:
    """Every metric `Tracer.metrics` reports, with its unit."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_s"] = "s"
        units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    return units


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._bytes_built = 0
        self._expm_max_dim = 0
        self._expm_digests: set[bytes] = set()
        self._quadrature_evaluations = 0
        self._quadrature_max_error = 0.0

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, self._open[-1] if self._open else None,
                                   time.perf_counter()))
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._open.pop()
            self._count(name, args, result)
            return result
        return traced

    def _count(self, name: str, args, result) -> None:
        module = name.partition(".")[0]
        if module == "liouville":
            self._bytes_built += result.nbytes
        elif name == "numerics.expm":
            import numpy as np

            generator = np.asarray(args[0], dtype=complex)
            self._expm_digests.add(hashlib.blake2b(generator.tobytes()).digest())
            self._expm_max_dim = max(self._expm_max_dim, result.shape[0])
        elif name.endswith("_quadrature"):
            self._quadrature_evaluations += result.evaluations
            self._quadrature_max_error = max(self._quadrature_max_error,
                                             result.estimated_error)

    @contextmanager
    def installed(self, package: str = "pstlab"):
        """Rebind every wrapped function in every loaded module of `package`."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        rebound = []
        try:
            for module_name, names in WRAPPED.items():
                home = sys.modules[f"{package}.{module_name}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(f"{module_name}.{name}", original)
                    for module in modules:
                        if getattr(module, name, None) is original:
                            setattr(module, name, wrapper)
                            rebound.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(rebound):
                setattr(module, name, original)

    def metrics(self) -> dict[str, float]:
        """Per-function calls, total and self seconds, plus the counters."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            calls[span.name] += 1
            total[span.name] += duration
            self_time[span.name] += duration - child_time[index]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
        expm_calls = calls["numerics.expm"]
        out["liouville.bytes_built"] = self._bytes_built
        out["numerics.expm.max_dim"] = self._expm_max_dim
        out["numerics.expm.unique_ratio"] = (
            len(self._expm_digests) / expm_calls if expm_calls else 0.0
        )
        out["numerics.quadrature.evaluations"] = self._quadrature_evaluations
        out["numerics.quadrature.max_error_estimate"] = self._quadrature_max_error
        return out
