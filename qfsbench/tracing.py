"""Spans around the layers' public functions, recorded from outside the package.

:meth:`Tracer.installed` replaces each layer function in every ``qfsurface``
module namespace that binds it (``holonomy`` is bound in ``surface``,
``cocycles`` and ``cli``; ``PantsDecompositionGraph.plan`` reaches
``_build_plan`` through the ``presentation`` globals) and puts the originals
back on exit.  A layer whose function no longer exists is skipped and
reports zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (layer name, defining module, function names)
LAYERS = (
    ("cli", "qfsurface.cli", ("main",)),
    ("config.parse_config", "qfsurface.config", ("parse_config",)),
    ("presentation.build_plan", "qfsurface.presentation", ("_build_plan",)),
    ("surface.holonomy", "qfsurface.surface", ("holonomy",)),
    ("surface.complex_length_of_curve", "qfsurface.surface", ("complex_length_of_curve",)),
    ("cocycles.fd_basis_cocycles", "qfsurface.cocycles", ("fd_basis_cocycles",)),
    ("cocycles.goldman_pairing", "qfsurface.cocycles", ("goldman_pairing",)),
    ("cocycles.symplectic_gram", "qfsurface.cocycles", ("symplectic_gram",)),
    ("limitset.limit_set", "qfsurface.limitset", ("limit_set",)),
    ("limitset.emit", "qfsurface.limitset", ("cloud_to_csv", "cloud_to_svg")),
)
LAYER_NAMES = tuple(name for name, _module, _attrs in LAYERS)
# the layer whose return values are kept for health checks made after the op
KEPT_LAYER = "cocycles.fd_basis_cocycles"


class Span:
    __slots__ = ("id", "name", "parent", "start", "end")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start


class Tracer:
    """Records spans while ``recording`` is true, and keeps the return values
    of KEPT_LAYER in ``kept``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.recording = False
        self.spans = []
        self.kept = []
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(self._next_id, name, parent, self.clock())
            self._next_id += 1
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                self.spans.append(span)
            if name == KEPT_LAYER:
                self.kept.append(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, layers=LAYERS):
        modules = [module for name, module in list(sys.modules.items())
                   if module is not None
                   and (name == "qfsurface" or name.startswith("qfsurface."))]
        patches = []
        try:
            for layer, home_name, attrs in layers:
                home = sys.modules.get(home_name)
                for attr in attrs:
                    original = getattr(home, attr, None)
                    if original is None:
                        continue
                    wrapper = self.wrap(layer, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)
                                patches.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)

    def take(self):
        """Spans and kept values recorded since the last call."""
        spans, kept = self.spans, self.kept
        self.spans, self.kept = [], []
        return spans, kept


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id] for span in spans}


def count_under(spans, name, ancestor):
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    by_id = {span.id: span for span in spans}
    count = 0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent)
        count += parent is not None
    return count
