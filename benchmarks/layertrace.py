"""Per-layer tracing for the cacodes benchmark, installed from outside ``src/``.

``LayerTracer`` wraps the public entry points of each ``cacodes`` module in
timing spans.  A function is replaced in every ``cacodes`` module namespace
that holds it by name (``poly_gcd`` lives in ``algebra``, ``families`` and the
package itself), and a method is replaced on its class.  ``restore`` puts
every original back, so untraced runs patch nothing.

Each span adds to its layer's call count and self time: the span's duration
minus the time its child spans cover.  A few layers also count work:
matrix cells entering ``rref``, entries stored by ``MatrixGF``, and the
candidate vectors ``transmit`` draws against the dimensions it returns.
Spans are aggregated per layer in memory; nothing is written while tracing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (module, attribute path) of the traced entry point
SPANS = {
    "algebra.poly_gcd": ("cacodes.algebra", "poly_gcd"),
    "algebra.divmod": ("cacodes.algebra", "Polynomial.__divmod__"),
    "algebra.is_irreducible": ("cacodes.algebra", "is_irreducible"),
    "algebra.gf_init": ("cacodes.algebra", "GF.__init__"),
    "families.search_max": ("cacodes.families", "search_max_family"),
    "families.uniform_gcd": ("cacodes.families", "uniform_gcd_family"),
    "families.gcd_profile": ("cacodes.families", "gcd_profile"),
    "families.enumerate_irreducibles": ("cacodes.families", "enumerate_irreducibles"),
    "linalg.rref": ("cacodes.linalg", "MatrixGF.rref"),
    "linalg.matrix_init": ("cacodes.linalg", "MatrixGF.__init__"),
    "subspaces.subspace_init": ("cacodes.subspaces", "Subspace.__init__"),
    "subspaces.distance": ("cacodes.subspaces", "subspace_distance"),
    "subspaces.min_distance": ("cacodes.subspaces", "GrassmannianCode.min_distance"),
    "subspaces.pairwise_dims": ("cacodes.subspaces", "GrassmannianCode.pairwise_intersection_dims"),
    "ca.kernel": ("cacodes.ca", "LinearCA.kernel"),
    "channel.transmit": ("cacodes.channel", "transmit"),
    "channel.decode": ("cacodes.channel", "decode_min_distance"),
    "channel.simulate": ("cacodes.channel", "simulate"),
    "cli.main": ("cacodes.cli", "main"),
}
# The channel's candidate-vector samplers: counted, not timed.
DRAWS = (("cacodes.channel", "_random_vector_of"), ("cacodes.channel", "_random_ambient_vector"))


def _matrix_cells(m) -> int:
    return len(m.rows) * m.ncols


class LayerTracer:
    """Span and counter collection over the ``cacodes`` entry points.

    ``install`` patches, ``restore`` undoes it; between the two, spans are
    recorded only while ``enabled`` is true, so the benchmark's own checks
    can call the library without being counted.
    """

    def __init__(self):
        self.enabled = False
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = {
            "linalg.rref.cells": 0,
            "linalg.matrix_init.entries": 0,
            "channel.transmit.received_dims": 0,
            "channel.transmit.draws": 0,
        }
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, (module, path) in SPANS.items():
            self._patch(module, path, lambda fn, name=name: self._span(name, fn))
        for module, path in DRAWS:
            self._patch(module, path, self._draw)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if outer:  # a method: the class object is shared by every importer
            holders = [(owner, attr)]
        else:
            holders = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "cacodes" or mod_name.startswith("cacodes.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for holder, key in holders:
            self._patches.append((holder, key, original))
            setattr(holder, key, wrapper)

    # -- wrappers ------------------------------------------------------------------

    def _span(self, name: str, fn):
        before = after = None
        if name == "linalg.rref":
            def before(args):
                self.counts["linalg.rref.cells"] += _matrix_cells(args[0])
        elif name == "linalg.matrix_init":
            def after(args, result):
                self.counts["linalg.matrix_init.entries"] += _matrix_cells(args[0])
        elif name == "channel.transmit":
            def after(args, result):
                self.counts["channel.transmit.received_dims"] += result.dim
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _draw(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts["channel.transmit.draws"] += 1
            return fn(*args, **kwargs)

        return wrapper
