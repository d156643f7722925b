"""Spans around the public functions of each wallx layer, from outside.

A traced worker calls ``install(tracer)`` after its inputs are loaded.  Every
wrapped function records one span: its name, start, end and the span that
was open when it was called.  Spans stay in flat arrays in memory and are
written out once the run is over.  A layer's self time is its span's
duration minus the durations of its direct child spans; the program is one
thread, so children nest strictly inside their parent.

A wrapper is installed at every binding a caller looks up: the home module,
every ``wallx`` module that imported the function by name, and every class
attribute aliasing the same method (``__radd__ = __add__``).
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter


class Tracer:
    """In-memory span store plus plain counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span named ``name``; ``on_result`` sees each
        return value (for counters that depend on what the call produced)."""
        ident = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count calls only, with no span."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_yields(self, name: str, fn):
        """Generator function ``fn`` wrapped to count the items its outermost
        calls yield; calls made while one of its generators is advancing
        (its own recursion) are not counted again."""
        counts = self.counts
        counts.setdefault(name, 0)
        depth = [0]

        def advance(gen, nested):
            while True:
                depth[0] += 1
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    depth[0] -= 1
                if not nested:
                    counts[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return advance(fn(*args, **kwargs), depth[0] > 0)

        return wrapper

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        per_span = self_times(
            self.span_parent, self.span_start, self.span_end
        )
        out = {name: [0, 0.0] for name in self.names}
        for ident, own in zip(self.span_name, per_span):
            entry = out[self.names[ident]]
            entry[0] += 1
            entry[1] += own
        return {name: (calls, own) for name, (calls, own) in out.items()}

    def write(self, path) -> None:
        """Every span as a tab-separated line: name, parent index, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart\tend\n")
            for ident, parent, start, end in zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                fh.write(f"{self.names[ident]}\t{parent}\t{start!r}\t{end!r}\n")


def self_times(parents, starts, ends) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    ``parents[i]`` is the index of span i's parent, or -1 for a root; a
    parent always has a smaller index than its children.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


def _bindings(original):
    """Every (owner, attribute) in loaded wallx modules bound to ``original``."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "wallx" or modname.startswith("wallx.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
            elif isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        found.append((value, cattr))
    return found


def _patch(original, wrapper) -> None:
    bindings = _bindings(original)
    if not bindings:
        raise LookupError(f"no binding found for {original!r}")
    for owner, attr in bindings:
        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each wallx layer at every binding."""
    import wallx.cli  # noqa: F401  (its imported names are bindings too)
    from wallx import descendent, freelie, kclasses, ring, ucoeff, wallcross

    L = ring.LaurentElement
    spans = [
        ("ring.mul", L.__mul__),
        ("ring.add", L.__add__),
        ("ring.add", L.__sub__),
        ("ring.residue", ring.residue_K),
        ("ring.residue", ring.residue_coh),
        ("ring.div", ring.exact_laurent_div),
        ("ring.str", L.__str__),
        ("kclasses.qint", kclasses.quantum_integer),
        ("kclasses.pushforward", kclasses.projective_pushforward_K),
        ("kclasses.pushforward", kclasses.projective_pushforward_symmetrized),
        ("kclasses.pushforward", kclasses.projective_pushforward_coh),
        ("kclasses.rigidity", kclasses.rigidity_residue),
        ("kclasses.theta", kclasses.theta_series),
        ("freelie.dynkin", freelie.dynkin_project),
        ("freelie.expand", freelie.expand_to_uea),
        ("freelie.evaluate", freelie.evaluate_lie),
        ("ucoeff.slope", ucoeff.StabilityData.slope_of),
        ("ucoeff.word_sum", ucoeff.utilde_word_sum),
        ("wallcross.vw_wcf", wallcross.vw_wcf),
        ("wallcross.wcf_rhs", wallcross.wcf_rhs),
        ("wallcross.bracket", wallcross.QuantumTorusBackend.bracket),
        ("wallcross.bracket", wallcross.FreeLieBackend.bracket),
        ("descendent.dt_to_pt", descendent.dt_to_pt),
        ("descendent.y_recursion", descendent.y_recursion),
        ("descendent.exp_minus_delta", descendent.exp_minus_delta),
        ("descendent.delta_apply", descendent.delta_apply),
    ]
    for name, fn in spans:
        _patch(fn, tracer.spanned(name, fn))

    def count_splittings(parts):
        tracer.count("ucoeff.splittings", len(parts))

    def count_nonzero(value):
        if value:
            tracer.count("ucoeff.U.nonzero")

    tracer.counts.setdefault("ucoeff.splittings", 0)
    tracer.counts.setdefault("ucoeff.U.nonzero", 0)
    decompositions = ucoeff.EffectiveMonoid.decompositions
    _patch(
        decompositions,
        tracer.spanned("ucoeff.decompositions", decompositions, count_splittings),
    )
    _patch(ucoeff.U_coeff, tracer.spanned("ucoeff.U", ucoeff.U_coeff, count_nonzero))
    _patch(L.__init__, tracer.counted("ring.init", L.__init__))
    _patch(
        ucoeff.set_partitions,
        tracer.counted_yields("ucoeff.set_partitions.count", ucoeff.set_partitions),
    )
