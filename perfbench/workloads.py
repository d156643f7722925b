"""The four workloads: inputs to wallx objects, the op list, and the checks.

Each workload class takes the generator's dict and builds every wallx object
the ops need (this is the set-up a user pays once per invocation).
``ops()`` lists the timed calls, ``render`` turns a result into the text a
user would read, and ``check`` recomputes a result by an independent route.
Checks run after the timed region; ``check_sample`` picks which ops get one
where the independent route costs as much as the op itself.

``ops()`` looks each timed function up on its wallx module when it is
called, so a traced pass that wrapped the module first times the wrapper.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from wallx import descendent, kclasses, wallcross
from wallx.descendent import (
    SetPartition,
    dt0_symbol,
    dt_to_pt,
    factorized_entry,
    partitions_of,
    pt_symbol,
    total_truncate,
    y_explicit,
)
from wallx.freelie import LieContext, LieElement, expand_to_uea
from wallx.kclasses import (
    VirtualClass,
    pushforward_closed_coh,
    pushforward_closed_K,
    quantum_integer,
    theta_closed,
)
from wallx.ring import LaurentElement as L
from wallx.ucoeff import EffectiveMonoid, linear_stability, set_partitions, utilde_word_sum
from wallx.wallcross import FreeLieBackend, InvariantTable, QuantumTorusBackend, wcf_rhs


def _stability(data: dict):
    return linear_stability(data["a"], data["b"])


def _sample(rng: random.Random, indices: list, always, extra: int) -> list:
    """Every index passing ``always``, plus ``extra`` seeded picks of the rest."""
    cheap = [i for i in indices if always(i)]
    rest = [i for i in indices if not always(i)]
    return sorted(cheap + rng.sample(rest, min(extra, len(rest))))


def terms_of(result) -> int:
    """Number of terms a user reads in an op's output."""
    if isinstance(result, dict):
        return sum(terms_of(v) for v in result.values())
    terms = getattr(result, "terms", None)
    if terms is not None:
        return len(terms)
    return len(result.num.terms) + len(result.den.terms)


class VwLadder:
    """Numerical wall-crossing ``vw_wcf`` over every class of a mass box."""

    def __init__(self, inputs: dict):
        self.monoid = EffectiveMonoid(inputs["generators"])
        self.tau = _stability(inputs["tau"])
        self.tau_prime = _stability(inputs["tau_prime"])
        self.chi = inputs["chi"]
        self.table = InvariantTable(
            {tuple(cls): L.gen(name) for cls, name in inputs["invariants"]},
            monoid=self.monoid,
        )
        self.targets = [tuple(t) for t in inputs["targets"]]

    def ops(self):
        return [
            (
                f"vw_wcf{t}",
                functools.partial(
                    wallcross.vw_wcf, t, self.tau, self.tau_prime, self.table, self.chi
                ),
            )
            for t in self.targets
        ]

    render = staticmethod(str)

    def check_sample(self, rng: random.Random) -> list:
        idx = list(range(len(self.targets)))
        return _sample(rng, idx, lambda i: sum(self.targets[i]) <= 4, 1)

    def check(self, i: int, result, rng: random.Random) -> bool:
        via_lie = wcf_rhs(
            self.targets[i],
            self.tau,
            self.tau_prime,
            self.table,
            QuantumTorusBackend(self.chi),
        )
        return via_lie.value == result


class FreeLie:
    """``wcf_rhs`` with the free Lie backend over a box of three-generator classes."""

    def __init__(self, inputs: dict):
        self.monoid = EffectiveMonoid(inputs["generators"])
        self.tau = _stability(inputs["tau"])
        self.tau_prime = _stability(inputs["tau_prime"])
        self.targets = [tuple(t) for t in inputs["targets"]]
        self.context = LieContext(sorted(self.targets))
        self.letters = InvariantTable(
            {cls: LieElement.letter(self.context, cls) for cls in self.context.letters},
            monoid=self.monoid,
        )
        self.backend = FreeLieBackend(self.context)

    def ops(self):
        return [
            (
                f"wcf_rhs{t}",
                functools.partial(
                    wallcross.wcf_rhs, t, self.tau, self.tau_prime, self.letters, self.backend
                ),
            )
            for t in self.targets
        ]

    render = staticmethod(repr)

    def check_sample(self, rng: random.Random) -> list:
        idx = list(range(len(self.targets)))
        return _sample(rng, idx, lambda i: sum(self.targets[i]) <= 4, 2)

    def check(self, i: int, result, rng: random.Random) -> bool:
        words = utilde_word_sum(
            self.targets[i], self.tau, self.tau_prime, self.monoid, context=self.context
        )
        return expand_to_uea(result) == words


def _dt_to_pt_explicit(keys: tuple):
    """The y-route sum with every corner taken from its closed form."""
    corners = {}
    acc = L.zero()
    for part in set_partitions(range(len(keys))):
        term = pt_symbol(sum(keys[i] for i in b) for b in part)
        term = term * dt0_symbol(()) ** (1 - len(part))
        for block in part:
            sub = tuple(sorted(keys[i] for i in block))
            if sub not in corners:
                corners[sub] = y_explicit(sub)
            term = term * corners[sub]
        acc = acc + term
    return acc


class Descendent:
    """``dt_to_pt`` key sweeps plus ``exp_minus_delta`` on small ground sets."""

    # The two-level theorem route costs about ten times the op at six keys.
    THEOREM_MAX_KEYS = 5
    SIGMAS_CHECKED = 6

    def __init__(self, inputs: dict):
        self.keysets = [tuple(k) for k in inputs["keysets"]]
        self.grounds = [(tuple(g["ground"]), g["order"]) for g in inputs["exp_minus_delta"]]

    def ops(self):
        out = [
            (f"dt_to_pt{k}", functools.partial(descendent.dt_to_pt, k))
            for k in self.keysets
        ]
        out += [
            (f"exp_minus_delta{g},{o}", functools.partial(descendent.exp_minus_delta, g, o))
            for g, o in self.grounds
        ]
        return out

    @staticmethod
    def render(result) -> str:
        if isinstance(result, dict):
            return "\n".join(
                sorted(f"{target} <- {source}: {v}" for (target, source), v in result.items())
            )
        return str(result)

    def check_sample(self, rng: random.Random) -> list:
        return list(range(len(self.keysets) + len(self.grounds)))

    def check(self, i: int, result, rng: random.Random) -> bool:
        if i < len(self.keysets):
            keys = self.keysets[i]
            if len(keys) <= self.THEOREM_MAX_KEYS:
                return dt_to_pt(keys, route="theorem") == result
            return _dt_to_pt_explicit(keys) == result
        ground, order = self.grounds[i - len(self.keysets)]
        finest = SetPartition.finest(ground)
        sigmas = partitions_of(ground)
        picked = rng.sample(sigmas, min(self.SIGMAS_CHECKED, len(sigmas)))
        picked.append(SetPartition.coarsest(ground))
        return all(
            factorized_entry(sigma, order)
            == total_truncate(result.get((sigma, finest), L.zero()), order)
            for sigma in picked
        )


class Kernels:
    """Hundreds of short ``kclasses`` calls on seeded ranks and twists."""

    def __init__(self, inputs: dict):
        self.specs = inputs["ops"]
        self.args = []
        for spec in self.specs:
            kind = spec["kind"]
            if kind == "theta":
                self.args.append((spec["rank"], spec["order"]))
                continue
            r = spec["rank"]
            if kind == "pushforward_coh":
                V = VirtualClass([L.gen(f"w{i}") for i in range(r)], mode="coh")
                V = V.twist(spec["shift"] * L.gen("e"))
                self.args.append((L.gen("h") ** spec["k"], V))
                continue
            V = VirtualClass([L.gen(f"t{i}") for i in range(r)])
            V = V.twist(L.monomial(1, {"q": spec["twist"]}))
            if kind == "pushforward_K":
                self.args.append((L.monomial(1, {"s": spec["k"]}), V))
            elif kind == "pushforward_sym":
                self.args.append((1, V))
            else:
                self.args.append((V,))

    _CALLS = {
        "pushforward_K": "projective_pushforward_K",
        "pushforward_sym": "projective_pushforward_symmetrized",
        "rigidity": "rigidity_residue",
        "pushforward_coh": "projective_pushforward_coh",
        "theta": "theta_series",
    }

    def ops(self):
        return [
            (
                f"{spec['kind']}#{i}",
                functools.partial(getattr(kclasses, self._CALLS[spec["kind"]]), *args),
            )
            for i, (spec, args) in enumerate(zip(self.specs, self.args))
        ]

    render = staticmethod(str)

    def check_sample(self, rng: random.Random) -> list:
        return list(range(len(self.specs)))

    def check(self, i: int, result, rng: random.Random) -> bool:
        spec, args = self.specs[i], self.args[i]
        kind = spec["kind"]
        if kind == "pushforward_K":
            return result == pushforward_closed_K(spec["k"], args[1])
        if kind == "pushforward_coh":
            return result == pushforward_closed_coh(spec["k"], args[1])
        if kind == "pushforward_sym":
            return result == quantum_integer(spec["rank"])
        if kind == "rigidity":
            half = L.monomial(1, {"k": Fraction(1, 2)})
            return result == (half.monomial_inverse() - half) * quantum_integer(spec["rank"])
        rank, order = args
        return all(
            result.coeff_of("y", n) == theta_closed(rank, n) for n in range(order + 1)
        )


WORKLOADS = {
    "vw-ladder": VwLadder,
    "free-lie": FreeLie,
    "descendent": Descendent,
    "kernels": Kernels,
}
