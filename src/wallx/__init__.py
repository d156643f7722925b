"""Exact computer algebra for wall-crossing computations.

Layers, bottom to top:

- ``ring``: Laurent/rational arithmetic, expansions, residues, the series
  exponential.
- ``kclasses``: wedge and Euler classes of formal root data, vertex kernels,
  quantum integers, projective-bundle pushforwards, theta coefficients.
- ``freelie``: free Lie algebras in the Lyndon basis, tensor-algebra
  expansion, Dynkin projection, exp(ad) checks.
- ``ucoeff``: effective-class monoids, weak stability data, and the ordered /
  grouped / bracket coefficient families with their closed forms.
- ``wallcross``: wall-crossing sums over pluggable Lie backends, pair
  invariants and their inversion, numerical invariants across walls.
- ``descendent``: set-partition coproduct, truncated matrix exponential,
  corner-coefficient recursion and its explicit solution, the descendent
  transformation, Adams rescaling.
- ``selftest``: the acceptance checks shared by the test suite and the CLI.
- ``cli``: the ``wallx`` command-line front end.
"""

from __future__ import annotations

__version__ = "0.1.0"
