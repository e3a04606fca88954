"""Order reduction to QUBO form by pairwise substitution.

Each round picks the variable pair occurring in the most distinct monomials
of degree >= 3 (ties to the lexicographically smallest pair), replaces the
pair with a fresh ancilla inside those monomials, and adds the consistency
penalty

    M_OR * (x*y - 2*x*z - 2*y*z + 3*z)

which is zero exactly when z = x*y and at least M_OR otherwise.  The rounds
edit one copy of the input in place and rewrite only the monomials that hold
the pair; the ancilla is fresh, so a rewritten monomial never meets an
existing one.  The pair counts are kept up to date, not recounted: an index
from each pair to the degree >= 3 monomials holding it is built once, and a
round re-indexes only the monomials it rewrites, so its cost is in
proportion to them.  Substitution never rewrites degree-2 terms: gadget
penalties from earlier rounds must survive verbatim or the reduction stops
being value-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .pseudoboolean import PseudoBooleanPolynomial, all_assignment_energies, variable_count


@dataclass(frozen=True)
class AncillaRegistry:
    """Birth records of the ancillas, in introduction order.

    entries[i] = (ancilla_id, parent_a, parent_b) with ancilla ids consecutive
    from ``base_count``; parents are original variables or earlier ancillas.
    """

    base_count: int
    entries: tuple[tuple[int, int, int], ...] = ()

    @property
    def num_ancillas(self) -> int:
        return len(self.entries)

    @property
    def total_variables(self) -> int:
        return self.base_count + len(self.entries)


@dataclass(frozen=True)
class QuboProblem:
    polynomial: PseudoBooleanPolynomial
    registry: AncillaRegistry
    reduction_penalty: float

    @property
    def num_variables(self) -> int:
        return self.registry.total_variables


def rosenberg_penalty(x: int, y: int, z: int, strength: float) -> PseudoBooleanPolynomial:
    """The pair-substitution consistency gadget as a polynomial."""
    gadget = PseudoBooleanPolynomial()
    gadget.add_term((x, y), strength)
    gadget.add_term((x, z), -2.0 * strength)
    gadget.add_term((y, z), -2.0 * strength)
    gadget.add_term((z,), 3.0 * strength)
    return gadget


def quadratize(poly: PseudoBooleanPolynomial, reduction_penalty: float = 5.0,
               num_variables: int | None = None) -> QuboProblem:
    """Reduce an arbitrary-degree polynomial to degree <= 2.

    Deterministic given the input, which is left unchanged; a degree <= 2
    input comes back with the same terms and an empty registry.
    """
    if reduction_penalty <= 0:
        raise ValueError("reduction penalty must be positive")
    base = variable_count(poly, num_variables)
    work = poly.copy()
    work.num_variables = base
    entries: list[tuple[int, int, int]] = []
    next_id = base
    # holders[pair]: the degree >= 3 monomials holding the pair, in term order,
    # since a monomial enters it when add_term appends it to work.terms
    holders: dict[tuple[int, int], dict[tuple[int, ...], None]] = {}
    for mono in [m for m in work.terms if len(m) >= 3]:
        for pair in combinations(mono, 2):
            holders.setdefault(pair, {})[mono] = None
    while holders:
        top = max(map(len, holders.values()))
        x, y = min(p for p, h in holders.items() if len(h) == top)
        z = next_id
        next_id += 1
        entries.append((z, x, y))

        for mono in holders.pop((x, y)):
            for pair in combinations(mono, 2):
                if pair != (x, y):
                    del holders[pair][mono]
                    if not holders[pair]:
                        del holders[pair]
            # z is the largest id so far, so the rewrite stays sorted
            new = tuple(v for v in mono if v != x and v != y) + (z,)
            work.add_term(new, work.terms.pop(mono))
            for pair in combinations(new, 2) if len(new) >= 3 else ():
                holders.setdefault(pair, {})[new] = None
        for mono, coeff in rosenberg_penalty(x, y, z, reduction_penalty).terms.items():
            work.add_term(mono, coeff)

    registry = AncillaRegistry(base_count=base, entries=tuple(entries))
    return QuboProblem(polynomial=work, registry=registry,
                       reduction_penalty=float(reduction_penalty))


def lift(assignment, registry: AncillaRegistry) -> np.ndarray:
    """Extend an original-variable assignment with consistent ancilla values."""
    x = np.asarray(assignment, dtype=np.int8)
    if x.shape[0] < registry.base_count:
        raise ValueError(
            f"assignment covers {x.shape[0]} variables, need {registry.base_count}"
        )
    full = np.zeros(registry.total_variables, dtype=np.int8)
    full[: registry.base_count] = x[: registry.base_count]
    for z, a, b in registry.entries:
        full[z] = full[a] & full[b]
    return full


def project(full_assignment, registry: AncillaRegistry) -> np.ndarray:
    """Original-variable slice of a full assignment."""
    full = np.asarray(full_assignment, dtype=np.int8)
    if full.shape[0] < registry.total_variables:
        raise ValueError("assignment does not cover all ancillas")
    return full[: registry.base_count].copy()


def consistency_violations(full_assignment, registry: AncillaRegistry) -> int:
    """Number of ancillas whose value differs from their parents' product."""
    full = np.asarray(full_assignment, dtype=np.int8)
    if full.shape[0] < registry.total_variables:
        raise ValueError("assignment does not cover all ancillas")
    return sum(1 for z, a, b in registry.entries if full[z] != (full[a] & full[b]))


def minimized_over_ancillas(qubo: QuboProblem) -> np.ndarray:
    """Per-original-assignment minimum of the QUBO over all ancilla settings.

    Entry i is min_z QUBO(x=i, z) where bit v of i is original variable v.
    This is the quantity that must reproduce the unreduced polynomial's
    values for the reduction to be exact.
    """
    reg = qubo.registry
    energies = all_assignment_energies(qubo.polynomial, reg.total_variables)
    if reg.num_ancillas == 0:
        return energies
    # ancilla ids are the high bits, so a reshape exposes them as the rows
    grid = energies.reshape(1 << reg.num_ancillas, 1 << reg.base_count)
    return grid.min(axis=0)


def to_qubo_text(qubo: QuboProblem) -> str:
    """Coordinate-list export: one ``i j coeff`` line per nonzero, i <= j.

    Linear terms appear on the diagonal; the constant term rides in a
    comment so common annealer tooling can ingest the file directly.
    """
    poly = qubo.polynomial
    if poly.degree() > 2:
        raise ValueError("polynomial is not quadratic")
    diag: dict[int, float] = {}
    offdiag: dict[tuple[int, int], float] = {}
    constant = 0.0
    for mono, coeff in poly.terms.items():
        if len(mono) == 0:
            constant += coeff
        elif len(mono) == 1:
            diag[mono[0]] = coeff
        else:
            offdiag[mono] = coeff
    lines = [
        f"c constant offset {constant!r}",
        f"p qubo 0 {qubo.num_variables} {len(diag)} {len(offdiag)}",
    ]
    for i in sorted(diag):
        lines.append(f"{i} {i} {diag[i]!r}")
    for i, j in sorted(offdiag):
        lines.append(f"{i} {j} {offdiag[(i, j)]!r}")
    return "\n".join(lines) + "\n"
