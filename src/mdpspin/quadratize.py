"""Order reduction to QUBO form by pairwise substitution.

Each round picks the variable pair occurring in the most distinct monomials
of degree >= 3 (ties to the lexicographically smallest pair), replaces the
pair with a fresh ancilla inside those monomials, and adds the consistency
penalty

    M_OR * (x*y - 2*x*z - 2*y*z + 3*z)

which is zero exactly when z = x*y and at least M_OR otherwise.  The rounds
edit one copy of the input in place and rewrite only the monomials that hold
the pair; the ancilla is fresh, so a rewritten monomial never meets an
existing one.  The pair counts are kept up to date, not recounted: a dense
matrix counts, for every two variables, the degree >= 3 monomials holding
both.  One product of a bool incidence of variables against those monomials
builds it, and a round corrects only the rows and columns of the pair and
its ancilla.  A round still scans: picking the pair reads the whole count
matrix, quadratic in the variables, and finding the pair's holders reads the
incidence of every degree >= 3 input monomial.  Only the count correction
and the rewrite are in proportion to the monomials rewritten (times the
variables, for the correction), so over all rounds the reduction grows with
the cube of the variable count.  Substitution never rewrites degree-2
terms: gadget penalties from earlier rounds must survive verbatim or the
reduction stops being value-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pseudoboolean import PseudoBooleanPolynomial, variable_count

REDUCTION_PENALTY = 5.0  # the uniform gadget strength M_OR of every round


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


def quadratize(poly: PseudoBooleanPolynomial, reduction_penalty: float = REDUCTION_PENALTY,
               num_variables: int | None = None) -> QuboProblem:
    """Reduce an arbitrary-degree polynomial to degree <= 2.

    Deterministic given the input, which is left unchanged; a degree <= 2
    input comes back with the same terms and an empty registry.

    ``counts[a, b]`` is the number of degree >= 3 monomials holding both a
    and b, symmetric with a zero diagonal.  A round takes the first maximum
    of ``counts`` in row-major order, which is the most frequent pair with
    ties to the lexicographically smallest: if (a, b), a < b, is that pair,
    an entry (r, c) before it would make (min(r, c), max(r, c)), r != c, a
    maximal pair below (a, b).  Each holder of (x, y) takes one count from
    (u, x) and (u, y) for each of its other variables u, and adds one to
    (u, z) if it keeps degree >= 3; a holder that falls to degree 2 held one
    variable besides x and y, so no other pair changes.

    Column j of the incidence stays with one monomial through its rewrites;
    ``order[j]`` is the monomial's place in the term order, the order in
    which the holders are rewritten and their rewrites appended.
    """
    if reduction_penalty <= 0:
        raise ValueError("reduction penalty must be positive")
    base = variable_count(poly, num_variables)
    work = poly.copy()
    terms = work.terms
    # the gadget over x=0, y=1, z=2, less any coefficient within DROP_TOL
    gadget = list(rosenberg_penalty(0, 1, 2, reduction_penalty).terms.items())
    monos = [m for m in terms if len(m) >= 3]
    order = np.arange(len(monos))
    stamp = len(monos)
    capacity = base + 1
    incidence = np.zeros((capacity, len(monos)), dtype=bool)
    incidence[[v for m in monos for v in m], np.repeat(order, [len(m) for m in monos])] = True
    counts = np.zeros((capacity, capacity), dtype=np.int32)
    # the float32 product is exact: every count is below 2^24
    high = incidence[:base].astype(np.float32)
    counts[:base, :base] = high @ high.T
    np.fill_diagonal(counts, 0)
    entries: list[tuple[int, int, int]] = []
    z = base
    while True:
        if z == capacity:
            grown = np.zeros((2 * capacity, len(monos)), dtype=bool)
            grown[:capacity] = incidence
            incidence = grown
            counts = np.pad(counts, (0, capacity))
            capacity *= 2
        # rows from z on are zero; row z keeps the slice nonempty at base 0
        x, y = divmod(int(counts[:z + 1].argmax()), capacity)
        if counts[x, y] == 0:
            break
        entries.append((z, x, y))

        cols = np.flatnonzero(incidence[x] & incidence[y])
        cols = cols[np.argsort(order[cols])]
        held = incidence[:z, cols]
        kept = held.sum(axis=0) > 3  # the holders still of degree >= 3 once rewritten
        lost = held.sum(axis=1, dtype=np.int32)
        gained = held[:, kept].sum(axis=1, dtype=np.int32)
        lost[x] = lost[y] = gained[x] = gained[y] = 0
        for v in (x, y):
            counts[v, :z] -= lost
            counts[:z, v] -= lost
        counts[x, y] = counts[y, x] = 0
        counts[z, :z] = counts[:z, z] = gained
        incidence[x, cols] = incidence[y, cols] = False
        incidence[:z, cols[~kept]] = False
        incidence[z, cols[kept]] = True
        for j in cols.tolist():
            # z is the largest id so far, so the rewrite is sorted and new
            mono = monos[j]
            i, k = mono.index(x), mono.index(y)
            monos[j] = mono[:i] + mono[i + 1:k] + mono[k + 1:] + (z,)
            terms[monos[j]] = terms.pop(mono)
        order[cols] = np.arange(stamp, stamp + len(cols))
        stamp += len(cols)
        ids = (x, y, z)
        for mono, coeff in gadget:
            mono = tuple(ids[v] for v in mono)
            if mono == (x, y):
                work.add_term(mono, coeff)  # the one gadget term that can be stored
            else:
                terms[mono] = coeff
        z += 1

    work.num_variables = z
    registry = AncillaRegistry(base_count=base, entries=tuple(entries))
    return QuboProblem(polynomial=work, registry=registry,
                       reduction_penalty=float(reduction_penalty))


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
