"""Order reduction to QUBO form by pairwise substitution.

Each round picks the variable pair occurring in the most distinct monomials
of degree >= 3 (ties to the lexicographically smallest pair), replaces the
pair with a fresh ancilla inside those monomials, and adds the consistency
penalty

    M_OR * (x*y - 2*x*z - 2*y*z + 3*z)

which is zero exactly when z = x*y and at least M_OR otherwise.  While the
rounds run, a monomial of degree >= 3 lives only as arrays: its column of a
bool incidence of variables against those monomials, its degree and its
stamp, the place in the term order that its last rewrite gave it.  Rewriting
the holders of the pair clears two incidence rows of their columns and, for
the holders that keep degree >= 3, sets the ancilla's row; the ancilla is
fresh, so a rewritten monomial never meets an existing one.  A holder of
degree 3 falls to degree 2: its last variable is the one row its column
keeps once the pair's rows are cleared, and it leaves the arrays as one term
of the degree <= 2 dict.  That dict, which starts as the input's degree <= 2
terms and takes each round's fallen holders and gadget terms as they come,
is the QUBO's term dict: each term added has a stamp above all before it, so
the dict's order is the term order, and nothing in it is ever moved.  The
input is not copied or changed.

The pair counts are kept up to date, not recounted: a dense matrix counts,
for every two variables, the degree >= 3 monomials holding both.  One
product of the incidence with itself builds it, and a round corrects only
the rows and columns of the pair and its ancilla.  A round still scans:
picking the pair reads the whole count matrix, quadratic in the variables,
and finding the pair's holders reads two incidence rows over every degree
>= 3 input monomial.  The count correction is in proportion to the holders
times the variables, so over all rounds the reduction grows with the cube of
the variable count.  At tens to a few hundred variables, a round costs some
thirty small numpy calls plus one dict insertion per fallen holder and
gadget term, about 50 us.  Substitution never rewrites degree-2
terms: gadget penalties from earlier rounds must survive verbatim or the
reduction stops being value-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    variable w besides x and y, so no other pair changes, and z's counts are
    the lost ones less one at each fallen holder's w.

    Column j of the incidence is one degree >= 3 monomial through all its
    rewrites, with ``degree[j]`` and ``stamp[j]``.  A round clears rows x and
    y of the holders' columns first, so a holder's lost counts are its
    column's remaining rows, and a fallen holder's w is the one row below z
    that it keeps.  It rewrites the holders in stamp order, restamps them
    past every earlier stamp, and turns each fallen one into the term (w, z)
    of ``low``, the degree <= 2 terms, which are the result's.
    """
    if not 0 < reduction_penalty < np.inf:
        raise ValueError(f"reduction penalty must be finite and positive, "
                         f"got {reduction_penalty!r}")
    base = variable_count(poly, num_variables)
    # the gadget over x=0, y=1, z=2, less any coefficient within DROP_TOL
    gadget = list(rosenberg_penalty(0, 1, 2, reduction_penalty).terms.items())
    reduced = PseudoBooleanPolynomial(base)
    low = reduced.terms
    monos, coeffs = [], []
    for mono, coeff in poly.terms.items():
        if len(mono) <= 2:
            low[mono] = coeff
        else:
            monos.append(mono)
            coeffs.append(coeff)
    stamp = np.arange(len(monos))
    next_stamp = len(monos)
    degree = np.fromiter(map(len, monos), np.int64, len(monos))
    capacity = base + 1
    incidence = np.zeros((capacity, len(monos)), dtype=bool)
    incidence[np.fromiter(chain.from_iterable(monos), np.intp, int(degree.sum())),
              np.repeat(stamp, degree)] = True
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
        cols = cols[np.argsort(stamp[cols])]
        kept = degree[cols] > 3  # the holders still of degree >= 3 once rewritten
        fallen, cols_kept = cols[~kept], cols[kept]
        incidence[x, cols] = incidence[y, cols] = False
        lost = incidence[:z, cols].sum(axis=1, dtype=np.int32)
        last = incidence[:z, fallen].argmax(axis=0)
        for v in (x, y):
            counts[v, :z] -= lost
            counts[:z, v] -= lost
        counts[x, y] = counts[y, x] = 0
        counts[z, :z] = counts[:z, z] = lost - np.bincount(last, minlength=z)
        incidence[last, fallen] = False
        incidence[z, cols_kept] = True
        degree[cols_kept] -= 1
        stamp[cols] = np.arange(next_stamp, next_stamp + len(cols))
        next_stamp += len(cols)
        # z is the largest id so far, so each term below is sorted and new
        for w, j in zip(last.tolist(), fallen.tolist()):
            low[w, z] = coeffs[j]
        ids = (x, y, z)
        for mono, coeff in gadget:
            mono = tuple(ids[v] for v in mono)
            if mono == (x, y):
                reduced.add_term(mono, coeff)  # the one gadget term that can be stored
            else:
                low[mono] = coeff
        z += 1

    reduced.num_variables = z
    registry = AncillaRegistry(base_count=base, entries=tuple(entries))
    return QuboProblem(polynomial=reduced, registry=registry)


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

    Linear terms on the diagonal by ascending i, then couplings by ascending
    (i, j); the constant rides in a comment, so annealer tooling reads the file as is.
    """
    poly = qubo.polynomial
    if poly.degree() > 2:
        raise ValueError("polynomial is not quadratic")
    terms = poly.terms
    linear = sorted(m for m in terms if len(m) == 1)
    pairs = sorted(m for m in terms if len(m) == 2)
    lines = [f"c constant offset {poly.constant()!r}",
             f"p qubo 0 {qubo.num_variables} {len(linear)} {len(pairs)}"]
    lines += [f"{i} {i} {terms[(i,)]!r}" for (i,) in linear]
    lines += [f"{i} {j} {terms[i, j]!r}" for i, j in pairs]
    return "\n".join(lines) + "\n"
