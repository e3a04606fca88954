"""Sparse multilinear polynomials over binary variables.

A monomial is a sorted, duplicate-free tuple of variable ids; the empty
tuple is the constant term.  Multilinearity (x^2 = x) is applied whenever a
term is added, so no monomial ever holds a repeated id.  Coefficients below
DROP_TOL in magnitude are discarded to keep the term map from accumulating
floating-point dust.  ``TermTable`` is the array form that the evaluator,
dense enumeration and the annealer share; ``bit_rows`` is the one place that
knows the enumeration order, in which assignment i has x_v = bit v of i.
Dense enumeration splits the variables into a low and a high half and sums
each distinct high-half monomial once, so its float64 product runs over
those distinct monomials rather than over all terms.  It folds the low half
into a weight table a fixed block of assignments at a time, and takes the
product a fixed block of high-half assignments at a time, so that no
temporary of the 2^n energies' size is held beside them, and
``exhaustive_ground_state`` holds no 2^n vector at all.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .errors import InstanceTooLargeError

Monomial = tuple[int, ...]

DROP_TOL = 1e-12
ENERGY_MATCH_TOL = 1e-9  # energies this close are equal: ties, gaps and hits
ENUMERATION_BLOCK = 128  # low-half assignments per block of the weight table
ENUMERATION_MAX_VARIABLES = 26  # 2^26 float64 energies are 512 MiB; check c06 enumerates 25
EXHAUSTIVE_MAX_VARIABLES = 24  # the limit of ``exhaustive_ground_state``
EXHAUSTIVE_MAX_MINIMIZERS = 65536  # minimizers it returns as bit rows
ENERGY_BLOCK = 128  # high-half assignments per block of the energy product
TERM_TABLE_ROWS = 512  # rows per block of ``TermTable.energies``


def energies_match(a, b):
    """Whether energies ``a`` and ``b`` (broadcast) are equal: |a - b| <= ENERGY_MATCH_TOL."""
    return np.abs(np.subtract(a, b)) <= ENERGY_MATCH_TOL


def check_penalty(name: str, strength: float) -> None:
    """Refuse a penalty ``strength`` that is not finite and positive, by ``name``."""
    if not 0 < strength < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {strength!r}")


def normalize_monomial(variables: Iterable[int]) -> Monomial:
    """Sort and deduplicate variable ids (multilinear reduction)."""
    return tuple(sorted(set(int(v) for v in variables)))


class PseudoBooleanPolynomial:
    """Mutable sparse polynomial; treat as a value once construction is done."""

    __slots__ = ("terms", "num_variables")

    def __init__(self, num_variables: int = 0,
                 terms: Mapping[Monomial, float] | None = None):
        if num_variables < 0:
            raise ValueError(f"variable count must be non-negative, got {num_variables}")
        self.num_variables = int(num_variables)
        self.terms: dict[Monomial, float] = {}
        if terms:
            for mono, coeff in terms.items():
                self.add_term(mono, coeff)

    def add_term(self, variables: Iterable[int], coeff: float) -> "PseudoBooleanPolynomial":
        """Accumulate ``coeff`` onto the (normalized) monomial; drops tiny results.

        A negative variable id or a non-finite coefficient raises ``ValueError``.
        """
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise ValueError(f"coefficient must be finite, got {coeff}")
        mono = normalize_monomial(variables)
        if mono:
            if mono[0] < 0:
                raise ValueError(f"variable ids must be non-negative, got {mono[0]}")
            self.num_variables = max(self.num_variables, mono[-1] + 1)
        new = self.terms.get(mono, 0.0) + coeff
        if abs(new) <= DROP_TOL:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new
        return self

    def copy(self) -> "PseudoBooleanPolynomial":
        p = PseudoBooleanPolynomial(self.num_variables)
        p.terms = dict(self.terms)
        return p

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def constant(self) -> float:
        return self.terms.get((), 0.0)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PseudoBooleanPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return (f"PseudoBooleanPolynomial(num_variables={self.num_variables}, "
                f"terms={len(self.terms)}, degree={self.degree()})")

    def evaluate(self, assignment) -> float:
        """Value at a 0/1 assignment vector (length >= num_variables)."""
        x = np.asarray(assignment)
        return float(TermTable(self, x.shape[0]).energies(x))

    def add(self, other: "PseudoBooleanPolynomial") -> "PseudoBooleanPolynomial":
        out = self.copy()
        out.num_variables = max(out.num_variables, other.num_variables)
        for mono, coeff in other.terms.items():
            out.add_term(mono, coeff)
        return out

    def to_text(self) -> str:
        """One term per line: ``coeff v1 v2 ... vk`` (constant line has no ids)."""
        lines = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = self.terms[mono]
            if mono:
                lines.append(f"{coeff!r} " + " ".join(str(v) for v in mono))
            else:
                lines.append(f"{coeff!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "PseudoBooleanPolynomial":
        """Parse ``to_text``'s lines; raises ``ValueError("line N: ...")`` on a bad one."""
        poly = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                poly.add_term([int(p) for p in parts[1:]], float(parts[0]))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from e
        return poly


def variable_count(poly: PseudoBooleanPolynomial, num_variables: int | None) -> int:
    """``num_variables``, or the polynomial's span when it is None; a count
    below the span is refused."""
    n = poly.num_variables if num_variables is None else int(num_variables)
    if n < poly.num_variables:
        raise ValueError("num_variables smaller than the polynomial's variable span")
    return n


class TermTable:
    """A polynomial's terms as arrays over ``num_variables`` variables.

    ``incidence[v, t]`` is 1 when variable v occurs in term t, ``sizes[t]`` is
    the term's degree (0 for the constant) and ``coeffs[t]`` its coefficient.
    A term is on exactly when its count of set variables equals its degree.
    """

    __slots__ = ("incidence", "sizes", "coeffs")

    def __init__(self, poly: PseudoBooleanPolynomial, num_variables: int | None = None):
        n = variable_count(poly, num_variables)
        monos = list(poly.terms)
        self.coeffs = np.fromiter(poly.terms.values(), np.float64, len(monos))
        # a term's count of set variables must fit: int8 unless it has 128 or more
        count_type = np.int8 if max(map(len, monos), default=0) < 128 else np.int32
        self.sizes = np.fromiter(map(len, monos), count_type, len(monos))
        self.incidence = np.zeros((n, len(monos)), dtype=count_type)
        cols = np.repeat(np.arange(len(monos)), self.sizes)
        self.incidence[[v for mono in monos for v in mono], cols] = 1

    def set_counts(self, assignments, terms=slice(None)) -> np.ndarray:
        """Each 0/1 row's count of set variables in every term (or in ``terms``).

        The product runs in float32, which is exact: every partial sum is an
        integer no larger than a term's degree.  It is many times faster than
        numpy's integer matmul, which does not use BLAS.
        """
        counts = (np.asarray(assignments, np.float32)
                  @ self.incidence[:, terms].astype(np.float32))
        return counts.astype(self.sizes.dtype)

    def energies(self, assignments) -> np.ndarray:
        """Energy of each 0/1 row of ``assignments`` (a single row gives a scalar).

        The sum over terms is ``np.einsum``, numpy's own loop, not a BLAS
        product: its bits do not depend on the BLAS kernel picked for the CPU.
        The rows go ``TERM_TABLE_ROWS`` at a time, so the float64 copy of the
        (rows, terms) on-term table stays one block's size.
        """
        x = np.asarray(assignments)
        if x.ndim == 1:
            return np.einsum("t,t->", self.set_counts(x) == self.sizes, self.coeffs)
        out = np.empty(x.shape[0])
        for first in range(0, x.shape[0], TERM_TABLE_ROWS):
            rows = slice(first, first + TERM_TABLE_ROWS)
            np.einsum("rt,t->r", self.set_counts(x[rows]) == self.sizes, self.coeffs,
                      out=out[rows])
        return out


def bit_rows(indices, num_variables: int) -> np.ndarray:
    """(len(indices), num_variables) int8 rows, row i having x_v = bit v of indices[i]."""
    return ((np.asarray(indices)[:, None] >> np.arange(num_variables)) & 1).astype(np.int8)


def _half_on(half: np.ndarray) -> np.ndarray:
    """(2^k, columns) bool for a (k, columns) incidence: whether assignment i of
    the k variables (x_v = bit v of i) sets every variable of each column.

    The counts come from a float32 product, exact as in ``TermTable.set_counts``.
    """
    k = half.shape[0]
    counts = bit_rows(np.arange(1 << k), k).astype(np.float32) @ half.astype(np.float32)
    return counts == half.sum(axis=0)


def _energy_tables(poly: PseudoBooleanPolynomial,
                   num_variables: int) -> tuple[np.ndarray, np.ndarray]:
    """The two tables of dense enumeration over ``num_variables`` variables:
    ``on``, the bool (2^(n - n // 2), groups) ``_half_on`` table of the high
    half, and ``weights``, the float64 (2^(n // 2), groups) weight table.

    The variables split into a low half of n // 2 and a high half of the rest.
    Terms are grouped by their high-half variable set, and each group's
    coefficients are folded into ``weights[l, g]``, the sum of c_t over the
    group's terms t whose low-half variables are all set in low assignment l.
    The energy of (high h, low l) is then the sum of ``weights[l, g]`` over the
    groups g set in ``on[h]``: a float64 product whose inner dimension is the
    number of distinct high-half monomials.  ``weights`` is built
    ``ENUMERATION_BLOCK`` low assignments at a time, each block with its own
    float32 counts, product and ``np.add.reduceat``, so no (low assignments,
    terms) temporary is held whole.  The counts are exact integers and
    ``reduceat`` sums each row alone, so every weight is the float that one
    block over the whole low half gives.
    """
    n = variable_count(poly, num_variables)
    if n > ENUMERATION_MAX_VARIABLES:
        raise InstanceTooLargeError(f"{n} variables is too many for dense enumeration")
    table = TermTable(poly, n)
    lo, hi = np.split(table.incidence, [n // 2])
    # a high-half set's key has its first variable as the top bit, so the keys
    # sort the groups in the lexicographic order of their incidence columns
    place = 1 << np.arange(hi.shape[0])[::-1]
    keys, group_of = np.unique(place @ hi, return_inverse=True)
    order = np.argsort(group_of, kind="stable")
    starts = np.searchsorted(group_of[order], np.arange(keys.size))
    lo_bits = bit_rows(np.arange(1 << lo.shape[0]), lo.shape[0]).astype(np.float32)
    lo_terms = lo[:, order].astype(np.float32)
    lo_sizes, coeffs = lo_terms.sum(axis=0), table.coeffs[order]
    weights = np.empty((lo_bits.shape[0], keys.size))
    for block in range(0, lo_bits.shape[0], ENUMERATION_BLOCK):
        rows = slice(block, block + ENUMERATION_BLOCK)
        on = lo_bits[rows] @ lo_terms == lo_sizes
        np.add.reduceat(on * coeffs, starts, axis=1, out=weights[rows])
    return _half_on(keys & place[:, None] != 0), weights


def all_assignment_energies(poly: PseudoBooleanPolynomial,
                            num_variables: int) -> np.ndarray:
    """Energies of all 2^n assignments, assignment i having x_v = bit v of i.

    The tables of ``_energy_tables`` are built first; then the 2^n output is
    allocated as (high-half, low-half) rows, and each block of
    ``ENERGY_BLOCK`` high-half assignments writes its product with
    ``weights.T`` into its own rows.  The block's float64 copy of its ``on``
    rows is the only other temporary.  Refuses n past
    ``ENUMERATION_MAX_VARIABLES``: the whole float64 vector is returned.
    """
    on, weights = _energy_tables(poly, num_variables)
    energies = np.empty((on.shape[0], weights.shape[0]))
    for first in range(0, on.shape[0], ENERGY_BLOCK):
        rows = slice(first, first + ENERGY_BLOCK)
        np.matmul(on[rows], weights.T, out=energies[rows])
    return energies.reshape(-1)


def check_exhaustive_size(num_variables: int) -> None:
    """Refuse ``num_variables`` past ``EXHAUSTIVE_MAX_VARIABLES``, the limit of
    ``exhaustive_ground_state``; runners call it before they spend on a
    polynomial whose ground state they could not take."""
    if num_variables > EXHAUSTIVE_MAX_VARIABLES:
        raise InstanceTooLargeError(
            f"{num_variables} variables exceed the exhaustive limit of {EXHAUSTIVE_MAX_VARIABLES}"
        )


def exhaustive_ground_state(poly: PseudoBooleanPolynomial
                            ) -> tuple[list[np.ndarray], float]:
    """All global minimizers (within ENERGY_MATCH_TOL of the minimum) by full
    enumeration of the polynomial's ``num_variables`` variables.

    The energies come ``ENERGY_BLOCK`` high-half assignments at a time, as in
    ``all_assignment_energies``, but into one reused block buffer, so no 2^n
    vector is held.  Each block keeps the assignments that match its own
    minimum; the kept ones are then matched against the global minimum, and
    counted against ``EXHAUSTIVE_MAX_MINIMIZERS`` before any of them is
    gathered.  That loses no minimizer: no block minimum is below the global
    one, and a rounded subtraction is monotone, so an energy that matches the
    global minimum matches its block's.
    """
    n = poly.num_variables
    check_exhaustive_size(n)
    on, weights = _energy_tables(poly, n)
    buffer = np.empty((min(ENERGY_BLOCK, on.shape[0]), weights.shape[0]))
    kept = []  # each block's (indices, energies) that match the block's minimum
    for first in range(0, on.shape[0], ENERGY_BLOCK):
        block = on[first:first + ENERGY_BLOCK]
        energies = np.matmul(block, weights.T, out=buffer[:block.shape[0]]).reshape(-1)
        idx = np.flatnonzero(energies_match(energies, energies.min()))
        kept.append((first * weights.shape[0] + idx, energies[idx]))
    best = float(min(energies.min() for _, energies in kept))
    matched = [energies_match(energies, best) for _, energies in kept]
    count = sum(map(np.count_nonzero, matched))
    if count > EXHAUSTIVE_MAX_MINIMIZERS:
        raise InstanceTooLargeError(
            f"{count} degenerate minimizers; refusing to materialize them"
        )
    idx = np.concatenate([kept_idx[m] for (kept_idx, _), m in zip(kept, matched)])
    return list(bit_rows(idx, n)), best
