"""Sparse multilinear polynomials over binary variables.

A monomial is a sorted, duplicate-free tuple of variable ids; the empty
tuple is the constant term.  Multilinearity (x^2 = x) is applied whenever a
term is added, so no monomial ever holds a repeated id.  Coefficients below
DROP_TOL in magnitude are discarded to keep the term map from accumulating
floating-point dust.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import InstanceTooLargeError

Monomial = tuple[int, ...]

DROP_TOL = 1e-12


def normalize_monomial(variables: Iterable[int]) -> Monomial:
    """Sort and deduplicate variable ids (multilinear reduction)."""
    return tuple(sorted(set(int(v) for v in variables)))


class PseudoBooleanPolynomial:
    """Mutable sparse polynomial; treat as a value once construction is done."""

    __slots__ = ("terms", "num_variables")

    def __init__(self, num_variables: int = 0,
                 terms: Mapping[Monomial, float] | None = None):
        self.num_variables = int(num_variables)
        self.terms: dict[Monomial, float] = {}
        if terms:
            for mono, coeff in terms.items():
                self.add_term(mono, coeff)

    def add_term(self, variables: Iterable[int], coeff: float) -> "PseudoBooleanPolynomial":
        """Accumulate ``coeff`` onto the (normalized) monomial; drops tiny results."""
        mono = normalize_monomial(variables)
        if mono:
            self.num_variables = max(self.num_variables, mono[-1] + 1)
        new = self.terms.get(mono, 0.0) + float(coeff)
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
        if x.shape[0] < self.num_variables:
            raise ValueError(
                f"assignment has {x.shape[0]} entries, polynomial uses "
                f"{self.num_variables} variables"
            )
        return self.evaluate_packed(sum(1 << int(v) for v in np.flatnonzero(x)))

    def evaluate_packed(self, packed_bits: int) -> float:
        """Value at an assignment packed as an integer bitmask (bit v = x_v)."""
        total = 0.0
        for mono, coeff in self.terms.items():
            for v in mono:
                if not (packed_bits >> v) & 1:
                    break
            else:
                total += coeff
        return total

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
        poly = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                coeff = float(parts[0])
                ids = [int(p) for p in parts[1:]]
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from e
            poly.add_term(ids, coeff)
        return poly


def _term_activity(indices: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(len(indices), len(masks)) float matrix: 1 where every mask bit is set."""
    return ((indices[:, None] & masks[None, :]) == masks[None, :]).astype(np.float64)


def all_assignment_energies(poly: PseudoBooleanPolynomial,
                            num_variables: int) -> np.ndarray:
    """Energies of all 2^n assignments, assignment i having x_v = bit v of i.

    The vector splits into low/high bit halves so the whole scan reduces to
    one matrix product between per-half term activities.  Intended for n up
    to ~26 (the full float64 energy vector is returned).
    """
    n = int(num_variables)
    if n < poly.num_variables:
        raise ValueError("num_variables smaller than the polynomial's variable span")
    if n > 26:
        raise InstanceTooLargeError(f"{n} variables is too many for dense enumeration")
    if not poly.terms:
        return np.zeros(1 << n)
    masks = np.array([sum(1 << v for v in m) for m in poly.terms], dtype=np.uint64)
    coeffs = np.array(list(poly.terms.values()), dtype=np.float64)
    lo_bits = min(n, 14)
    lo_size = np.uint64((1 << lo_bits) - 1)
    lo_act = _term_activity(np.arange(1 << lo_bits, dtype=np.uint64), masks & lo_size)
    hi_act = _term_activity(np.arange(1 << (n - lo_bits), dtype=np.uint64),
                            masks >> np.uint64(lo_bits))
    energies = (hi_act * coeffs[None, :]) @ lo_act.T
    return energies.reshape(-1)
