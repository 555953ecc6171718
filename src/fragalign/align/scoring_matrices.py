"""Nucleotide substitution models for the alignment substrate.

Sequences are handled as strings over ``ACGTN`` and are encoded into
small integer codes so the DP kernels can gather substitution scores
with NumPy fancy indexing instead of per-cell Python calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SubstitutionModel", "unit_dna", "transition_transversion", "encode"]

_ALPHABET = "ACGTN"
_CODE = {c: i for i, c in enumerate(_ALPHABET)}
# Purines A, G (codes 0, 2); pyrimidines C, T (codes 1, 3).
_PURINE = {0, 2}
# Byte -> code translation table for encode(): either case of ACGTN
# maps to its code, every other byte to N.
_BYTE_CODES = bytes(_CODE.get(chr(byte).upper(), 4) for byte in range(256))


def encode(seq: str) -> np.ndarray:
    """Encode a DNA string into uint8 codes, one per character.

    Case-insensitive; every character outside ACGTN (including
    non-ASCII ones, each encoded to a single placeholder byte) becomes N.
    """
    raw = seq.encode("latin-1", "replace").translate(_BYTE_CODES)
    return np.frombuffer(raw, dtype=np.uint8).copy()


@dataclass(frozen=True)
class SubstitutionModel:
    """A 5×5 substitution score matrix over A, C, G, T, N plus gap.

    ``matrix[i, j]`` scores aligning code ``i`` against code ``j``;
    ``gap`` is the (linear) per-symbol gap penalty, conventionally
    negative.  Instances are immutable so they can be shared freely
    across worker processes.  ``integral`` says whether the matrix and
    the gap are finite integers (the integer kernels' precondition).
    """

    matrix: np.ndarray = field(repr=False)
    gap: float
    integral: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (5, 5):
            raise ValueError("substitution matrix must be 5x5 (ACGTN)")
        if not np.allclose(m, m.T):
            raise ValueError("substitution matrix must be symmetric")
        object.__setattr__(self, "matrix", m)
        values = np.append(m, float(self.gap))
        integral = bool(np.isfinite(values).all() and (np.rint(values) == values).all())
        object.__setattr__(self, "integral", integral)

    def score(self, a: str, b: str) -> float:
        """Score one character pair (slow path, for tests/examples)."""
        return float(self.matrix[_CODE.get(a.upper(), 4), _CODE.get(b.upper(), 4)])

    def pair_matrix(self, a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
        """W[i, j] = score of a[i] vs b[j], via a single fancy-index gather."""
        return self.matrix[np.ix_(a_codes, b_codes)]


def unit_dna(match: float = 1.0, mismatch: float = -1.0, gap: float = -1.0) -> SubstitutionModel:
    """The classic unit-cost model; N scores 0 against everything."""
    m = np.full((5, 5), mismatch)
    np.fill_diagonal(m, match)
    m[4, :] = 0.0
    m[:, 4] = 0.0
    return SubstitutionModel(matrix=m, gap=gap)


def transition_transversion(
    match: float = 2.0,
    transition: float = -1.0,
    transversion: float = -2.0,
    gap: float = -2.0,
) -> SubstitutionModel:
    """Biology-flavoured model: transitions (A↔G, C↔T) cost less than
    transversions, mirroring the empirical substitution bias the paper's
    conserved-region alignments would see."""
    m = np.empty((5, 5))
    for i in range(4):
        for j in range(4):
            if i == j:
                m[i, j] = match
            elif (i in _PURINE) == (j in _PURINE):
                m[i, j] = transition
            else:
                m[i, j] = transversion
    m[4, :] = 0.0
    m[:, 4] = 0.0
    return SubstitutionModel(matrix=m, gap=gap)
