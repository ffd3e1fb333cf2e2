"""Substitution matrices and scoring schemes.

Matrices are indexed by the encodings from :mod:`repro.sequence.alphabet`
(BLOSUM row order ARNDCQEGHILKMFPSTWYV), so ``matrix[a_enc[i], b_enc[j]]``
is the substitution score without any translation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE

# The canonical BLOSUM62 matrix (half-bit units), row order
# A  R  N  D  C  Q  E  G  H  I  L  K  M  F  P  S  T  W  Y  V
BLOSUM62 = np.array(
    [
        [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0],
        [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3],
        [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3],
        [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3],
        [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1],
        [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2],
        [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2],
        [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3],
        [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3],
        [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3],
        [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1],
        [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2],
        [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1],
        [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1],
        [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2],
        [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2],
        [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0],
        [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3],
        [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1],
        [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4],
    ],
    dtype=np.int32,
)

#: Simple identity scoring: +1 match / -1 mismatch.  Used by tests whose
#: oracles are easier to state in identity units, and available to users
#: who want percent-identity-driven clustering.
IDENTITY_MATRIX = (2 * np.eye(ALPHABET_SIZE, dtype=np.int32)) - 1


@dataclass(frozen=True)
class ScoringScheme:
    """Substitution matrix plus a linear gap penalty.

    The paper's phases threshold on *percent similarity* of the aligned
    region, which alignment tracebacks report independently of the scheme;
    the scheme only shapes which alignment is optimal.  Linear gaps keep
    the DP kernels simple and match the original PaCE implementation.
    """

    matrix: np.ndarray
    gap: int = -4
    name: str = "custom"

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.shape != (ALPHABET_SIZE, ALPHABET_SIZE):
            raise ValueError(f"matrix must be {ALPHABET_SIZE}x{ALPHABET_SIZE}, got {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("substitution matrix must be symmetric")
        if self.gap >= 0:
            raise ValueError(f"gap penalty must be negative, got {self.gap}")


def blosum62_scheme(gap: int = -6) -> ScoringScheme:
    """The default biological scoring used throughout the pipeline."""
    return ScoringScheme(matrix=BLOSUM62, gap=gap, name="blosum62")


def identity_scheme(gap: int = -1) -> ScoringScheme:
    """+1/-1 identity scoring with unit gap penalty."""
    return ScoringScheme(matrix=IDENTITY_MATRIX, gap=gap, name="identity")
