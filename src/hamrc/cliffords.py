"""Single-qubit Clifford frames tracked both as matrices and symbolically.

Each frame carries its 2x2 unitary together with the signed axis images
of X, Y, Z under conjugation, so expansions can be conjugated exactly at
the coefficient level while schedules get the concrete matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .pauli import HamExpansion, PauliString

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class LocalClifford:
    """A single-qubit Clifford with its exact action on the Pauli axes.

    Cliffords are values: equal, and hashing alike, when their signed axis
    images and the bytes of their matrices are equal.
    """

    matrix: np.ndarray
    images: tuple[tuple[int, str], tuple[int, str], tuple[int, str]]  # X, Y, Z

    def _key(self) -> tuple:
        return self.images, self.matrix.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalClifford) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def image(self, axis: str) -> tuple[int, str]:
        """(sign, axis) of ``U sigma_axis U^dag``; identity maps to itself."""
        if axis == "I":
            return (1, "I")
        return self.images["XYZ".index(axis)]

    def compose(self, inner: "LocalClifford") -> "LocalClifford":
        """Frame equal to applying ``inner`` first, then this frame."""
        return LocalClifford(
            self.matrix @ inner.matrix, _compose_images(self.images, inner.images)
        )


def _compose_images(outer: tuple, inner: tuple) -> tuple:
    """Images of applying the ``inner`` action first, then ``outer``."""
    out = []
    for s1, mid in inner:
        s2, axis = outer["XYZ".index(mid)]
        out.append((s1 * s2, axis))
    return tuple(out)


def _cliff(matrix, x, y, z) -> LocalClifford:
    m = np.asarray(matrix, dtype=complex)
    m.flags.writeable = False
    return LocalClifford(m, (x, y, z))


CLIFF_ID = _cliff(np.eye(2), (1, "X"), (1, "Y"), (1, "Z"))
CLIFF_HAD = _cliff([[1 / _SQ2, 1 / _SQ2], [1 / _SQ2, -1 / _SQ2]],
                   (1, "Z"), (-1, "Y"), (1, "X"))
CLIFF_S = _cliff([[1, 0], [0, 1j]], (1, "Y"), (-1, "X"), (1, "Z"))
CLIFF_SDG = _cliff([[1, 0], [0, -1j]], (-1, "Y"), (1, "X"), (1, "Z"))
# quarter turns about X: exp(-i pi X / 4) and its inverse
CLIFF_XQ = _cliff([[1 / _SQ2, -1j / _SQ2], [-1j / _SQ2, 1 / _SQ2]],
                  (1, "X"), (1, "Z"), (-1, "Y"))
CLIFF_XQI = _cliff([[1 / _SQ2, 1j / _SQ2], [1j / _SQ2, 1 / _SQ2]],
                   (1, "X"), (-1, "Z"), (1, "Y"))

#: Pauli conjugators: sign -1 exactly on the two anticommuting axes
PAULI_CLIFF = {
    "I": CLIFF_ID,
    "X": _cliff([[0, 1], [1, 0]], (1, "X"), (-1, "Y"), (-1, "Z")),
    "Y": _cliff([[0, -1j], [1j, 0]], (-1, "X"), (1, "Y"), (-1, "Z")),
    "Z": _cliff([[1, 0], [0, -1]], (-1, "X"), (-1, "Y"), (1, "Z")),
}

#: fixed rotation table: AXIS_ROTATION[(a, b)] maps sigma_a -> +sigma_b
AXIS_ROTATION = {
    ("X", "X"): CLIFF_ID,
    ("Y", "Y"): CLIFF_ID,
    ("Z", "Z"): CLIFF_ID,
    ("X", "Z"): CLIFF_HAD,
    ("Z", "X"): CLIFF_HAD,
    ("X", "Y"): CLIFF_S,
    ("Y", "X"): CLIFF_SDG,
    ("Y", "Z"): CLIFF_XQ,
    ("Z", "Y"): CLIFF_XQI,
}


def sign_flip_clifford(axis: str) -> LocalClifford:
    """Pauli conjugator flipping ``sigma_axis`` to ``-sigma_axis``.

    Uses the lexicographically smallest anticommuting axis (X before Y
    before Z), so the choice is deterministic.
    """
    partner = {"X": "Y", "Y": "X", "Z": "X"}[axis]
    return PAULI_CLIFF[partner]


def conjugate_by_cliffords(
    ham: HamExpansion, layer: Mapping[int, LocalClifford]
) -> HamExpansion:
    """Exact coefficient-level conjugation of an expansion by a frame layer.

    Sites absent from ``layer`` are left untouched.  Every term maps to a
    single term with the same coefficient magnitude.
    """
    images = [(site, {a: cliff.image(a) for a in "IXYZ"}) for site, cliff in layer.items()]
    out: dict[PauliString, float] = {}
    for p, c in ham.items():
        ops = list(p.ops)
        sign = 1
        for site, image in images:
            s, ops[site] = image[ops[site]]
            sign *= s
        # a frame permutes Pauli strings, so no two terms land on one string
        out[PauliString("".join(ops))] = sign * c
    return HamExpansion(ham.n, out)
