"""Single-qubit Clifford frames tracked both as matrices and symbolically.

Each frame carries its 2x2 unitary together with the signed axis images
of X, Y, Z under conjugation, so schedules get the concrete matrices
while Pauli strings are conjugated exactly.  ``framed_images`` is the one
place that maps a Pauli string through a frame of Cliffords: it gives the
signed image of every term of a drift under every frame, as packed masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import OPS, HamExpansion, pack_masks

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


def framed_images(
    drift: HamExpansion, frames: Sequence[tuple[tuple[int, LocalClifford], ...]]
) -> tuple[np.ndarray, ...]:
    """``(x, z, ny, sign)``: what each frame does to each term of ``drift``.

    A frame is a tuple of ``(site, Clifford)`` pairs, and acts as the
    identity on the sites it does not name.  ``x``, ``z`` and ``ny`` hold
    the packed masks of the term's image string (``pauli.pack_masks``),
    and ``sign`` the sign the term picks up under ``C P C^dag``: one row
    per frame, one column per drift term in the drift's order.  A frame's
    Cliffords act site by site, so each site's image is read from a table
    of each distinct Clifford's signed image of each axis, by the axis's
    character code, and the image strings are packed as one array of
    characters.  Two frames with equal rows send the drift to one
    operator.  The arrays are read-only.
    """
    n = drift.n
    ops = np.frombuffer("".join(p.ops for p in drift).encode(), np.uint8).reshape(-1, n)
    number = {CLIFF_ID.images: 0}  # a Clifford's signed axis images -> its table row
    held = [[0] * n for _ in frames]
    for row, frame in zip(held, frames):
        for q, cliff in frame:
            row[q] = number.setdefault(cliff.images, len(number))
    image = np.zeros((len(number), 256), dtype=np.uint8)
    negative = np.zeros((len(number), 256), dtype=bool)
    for k, images in enumerate(number):
        for axis, (sign, to) in zip(OPS, ((1, "I"), *images)):
            image[k, ord(axis)], negative[k, ord(axis)] = ord(to), sign < 0
    # (frame, term, site): the site's Clifford, and the term's axis there
    cell = np.array(held, dtype=np.intp).reshape(-1, 1, n), ops
    out = (*pack_masks(n, image[cell]), 1 - 2 * (negative[cell].sum(axis=2) & 1))
    for a in out:
        a.flags.writeable = False
    return out
