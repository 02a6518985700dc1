"""The :class:`Ordering` permutation object and component handling.

Conventions
-----------
An :class:`Ordering` stores the *new-to-old* permutation array ``perm``:
``perm[k]`` is the original index of the row/column placed at position ``k``
of the reordered matrix, so that the reordered matrix is ``A[perm][:, perm]``
(``P^T A P``).  The inverse map — "where did old vertex ``v`` go" — is exposed
as :attr:`Ordering.positions`.

The paper assumes the matrix is irreducible; real matrices are not always, so
:func:`order_by_components` applies a per-component ordering function to every
connected component and concatenates the results (components in order of
their smallest original vertex).  Every algorithm in this package routes
through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.envelope.metrics import envelope_size
from repro.sparse.ops import structure_from_matrix
from repro.sparse.pattern import SymmetricPattern
from repro.utils.rng import default_rng
from repro.utils.validation import check_permutation

__all__ = [
    "Ordering",
    "identity_ordering",
    "random_ordering",
    "order_by_components",
    "forward_or_reverse",
]


@dataclass(frozen=True)
class Ordering:
    """A validated symmetric reordering of an ``n x n`` matrix.

    Attributes
    ----------
    perm:
        New-to-old permutation (see module docstring).
    algorithm:
        Name of the producing algorithm (``"rcm"``, ``"spectral"``, ...).
    metadata:
        Free-form dictionary of algorithm-specific details (eigenvalue
        estimates, chosen sort direction, level-structure statistics, ...).
    """

    perm: np.ndarray
    algorithm: str = "unknown"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "perm", check_permutation(self.perm))

    @property
    def n(self) -> int:
        """Matrix order."""
        return int(self.perm.size)

    @property
    def positions(self) -> np.ndarray:
        """Old-to-new map: ``positions[old_vertex] = new_index``."""
        inverse = np.empty(self.n, dtype=np.intp)
        inverse[self.perm] = np.arange(self.n, dtype=np.intp)
        return inverse

    def reversed(self) -> "Ordering":
        """The reversed ordering (e.g. CM -> RCM)."""
        return Ordering(self.perm[::-1].copy(), algorithm=f"reverse-{self.algorithm}",
                        metadata=dict(self.metadata))

    def compose(self, other: "Ordering") -> "Ordering":
        """Apply *self* after *other*: the result maps new positions of *self*
        through *other*'s permutation (``result.perm[k] = other.perm[self.perm[k]]``)."""
        if other.n != self.n:
            raise ValueError("cannot compose orderings of different sizes")
        return Ordering(other.perm[self.perm],
                        algorithm=f"{self.algorithm}∘{other.algorithm}")

    def apply_to(self, matrix):
        """Return ``P^T A P`` for a SciPy sparse / dense matrix or a pattern."""
        if isinstance(matrix, SymmetricPattern):
            return matrix.permute(self.perm)
        from repro.sparse.ops import permute_symmetric

        return permute_symmetric(matrix, self.perm)

    def is_identity(self) -> bool:
        """Whether this is the natural (identity) ordering."""
        return bool(np.array_equal(self.perm, np.arange(self.n)))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Ordering(n={self.n}, algorithm={self.algorithm!r})"


def identity_ordering(n: int) -> Ordering:
    """The natural ordering ``0, 1, ..., n-1``."""
    return Ordering(np.arange(n, dtype=np.intp), algorithm="identity")


def random_ordering(n: int, rng=None) -> Ordering:
    """A uniformly random ordering (baseline / stress-testing)."""
    generator = default_rng(rng)
    return Ordering(generator.permutation(n).astype(np.intp), algorithm="random")


def forward_or_reverse(pattern: SymmetricPattern, forward: np.ndarray) -> np.ndarray:
    """*forward* or its reverse, whichever has the smaller envelope on
    *pattern* (*forward* on a tie): the last step of the GPS, GK and King
    numberings of a component."""
    backward = forward[::-1].copy()
    if envelope_size(pattern, backward) < envelope_size(pattern, forward):
        return backward
    return forward


def order_by_components(
    pattern,
    component_ordering: Callable[[SymmetricPattern], np.ndarray],
    algorithm: str,
    metadata: dict | None = None,
) -> Ordering:
    """Apply a per-component ordering function to every connected component.

    Parameters
    ----------
    pattern:
        Matrix structure (any format accepted by
        :func:`repro.sparse.structure_from_matrix`).
    component_ordering:
        Function mapping a *connected* :class:`SymmetricPattern` with local
        indices ``0..m-1`` to a new-to-old permutation of length ``m``.
    algorithm:
        Name recorded on the resulting :class:`Ordering`.
    metadata:
        Optional extra metadata; the number of components is always added.

    Returns
    -------
    Ordering
        The concatenation of the per-component orderings, components taken in
        order of their smallest original vertex index.
    """
    pattern = structure_from_matrix(pattern)
    n = pattern.n
    meta = dict(metadata or {})
    if n == 0:
        meta["num_components"] = 0
        return Ordering(np.empty(0, dtype=np.intp), algorithm=algorithm, metadata=meta)

    # The component split is a pure function of the structure; the spectral
    # workspace memoizes it (labels AND subpattern objects) on the pattern,
    # so every algorithm run on the same pattern shares one split — and the
    # shared subpatterns accumulate their own degree/Laplacian caches.
    from repro.eigen.workspace import spectral_workspace

    workspace = spectral_workspace(pattern)
    num_components, _labels = workspace.components()
    meta["num_components"] = num_components
    if num_components == 1:
        local = np.asarray(component_ordering(pattern), dtype=np.intp)
        return Ordering(check_permutation(local, n), algorithm=algorithm, metadata=meta)

    pieces = []
    for vertices, sub in workspace.component_split():
        if sub is None:
            pieces.append(vertices)
            continue
        local = check_permutation(np.asarray(component_ordering(sub), dtype=np.intp),
                                  vertices.size)
        pieces.append(vertices[local])
    perm = np.concatenate(pieces)
    return Ordering(check_permutation(perm, n), algorithm=algorithm, metadata=meta)
