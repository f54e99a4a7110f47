"""The neighbourhood decomposition of Section V-B.

For a device ``j`` with a non-empty dense family ``Wbar_k(j)`` the paper
splits the devices of ``D_k(j)`` (union of ``j``'s maximal tau-dense
motions) into

* ``J_k(j)`` — devices all of whose maximal tau-dense motions contain
  ``j`` (always includes ``j`` itself), and
* ``L_k(j)`` — devices owning at least one maximal tau-dense motion that
  avoids ``j``.

Theorem 6 decides *massive* from ``J_k(j)`` alone; Theorem 7 additionally
explores dense motions of ``L_k(j)`` members.  Computing the split needs
the motion families of ``j``'s neighbours — i.e. trajectories within
``4r`` of ``j`` — which is the paper's knowledge-radius claim.

:class:`MotionCache` memoizes per-device motion families for one
transition so a full characterization pass computes each family once.
A cache never outlives its transition; across ticks the online service
reuses whole verdicts, recomputing only those within ``4r`` of a
change (:mod:`repro.online.dirty`).

Within one transition the cache shares motion work per *component*:
every member of a motion through ``x`` lies in ``N(x)``, so the
maximal motions through ``x`` all lie in the 2r-connected component of
the flagged devices that contains ``x``.  The cache enumerates each
component's maximal motions once (:class:`MotionComponent`) and derives
a member's family as the sublist of motions containing it — exact on
any transition, including shard transitions truncated at a halo edge.
The split is shared the same way: a component's
:class:`ComponentSplit`, built on its first dense member's verdict,
holds every member's ``D_k`` / ``J_k`` as row masks, from the AND of
each member's dense motion masks (its *cover*: ``x`` is in ``J_k(j)``
iff ``j``'s bit is in ``x``'s cover).  Components above
:data:`_COMPONENT_LIMIT` members keep the per-device anchored
enumeration and the per-device :func:`split_masks`, which applies the
same cover rule over the ``4r`` ball.  A lone device (``N(j) == (j,)``)
has no component object and no sweep at all: its family is the single
motion ``{j}`` (:func:`~repro.core.motions.maximal_motions_containing`),
and since ``tau >= 1`` it has no dense motion, so its verdict stops at
Theorem 5 without reading its ``4r`` ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.bitset import LocalUniverse, iter_bits
from repro.core.geometry import CONSISTENCY_ATOL
from repro.core.motions import enumerate_maximal_motions, motion_family
from repro.core.transition import Transition
from repro.core.types import MotionFamily

__all__ = [
    "ComponentSplit",
    "MotionCache",
    "MotionComponent",
    "NeighborhoodSplit",
    "split_neighborhood",
]

Motion = FrozenSet[int]

#: Largest 2r-connected component whose maximal motions are enumerated
#: once and shared by its members.  Far above it the per-device anchored
#: sweep wins — masks a thousand bits wide make every window placement of
#: an unanchored sweep O(m) (DESIGN.md, "Component sharing") — and at or
#: below it a member set fits one ``uint64`` row mask, which the shared
#: Theorem 7 subset table relies on.
_COMPONENT_LIMIT = 64


class MotionComponent:
    """One 2r-connected component of ``A_k`` with its maximal motions.

    ``devices`` is the sorted member tuple and ``rows`` maps a member to
    its index in it; ``motions`` are the component's maximal motions in
    canonical order (decreasing size, then lexicographic members) and
    ``masks`` the same motions as bitmasks over those row indices.
    ``window_steps`` counts the placements of the one unanchored sweep
    that produced them.  :attr:`universe` maps the members to those row
    bits for the verdict's mask algebra.
    """

    __slots__ = (
        "devices",
        "rows",
        "motions",
        "masks",
        "window_steps",
        "_far",
        "_universe",
        "_split",
    )

    def __init__(self, transition: Transition, devices: Tuple[int, ...]) -> None:
        self.devices = devices
        self.rows: Dict[int, int] = {x: i for i, x in enumerate(devices)}
        motions, steps = enumerate_maximal_motions(transition, devices)
        self.motions: List[Motion] = motions
        rows = self.rows
        self.masks: List[int] = [
            sum(1 << rows[x] for x in motion) for motion in motions
        ]
        self.window_steps = steps
        self._far: Optional[List[int]] = None
        self._universe: Optional[LocalUniverse] = None
        self._split: Optional[ComponentSplit] = None

    @property
    def universe(self) -> LocalUniverse:
        """The members as a sorted universe (bit rank order is device id
        order), built on first use: only devices with a dense motion
        reach the mask algebra."""
        if self._universe is None:
            self._universe = LocalUniverse(self.devices)
        return self._universe

    def family(self, device: int, tau: int) -> MotionFamily:
        """The family of ``device``: the motions that contain it.

        A sublist of a canonically ordered list is canonically ordered,
        so this equals the anchored enumeration's family value.
        """
        bit = 1 << self.rows[device]
        motions = tuple(
            motion
            for motion, mask in zip(self.motions, self.masks)
            if mask & bit
        )
        return MotionFamily(
            device=device,
            motions=motions,
            dense=tuple(m for m in motions if len(m) > tau),
            window_steps=self.window_steps,
        )

    def split(self, tau: int) -> "ComponentSplit":
        """The ``(D, J, L)`` split of every member, built on first use
        (``tau`` is the transition's, fixed for the component's life)."""
        if self._split is None:
            self._split = ComponentSplit(self, tau)
        return self._split

    def far_rows(self, transition: Transition, device: int) -> int:
        """Row mask of the members farther than ``2r`` from ``device``.

        Far means a combined-coordinate Chebyshev distance above
        ``2r + 1e-12`` (the tolerance of ``is_consistent_motion``), so
        ``B | {device}`` is consistent iff ``B`` avoids this mask — for
        any ``B`` inside one motion.  One distance matrix per component
        serves every member.
        """
        if self._far is None:
            pts = transition.combined_of(self.devices)
            far = (
                np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
                > 2.0 * transition.r + CONSISTENCY_ATOL
            )
            packed = np.packbits(far, axis=1, bitorder="little")
            self._far = [int.from_bytes(row.tobytes(), "little") for row in packed]
        return self._far[self.rows[device]]


def _cover(masks: Iterable[int]) -> int:
    """The bits every mask holds: their AND (``-1``, all bits, for none).

    ``x`` is in ``J_k(j)`` iff ``j``'s bit is in the cover of ``x``'s
    maximal dense motions — "all of ``x``'s dense motions contain ``j``".
    """
    return reduce(and_, masks, -1)


class ComponentSplit:
    """The neighbourhood split of every member of one component.

    Row masks over the component's members, indexed by member row:
    ``dense[i]`` lists the indices (into ``component.motions``) of row
    ``i``'s maximal dense motions, in canonical order; ``d[i]`` is their
    union ``D_k``; ``j[i]`` is ``J_k``, the members of ``D_k`` whose
    ``cover`` (the AND of their own dense masks) holds bit ``i``; ``L_k``
    is ``d[i] & ~j[i]``.  One pass over the dense motions and one over
    the covers serve every member, where :func:`split_masks` re-reads
    each neighbour's family per device.  ``subsets`` is the size of the
    component's dense-subset table, ``sum(2^|M|)`` over dense ``M``.
    """

    __slots__ = ("dense", "d", "j", "subsets")

    def __init__(self, component: MotionComponent, tau: int) -> None:
        width = len(component.devices)
        masks = component.masks
        dense: List[List[int]] = [[] for _ in range(width)]
        d = [0] * width
        self.subsets = 0
        for k, (motion, mask) in enumerate(zip(component.motions, masks)):
            if len(motion) > tau:
                self.subsets += 1 << len(motion)
                for i in iter_bits(mask):
                    dense[i].append(k)
                    d[i] |= mask
        # held[i]: the members whose cover holds bit i.
        held = [0] * width
        for x, ks in enumerate(dense):
            if ks:
                for i in iter_bits(_cover(masks[k] for k in ks)):
                    held[i] |= 1 << x
        self.dense = dense
        self.d = d
        self.j = [dm & h for dm, h in zip(d, held)]


class MotionCache:
    """Per-transition memo of :func:`repro.core.motions.motion_family`.

    The characterization of one device touches the families of its
    neighbours, and neighbourhoods overlap heavily, so a shared cache
    turns a quadratic-ish pass into a linear one.  The cache also counts
    how many families were computed (``expansions``), which feeds the
    ``neighbor_expansions`` cost column.

    Parameters
    ----------
    transition:
        The transition families are computed against.

    A family that is not yet memoized is derived from its owner's
    :meth:`component` on request; a component is enumerated once per
    transition, on its first member's request.
    """

    def __init__(self, transition: Transition) -> None:
        self._transition = transition
        self._families: Dict[int, MotionFamily] = {}
        self._components: Dict[int, Optional[MotionComponent]] = {}
        self.expansions = 0

    @property
    def transition(self) -> Transition:
        """The transition this cache is bound to."""
        return self._transition

    def family(self, device: int) -> MotionFamily:
        """Return (and memoize) the motion family of ``device``."""
        fam = self._families.get(device)
        if fam is None:
            component = self.component(device)
            if component is None:
                fam = motion_family(self._transition, device)
            else:
                fam = component.family(device, self._transition.tau)
            self._families[device] = fam
            self.expansions += 1
        return fam

    def materialize(self, devices: Iterable[int]) -> None:
        """:meth:`family` for each of ``devices`` whose family is not yet
        memoized: counts ``expansions`` exactly as those calls would,
        without their cost for memo hits."""
        families = self._families
        for device in devices:
            if device not in families:
                self.family(device)

    def component(self, device: int) -> Optional[MotionComponent]:
        """The memoized 2r-connected component of ``device``.

        Walks ``N(j)`` depth-first from ``device`` (served from the
        transition's neighbourhood memo, which the engine warms for its
        targets in one batch) and memoizes the result for every member.
        Returns None — for every device the walk reached — once the
        component exceeds :data:`_COMPONENT_LIMIT` members (the
        per-device anchored path), and for a lone device, which has
        nothing to share: :func:`motion_family` returns its one-motion
        family without a sweep.
        """
        try:
            return self._components[device]
        except KeyError:
            pass
        neighborhood = self._transition.neighborhood
        seen = {device}
        stack = [device]
        while stack and len(seen) <= _COMPONENT_LIMIT:
            for other in neighborhood(stack.pop()):
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        # A non-empty stack means the walk stopped above the bound.
        component = None
        if not stack and len(seen) > 1:
            component = MotionComponent(self._transition, tuple(sorted(seen)))
        for member in seen:
            self._components[member] = component
        return component

    def dense_family(self, device: int) -> Tuple[Motion, ...]:
        """Return ``Wbar_k(device)``: its maximal tau-dense motions."""
        return self.family(device).dense

    def __contains__(self, device: int) -> bool:
        return device in self._families

    def __len__(self) -> int:
        return len(self._families)


@dataclass(frozen=True)
class NeighborhoodSplit:
    """The ``(D_k(j), J_k(j), L_k(j))`` decomposition for one device."""

    device: int
    dense_neighborhood: FrozenSet[int]   # D_k(j)
    always_with_j: FrozenSet[int]        # J_k(j)
    sometimes_without_j: FrozenSet[int]  # L_k(j)

    def __post_init__(self) -> None:
        # Invariants from the paper: D = J ⊎ L, j ∈ J, j ∉ L.
        assert self.always_with_j | self.sometimes_without_j == self.dense_neighborhood
        assert not (self.always_with_j & self.sometimes_without_j)


def split_masks(
    cache: MotionCache, device: int, universe: LocalUniverse
) -> Tuple[int, int, int]:
    """Mask form of the split: ``(D_mask, J_mask, L_mask)`` over ``universe``.

    The per-device split, for devices without a shared component (the
    ball path) and for :func:`split_neighborhood`; a shared component
    reads the same split off its :class:`ComponentSplit`.  Both apply one
    rule: a member of ``D_k(j)`` is in ``J_k(j)`` iff ``j``'s bit is in
    its :func:`_cover`.  Each member's family is materialized here, so
    ``neighbor_expansions`` counts them.
    """
    d_mask = 0
    for motion in cache.dense_family(device):
        d_mask |= universe.mask_of(motion)
    if not d_mask:
        return 0, 0, 0
    bit = universe.bit(device)
    devices = universe.devices
    j_mask = bit
    for i in iter_bits(d_mask & ~bit):
        # ``devices[i]`` shares a maximal dense motion with ``device``,
        # so its own dense family is non-empty.
        motions = cache.dense_family(devices[i])
        if _cover(universe.mask_of(motion) for motion in motions) & bit:
            j_mask |= 1 << i
    return d_mask, j_mask, d_mask & ~j_mask


def split_neighborhood(cache: MotionCache, device: int) -> NeighborhoodSplit:
    """Compute ``D_k(j)``, ``J_k(j)`` and ``L_k(j)`` for ``device``.

    Precondition: ``Wbar_k(device)`` is non-empty (otherwise Theorem 5
    already classified the device as isolated and the split is moot); an
    empty family yields the trivial split ``D = J = {}``, ``L = {}``.
    """
    universe = LocalUniverse()
    d_mask, j_mask, l_mask = split_masks(cache, device, universe)
    return NeighborhoodSplit(
        device=device,
        dense_neighborhood=universe.devices_of(d_mask),
        always_with_j=universe.devices_of(j_mask),
        sometimes_without_j=universe.devices_of(l_mask),
    )
