"""Integer-bitmask set algebra over a per-neighborhood local universe.

The verdict hot path (Algorithms 3-5) is wall-to-wall set algebra:
window coverage, inclusion-maximality, the ``J_k/L_k`` split, subset
filters on the Theorem 7 candidate pool, and the disjoint-collection
DFS.  On ``frozenset`` objects each operation pays a hash-table walk
per element.  This module provides the representation every hot-path
component shares instead: subsets of one ``4r`` knowledge ball (or of
one 2r-connected component) encoded as plain Python ``int`` bitmasks
over a :class:`LocalUniverse` — a compact device-id ↔ bit mapping local
to the ball (a handful of devices in the paper's operating regime).

The algebra then collapses to single machine-word operations:

====================  =============================
set operation         mask identity
====================  =============================
``a | b``             ``a | b``
``a & b``             ``a & b``
``a - b``             ``a & ~b``
``a <= b`` (subset)   ``a & ~b == 0``
``a < b`` (strict)    ``a != b and a & ~b == 0``
``a.isdisjoint(b)``   ``a & b == 0``
``len(a)``            ``popcount(a)``
memo / dedup key      the ``int`` itself
====================  =============================

Python integers are arbitrary precision, so the representation widens
past 64 devices transparently: a universe that grows beyond one machine
word simply yields multi-word ints, and every identity above still
holds (at a few ns per extra word).  The universe is append-only —
bits are never reassigned — so masks minted early remain valid as the
universe widens.

Public APIs keep speaking frozensets; conversion happens at the
boundary via :meth:`LocalUniverse.mask_of` / :meth:`LocalUniverse.devices_of`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

__all__ = ["LocalUniverse", "iter_bits", "popcount"]

try:  # int.bit_count is Python >= 3.10; fall back for 3.9.
    popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised only on 3.9
    def popcount(mask: int) -> int:
        """Number of set bits in ``mask``."""
        return bin(mask).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LocalUniverse:
    """Bidirectional device-id ↔ bit mapping for one knowledge ball.

    Bits are assigned on first sight and never reassigned, so the
    universe can be grown lazily while previously minted masks stay
    valid.  :meth:`mask_of` registers unseen devices in sorted order,
    which keeps bit assignment deterministic for any iterable input.
    """

    __slots__ = ("_bit_index", "_devices")

    def __init__(self, devices: Iterable[int] = ()) -> None:
        self._bit_index: Dict[int, int] = {}
        self._devices: List[int] = []
        for device in devices:
            self.bit(device)

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, device: int) -> bool:
        return device in self._bit_index

    @property
    def devices(self) -> Tuple[int, ...]:
        """Registered device ids, in bit-position order."""
        return tuple(self._devices)

    def bit(self, device: int) -> int:
        """Return ``1 << position`` of ``device``, registering it if new."""
        index = self._bit_index.get(device)
        if index is None:
            index = len(self._devices)
            self._bit_index[device] = index
            self._devices.append(device)
        return 1 << index

    def mask_of(self, devices: Iterable[int]) -> int:
        """Encode a device collection as a bitmask (registering new ids).

        Unseen devices are registered in sorted order so the bit layout
        never depends on set-iteration order.
        """
        mask = 0
        fresh: List[int] = []
        for device in devices:
            index = self._bit_index.get(device)
            if index is None:
                fresh.append(device)
            else:
                mask |= 1 << index
        for device in sorted(fresh):
            mask |= self.bit(device)
        return mask

    def devices_of(self, mask: int) -> FrozenSet[int]:
        """Decode a bitmask back to a frozenset of device ids."""
        devices = self._devices
        return frozenset(devices[i] for i in iter_bits(mask))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalUniverse(size={len(self._devices)})"
