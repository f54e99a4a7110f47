"""Enumeration of maximal r-consistent motions (Algorithm 2 of the paper).

A subset ``B`` of flagged devices has an *r-consistent motion* in
``[k-1, k]`` iff it is r-consistent at both times, i.e. iff its points fit
inside an axis-aligned box of side ``2r`` in the combined
``2d``-dimensional embedding (previous coordinates concatenated with
current ones).  The *maximal* such subsets containing a device ``j`` are
exactly what the characterization theorems consume, via the families
``W_k(j)`` and ``Wbar_k(j)``.

The paper's Algorithm 2 enumerates them by sliding a window of width
``2r`` along each dimension in turn, recursing on the devices covered by
the current window placement.  We implement the same scheme:

* window origins are point coordinates (every maximal box can be slid until
  each lower face touches a point, so point-anchored windows lose nothing);
* when an *anchor* device is supplied, only windows covering the anchor's
  coordinate are explored — this is what keeps the computation local;
* the recursion memoizes on (candidate set, dimension) so overlapping
  windows do not multiply work;
* results are reduced to inclusion-maximal sets at the end.

Recursion states are ``int`` masks over the candidate rows; each
dimension's sweep sorts once (one NumPy argsort at the root, C-sorted
column lists inside the recursion), finds window edges by binary search
and forms each window's mask as an O(1) prefix-sum difference.

Correctness is cross-checked in the test-suite against a brute-force
enumerator over all subsets (:func:`brute_force_maximal_motions`) and,
at the characterization level, against the exhaustive partition oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bitset import iter_bits, popcount
from repro.core.errors import UnknownDeviceError
from repro.core.geometry import CONSISTENCY_ATOL
from repro.core.transition import Transition
from repro.core.types import MotionFamily

__all__ = [
    "enumerate_maximal_motions",
    "maximal_motions_containing",
    "motion_family",
    "all_maximal_motions",
    "largest_motion_size",
    "brute_force_maximal_motions",
]

Motion = FrozenSet[int]


class _MaskWindowEnumerator:
    """Recursive sliding-window sweep over the combined coordinates.

    One instance handles one (candidate set, anchor) query.  ``steps``
    counts window placements; it is surfaced as the machine-independent
    cost proxy reported in Table III benchmarks.

    Recursion states are ``int`` masks over the candidate *rows*
    (always a local universe by construction).  The root node of every
    dimension is ordered by one NumPy argsort over the full coordinate
    column; interior nodes re-sort their (already small) row lists with
    C-speed list keys and find every window's right edge with
    ``bisect_right`` on the sorted value list.  Each window's covered
    mask is then a prefix-sum difference — row bits are disjoint, so OR
    over a sorted slice equals subtraction of prefix sums — making a
    placement O(1) big-int work.  A placement whose covered mask equals
    or is dominated by an earlier one in the same dimension is pruned;
    recursion states are memoized per dimension.
    """

    def __init__(
        self,
        coords: np.ndarray,
        width: float,
        anchor_row: Optional[int],
        atol: float = CONSISTENCY_ATOL,
    ) -> None:
        m = coords.shape[0]
        self._m = m
        rows = coords.tolist()
        self._columns: List[List[float]] = [list(col) for col in zip(*rows)]
        # Root ordering (the recursion enters dimension 0 exactly once,
        # with all rows): NumPy argsort pays off on large candidate
        # sets; tiny neighbourhood queries (the common per-device case)
        # sort faster with a C list key.
        if m >= 64:
            self._root_order: List[int] = np.argsort(
                coords[:, 0], kind="stable"
            ).tolist()
        elif m:
            self._root_order = sorted(
                range(m), key=self._columns[0].__getitem__
            )
        else:
            self._root_order = []
        self._width = width
        self._anchor = anchor_row
        self._atol = atol
        self._dims = coords.shape[1]
        self._memo: List[Set[int]] = [set() for _ in range(self._dims + 1)]
        self._results: Set[int] = set()
        self.steps = 0

    def run(self) -> List[int]:
        """Enumerate and return inclusion-maximal covered row masks."""
        if self._m == 0:
            return []
        self._recurse(None, (1 << self._m) - 1, 0)
        return _maximal_only_masks(self._results)

    def _recurse(self, rows: Optional[List[int]], mask: int, dim: int) -> None:
        memo = self._memo[dim]
        if mask in memo:
            return
        memo.add(mask)
        if dim == self._dims:
            self._results.add(mask)
            return
        column = self._columns[dim]
        if rows is None:  # root node: all rows at dim 0, pre-sorted
            rows_sorted = self._root_order
        else:
            rows_sorted = sorted(rows, key=column.__getitem__)
        values = [column[i] for i in rows_sorted]
        anchor_value = column[self._anchor] if self._anchor is not None else None
        reach = self._width + self._atol
        # Fast path: the whole node fits one window along this dimension.
        # The first admissible placement covers every row and strictly
        # dominates all later ones, so only it recurses; the remaining
        # placements are still counted, so ``steps`` counts every
        # placement the sweep examines either way.
        if values[-1] - values[0] <= reach:
            count = 0
            previous: Optional[float] = None
            limit = None if anchor_value is None else anchor_value + self._atol
            for value in values:
                if limit is not None and value > limit:
                    break
                if value != previous:
                    count += 1
                    previous = value
            self.steps += count
            self._recurse(rows_sorted, mask, dim + 1)
            return
        # Disjoint row bits: the mask of a sorted slice is a prefix-sum
        # difference, so each window placement costs O(1) big-int work.
        prefix = list(accumulate((1 << i for i in rows_sorted), initial=0))
        seen_here: List[int] = []
        previous_left: Optional[float] = None
        for start, left in enumerate(values):
            if left == previous_left:
                continue  # identical window
            previous_left = left
            if anchor_value is not None:
                # The window [left, left + width] must cover the anchor.
                if left > anchor_value + self._atol:
                    break
                if anchor_value - left > reach:
                    continue
            end = _window_end(values, left, reach, start)
            self.steps += 1
            covered = prefix[end] - prefix[start]
            dominated = False
            for other in seen_here:
                if covered & ~other == 0:  # equal or strictly dominated
                    dominated = True
                    break
            if dominated:
                continue
            seen_here.append(covered)
            self._recurse(rows_sorted[start:end], covered, dim + 1)


def _window_end(values: List[float], left: float, reach: float, start: int) -> int:
    """One past the last of the sorted ``values`` (from ``start``) with
    ``value - left <= reach``.

    ``value - left`` is monotone in ``value``, so the window is a prefix;
    ``bisect_right`` on ``left + reach`` lands within rounding of its
    end, and the two loops settle the last ulp.
    """
    end = bisect_right(values, left + reach, start)
    while end > start and values[end - 1] - left > reach:
        end -= 1
    while end < len(values) and values[end] - left <= reach:
        end += 1
    return end


def _maximal_only(sets: Iterable[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """Filter a family of sets down to its inclusion-maximal members.

    Candidates are processed in decreasing-size order and dominance is
    only checked against kept sets of *strictly larger* size — a
    same-size set can never strictly contain another — so the common
    case of many equal-size windows skips the quadratic scan entirely.
    """
    ordered = sorted(set(sets), key=len, reverse=True)
    out: List[FrozenSet[int]] = []
    larger_end = 0  # kept sets in out[:larger_end] are strictly larger
    current_size = -1
    for cand in ordered:
        if len(cand) != current_size:
            current_size = len(cand)
            larger_end = len(out)
        if not any(cand < out[i] for i in range(larger_end)):
            out.append(cand)
    return out


def _maximal_only_masks(masks: Iterable[int]) -> List[int]:
    """:func:`_maximal_only` on bitmasks (dominance = ``a & ~b == 0``)."""
    ordered = sorted(set(masks), key=popcount, reverse=True)
    out: List[int] = []
    larger_end = 0
    current_size = -1
    for cand in ordered:
        size = popcount(cand)
        if size != current_size:
            current_size = size
            larger_end = len(out)
        if not any(cand & ~out[i] == 0 for i in range(larger_end)):
            out.append(cand)
    return out


def enumerate_maximal_motions(
    transition: Transition,
    candidates: Sequence[int],
    anchor: Optional[int] = None,
) -> Tuple[List[Motion], int]:
    """Enumerate maximal r-consistent motions within ``candidates``.

    Parameters
    ----------
    transition:
        The interval ``[k-1, k]`` under analysis.
    candidates:
        Device identifiers to consider (typically ``N(j)`` or a partition
        residue).  Duplicates are ignored.
    anchor:
        When given, only motions containing this device are enumerated and
        maximality is relative to motions containing it — which coincides
        with global maximality because any motion containing the anchor
        extends to a maximal one that still contains it (Remark 1).

    Returns
    -------
    (motions, steps):
        ``motions`` is a list of frozensets of device ids in canonical
        order (decreasing size, then lexicographic members), each an
        inclusion-maximal r-consistent motion; ``steps`` counts window
        placements examined (cost proxy).
    """
    ids = sorted(set(int(c) for c in candidates))
    if anchor is not None and anchor not in ids:
        raise UnknownDeviceError(f"anchor {anchor} not among candidates")
    if not ids:
        return [], 0
    coords = transition.combined_of(ids)
    anchor_row = ids.index(anchor) if anchor is not None else None
    enum = _MaskWindowEnumerator(coords, 2.0 * transition.r, anchor_row)
    masks = enum.run()
    if anchor_row is not None:
        anchor_bit = 1 << anchor_row
        masks = _maximal_only_masks(m for m in masks if m & anchor_bit)
    motions = [frozenset(ids[i] for i in iter_bits(mask)) for mask in masks]
    motions.sort(key=lambda m: (-len(m), tuple(sorted(m))))
    return motions, enum.steps


def maximal_motions_containing(
    transition: Transition, device: int
) -> Tuple[List[Motion], int]:
    """Return all maximal r-consistent motions (within ``A_k``) containing
    ``device``.

    The candidate pool is ``N(device)`` — flagged devices within ``2r`` at
    both times — which is sufficient because every member of a motion
    containing ``device`` lies within ``2r`` of it at both times.

    A *lone* device (``N(device) == (device,)``) skips the sweep: its
    only motion is ``{device}``, and the sweep would have made exactly
    one window placement per combined dimension, ``2d`` steps.
    """
    neighborhood = transition.neighborhood(device)
    if neighborhood == (device,):
        return [frozenset(neighborhood)], 2 * transition.dim
    return enumerate_maximal_motions(transition, neighborhood, anchor=device)


def motion_family(transition: Transition, device: int) -> MotionFamily:
    """Build the :class:`MotionFamily` of a device.

    Packages ``M(j)`` (all maximal motions through ``j``) together with the
    dense subfamily ``Wbar_k(j)`` (those with more than ``tau`` members).
    """
    motions, steps = maximal_motions_containing(transition, device)
    dense = tuple(m for m in motions if len(m) > transition.tau)
    return MotionFamily(
        device=device,
        motions=tuple(motions),
        dense=dense,
        window_steps=steps,
    )


def all_maximal_motions(transition: Transition) -> List[Motion]:
    """Enumerate every maximal r-consistent motion within ``A_k``.

    Used by the greedy partition construction (Algorithm 1) and the test
    oracle.  Computed as the union of per-device anchored enumerations —
    every maximal motion contains at least one device, so nothing is
    missed — followed by a global maximality filter.
    """
    found: Set[Motion] = set()
    for device in transition.flagged_sorted:
        motions, _ = maximal_motions_containing(transition, device)
        found.update(motions)
    return sorted(_maximal_only(found), key=lambda m: tuple(sorted(m)))


def largest_motion_size(transition: Transition, candidates: Sequence[int]) -> int:
    """Return the size of the largest r-consistent motion within
    ``candidates`` (0 for an empty pool).

    This is the workhorse of the oracle's C1 check: condition C1 of
    Definition 6 holds iff no subset of the sparse union is tau-dense,
    i.e. iff this value is at most ``tau``.
    """
    motions, _ = enumerate_maximal_motions(transition, candidates)
    return max((len(m) for m in motions), default=0)


def brute_force_maximal_motions(
    transition: Transition,
    candidates: Sequence[int],
    anchor: Optional[int] = None,
) -> List[Motion]:
    """Reference enumerator: test every subset (exponential; tests only).

    Enumerates all subsets of ``candidates`` (containing ``anchor`` when
    given), keeps the r-consistent motions, and reduces to maximal ones.
    The sliding-window enumerator must agree with this on every input.
    """
    ids = sorted(set(int(c) for c in candidates))
    if anchor is not None and anchor not in ids:
        raise UnknownDeviceError(f"anchor {anchor} not among candidates")
    consistent: List[Motion] = []
    m = len(ids)
    for mask in range(1, 1 << m):
        subset = frozenset(ids[i] for i in range(m) if mask >> i & 1)
        if anchor is not None and anchor not in subset:
            continue
        if transition.is_consistent_motion(subset):
            consistent.append(subset)
    return sorted(_maximal_only(consistent), key=lambda s: tuple(sorted(s)))
