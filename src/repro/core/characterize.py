"""Local characterization of anomalies (Algorithms 3–5 of the paper).

Given a transition and a flagged device ``j``, decide whether ``j`` belongs
to ``I_k`` (isolated in every admissible anomaly partition), ``M_k``
(massive in every one), or ``U_k`` (unresolved), using only trajectories
within ``4r`` of ``j``:

1. **Theorem 5** (exact, cheap): ``Wbar_k(j) = {}  <=>  j in I_k``.
2. **Theorem 6** (sufficient, cheap): some maximal dense motion of ``j``
   keeps more than ``tau`` members inside ``J_k(j)``  ``=>  j in M_k``.
3. **Theorem 7 / Corollary 8** (exact, expensive): ``j in M_k`` iff *no*
   collection of pairwise-disjoint dense motions of ``L_k(j)`` members can
   simultaneously starve every dense motion of ``j`` (Relation 4) without
   re-admitting ``j`` (Relation 5).  A collection achieving both is a
   *counterexample* and certifies ``j in U_k``.

The Theorem 7 search is implemented as a pruned depth-first search for a
counterexample; Section "Algorithmic notes" of DESIGN.md records the
derivations it relies on:

* Relation (4) holds for a collection ``C`` iff some maximal dense motion
  ``M`` of ``j`` satisfies ``|M \\ union(C)| > tau`` (any dense motion of
  ``j`` inside ``D_k(j) \\ union(C)`` extends to a maximal one and
  conversely any surviving chunk of a maximal one of size ``> tau`` is
  itself a dense motion of ``j`` avoiding ``union(C)``);
* Relation (5) holds for ``C`` iff some ``B in C`` has ``B | {j}``
  r-consistent at both times (density is automatic since ``|B| > tau``).

**Candidate pool.**  The theorem draws collection members from
``W_k(l)`` — *all* tau-dense motions of ``L_k(j)`` members avoiding
``j``, not only maximal ones (a dense block of a partition, e.g. a pair
``{x, y}`` inside a larger maximal motion, need not be maximal).  The
implementation therefore enumerates every dense sub-motion ``B`` of the
``4r`` knowledge ball of ``j`` subject to three WLOG filters, each of
which preserves at least one counterexample whenever one exists:

* ``j not in B`` and ``B | {j}`` inconsistent — a collection containing a
  ``B`` consistent with ``j`` satisfies Relation (5) outright and is not
  a counterexample, so such ``B`` can never be needed;
* ``B`` intersects ``D_k(j)`` — Relation (4) only reads
  ``union(C) & D_k(j)``, and dropping a non-intersecting ``B`` keeps both
  relations failing;
* ``B`` lies inside the ``4r`` ball — any qualifying ``B`` touches
  ``D_k(j)`` (within ``2r`` of ``j``) and is itself ``2r``-bounded.

The membership requirement "``B in W_k(l)`` for some ``l in L_k(j)``" is
implied: if every member of ``B & D_k(j)`` were in ``J_k(j)``, extending
``B`` to a maximal dense motion would capture ``j`` and make
``B | {j}`` consistent, contradicting the first filter.

Every set the verdict touches is an integer bitmask over a
:class:`~repro.core.bitset.LocalUniverse`.  The pool of a device in a
shared 2r-connected component is read off one per-component table of
dense motion subsets (:meth:`Characterizer._shared_pool`); components
above the sharing bound enumerate it per device over the device's ``4r``
ball (:meth:`Characterizer._candidate_pool_masks`).

The search memoizes visited unions and counts every collection it
examines, feeding the Table III cost columns.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bitset import LocalUniverse, iter_bits, popcount
from repro.core.errors import (
    ConfigurationError,
    SearchBudgetExceeded,
    UnknownDeviceError,
)
from repro.core.geometry import CONSISTENCY_ATOL
from repro.core.motions import enumerate_maximal_motions
from repro.core.neighborhood import MotionCache, MotionComponent, split_masks
from repro.core.transition import Transition
from repro.core.types import (
    AnomalyType,
    Characterization,
    CostCounters,
    DecisionRule,
)

__all__ = ["Characterizer", "characterize_transition", "classify_sets"]


class _MaskCollectionSearch:
    """DFS for a Theorem 7 counterexample collection.

    State: the set of chosen candidate motions (pairwise disjoint, all
    avoiding ``j``) and their union, as ``int`` masks over the device's
    :class:`LocalUniverse`: disjointness is one AND, starvation
    remainders are ``motion & ~union`` popcounts, and the visited-union
    memo keys are the union ints themselves.  A state is a
    *counterexample* when every maximal dense motion of ``j`` has at
    most ``tau`` members outside the union.  Three prunings keep the
    search far below the raw collection count (compare the two
    rightmost columns of Table III):

    * branching targets the *most constrained* still-violating motion
      (fewest usable candidates), and only candidates intersecting it;
    * *coverability*: a node is dead when some violating motion cannot be
      starved below ``tau + 1`` even by taking every remaining usable
      candidate;
    * visited unions are memoized (different choice orders reaching the
      same union are explored once).

    Candidates arrive in canonical order and are re-ranked with stable
    sorts, so ``tested`` and the returned counterexample are
    deterministic.
    """

    def __init__(
        self,
        dense_of_j: Sequence[int],
        candidates: Sequence[int],
        tau: int,
        budget: Optional[int],
    ) -> None:
        self._dense_of_j = list(dense_of_j)
        self._candidates = list(candidates)
        self._tau = tau
        self._budget = budget
        self._visited: Set[int] = set()
        self.tested = 0
        self.work = 0

    def find_counterexample(self) -> Optional[Tuple[int, ...]]:
        """Return a counterexample collection (masks), or None."""
        return self._dfs((), 0)

    def _charge(self) -> None:
        # Each node costs roughly one pass over the candidate pool, so the
        # budget is enforced in *work units* (candidate inspections), not
        # raw node counts — a node with a 10k-candidate pool is 10k times
        # more expensive than one with a single candidate and must count
        # accordingly for the bound to mean anything.
        self.tested += 1
        self.work += max(1, len(self._candidates))
        if self._budget is not None and self.work > self._budget:
            raise SearchBudgetExceeded(
                f"Theorem 7 search exceeded its budget of {self._budget} "
                "candidate inspections"
            )

    def _dfs(
        self, chosen: Tuple[int, ...], union: int
    ) -> Optional[Tuple[int, ...]]:
        if union in self._visited:
            return None
        self._visited.add(union)
        self._charge()
        not_union = ~union
        usable = [cand for cand in self._candidates if not cand & union]
        best_helpers: Optional[List[int]] = None
        best_remainder = 0
        for motion in self._dense_of_j:
            remainder = motion & not_union
            if popcount(remainder) <= self._tau:
                continue
            helpers = [cand for cand in usable if cand & remainder]
            coverable = 0
            for cand in helpers:
                coverable |= cand & remainder
            if popcount(remainder & ~coverable) > self._tau:
                return None  # this motion can never be starved from here
            if best_helpers is None or len(helpers) < len(best_helpers):
                best_helpers = helpers
                best_remainder = remainder
        if best_helpers is None:
            return chosen  # Relations 4 and 5 both fail: counterexample.
        best_helpers.sort(key=lambda cand: -popcount(cand & best_remainder))
        for cand in best_helpers:
            hit = self._dfs(chosen + (cand,), union | cand)
            if hit is not None:
                return hit
        return None


def _count_collections(masks: Sequence[int], cap: Optional[int] = None) -> int:
    """Count all pairwise-disjoint sub-collections of the candidate
    ``masks``.

    This is the paper's "all the collections of dense motions containing
    the devices in ``L_k(j)``" (fourth column of Table III).  The empty
    collection is counted.  ``cap`` bounds the count to keep the Table III
    experiment from running forever on adversarial inputs.  The
    disjointness test inside the exponential recursion is a single AND.
    """
    total = 0

    def rec(start: int, union: int) -> bool:
        nonlocal total
        total += 1
        if cap is not None and total >= cap:
            return False
        for i in range(start, len(masks)):
            if masks[i] & union:
                continue
            if not rec(i + 1, union | masks[i]):
                return False
        return True

    rec(0, 0)
    return total


#: Largest maximal-motion size whose subset enumeration runs vectorized;
#: above it (rare, adversarial — the default ``pool_cap`` allows up to
#: 2^22 subsets) a per-subset loop bounds memory at the cost of speed.
_VEC_SUBSET_LIMIT = 17

#: Per-(size, tau) cache of the local masks with more than ``tau`` bits
#: and their popcounts; repeated motions of one size pay the setup once.
_DENSE_LOCALS: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _dense_locals(m: int, tau: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every local mask over ``m`` members with more than ``tau`` bits,
    and its popcount (portable across NumPy versions)."""
    cached = _DENSE_LOCALS.get((m, tau))
    if cached is None:
        locals_ = np.arange(1 << m, dtype=np.int64)
        counts = np.zeros(1 << m, dtype=np.int64)
        for bit in range(m):
            counts += (locals_ >> bit) & 1
        dense = counts > tau
        cached = _DENSE_LOCALS[(m, tau)] = (locals_[dense], counts[dense])
    return cached


def _qualifying_locals(tau: int, m: int, d_local: int, far_local: int) -> np.ndarray:
    """All Theorem 7 candidate subsets of one maximal motion, as local
    masks over its ``m`` members.

    Every subset ``B`` enumerated here sits inside one maximal motion,
    whose combined bounding box already fits a ``2r`` window (the
    enumerator rounds its extents exactly as
    :meth:`~repro.core.transition.Transition.is_consistent_motion`
    does).  Under that premise, ``B ∪ {j}``'s box
    exceeds ``2r`` iff some *single member* of ``B`` is more than ``2r``
    away from ``j`` in some combined dimension — the box of ``B`` alone
    can never blow the budget.  Consistency-with-``j`` therefore
    collapses from a per-subset bounding box to the per-member flags
    ``far_local``, and the three pool filters become vectorized mask
    tests over the motion's dense local masks: popcount ``> tau`` (the
    table), ``mask & d_local != 0`` and ``mask & far_local != 0``.
    """
    dense, _ = _dense_locals(m, tau)
    return dense[((dense & d_local) != 0) & ((dense & far_local) != 0)]


def _local_of(positions: Sequence[int], mask: int) -> int:
    """Compress ``mask`` onto ``positions`` (local bit k = bit positions[k])."""
    local = 0
    for k, i in enumerate(positions):
        if mask >> i & 1:
            local |= 1 << k
    return local


def _decode(
    locals_: Sequence[int], positions: Sequence[int], width: int
) -> Iterable[Tuple[int, int]]:
    """Decode local masks over ``positions`` to ``(mask, reversed)``
    pairs: the mask over ``width`` bits and its bit reversal.  When both
    fit an ``int64`` one matmul decodes them together."""
    if width <= 63:
        local = np.asarray(locals_, dtype=np.int64)
        sel = (local[:, None] >> np.arange(len(positions), dtype=np.int64)) & 1
        bits = np.array(
            [[1 << i, 1 << (width - 1 - i)] for i in positions], dtype=np.int64
        )
        return zip(*(sel @ bits).T.tolist())
    out = []
    for local in locals_:
        mask = rev = 0
        for k in iter_bits(int(local)):
            mask |= 1 << positions[k]
            rev |= 1 << (width - 1 - positions[k])
        out.append((mask, rev))
    return out


def _deposit(bits: np.ndarray) -> np.ndarray:
    """Masks of all ``2^m`` subsets of each row of ``bits`` (``(G, m)``
    ``uint64``), indexed by local mask: ``out[g, local]`` ORs
    ``bits[g, k]`` over the set bits ``k`` of ``local``."""
    out = np.zeros((bits.shape[0], 1), dtype=np.uint64)
    for k in range(bits.shape[1]):
        out = np.concatenate([out, out | bits[:, k : k + 1]], axis=1)
    return out


def _dense_subsets(component: MotionComponent, tau: int) -> np.ndarray:
    """Every dense subset of a component's maximal motions, in canonical
    order, as ``uint64`` masks over its rows.

    Rows follow device ids, so the canonical order (larger first, ties
    lexicographic on members) is descending popcount, then descending
    bit-reversed mask: among equal popcounts the lowest differing bit
    decides, and the reversal makes it the highest one.  The reversed
    masks are deposited alongside the masks, all motions of one size at
    once.
    """
    width = len(component.devices)
    by_size: Dict[int, List[List[int]]] = {}
    for motion_mask in component.masks:
        rows = list(iter_bits(motion_mask))
        if len(rows) > tau:
            by_size.setdefault(len(rows), []).append(rows)
    if not by_size:
        return np.empty(0, dtype=np.uint64)
    masks: List[np.ndarray] = []
    reversed_masks: List[np.ndarray] = []
    counts: List[np.ndarray] = []
    for m, motions in by_size.items():
        dense, count = _dense_locals(m, tau)
        rows = np.array(motions, dtype=np.uint64)
        one = np.uint64(1)
        both = _deposit(
            np.concatenate([one << rows, one << (np.uint64(width - 1) - rows)])
        )[:, dense]
        masks.append(both[: len(motions)].ravel())
        reversed_masks.append(both[len(motions) :].ravel())
        counts.append(np.tile(count, len(motions)))
    unique, first = np.unique(np.concatenate(masks), return_index=True)
    order = np.lexsort(
        (~np.concatenate(reversed_masks)[first], -np.concatenate(counts)[first])
    )
    return unique[order]


class Characterizer:
    """Characterize flagged devices of one transition (Algorithm 3/4).

    Parameters
    ----------
    transition:
        The interval ``[k-1, k]`` under analysis.
    full_nsc:
        When true (default), devices that Theorem 6 cannot settle run the
        Theorem 7 / Corollary 8 exact search (Algorithm 4).  When false,
        they are reported unresolved with rule ``ALGORITHM_3`` — the cheap
        mode whose accuracy Table II quantifies (it misses ~0.4% of
        massive devices).
    collection_budget:
        Optional bound on the Theorem 7 search *work* per device, counted
        in candidate inspections (each search node costs one pass over
        the candidate pool); exceeding it raises
        :class:`~repro.core.errors.SearchBudgetExceeded`.
    count_all_collections:
        When true, also count *all* admissible collections per device
        (Table III's last column).  Off by default: the count can be
        astronomically larger than the number of tested collections.
    collection_count_cap:
        Cap for the exhaustive collection count.
    pool_cap:
        Cap on the Theorem 7 candidate-pool size (and on the subset
        enumeration of any single maximal motion).  The pool is tiny in
        the paper's operating regime (the ``4r`` ball holds a handful of
        flagged devices); the cap guards adversarial inputs.
    budget_fallback:
        When true, a device whose exact search exceeds ``collection_budget``
        or ``pool_cap`` is reported *unresolved* with rule ``ALGORITHM_3``
        (an explicit "undecided") instead of raising
        :class:`SearchBudgetExceeded`.  Sound but incomplete — identical
        in spirit to stopping at the Theorem 6 fast path — and the right
        choice for long unattended sweeps.
    cache:
        Optional externally-owned :class:`MotionCache` to use instead of a
        private one.  The engine layer passes a cache it keeps alive for
        the whole transition, so several characterizer instances (or
        repeated subset passes) share motion families.  Must be bound to
        ``transition``.
    """

    def __init__(
        self,
        transition: Transition,
        *,
        full_nsc: bool = True,
        collection_budget: Optional[int] = None,
        count_all_collections: bool = False,
        collection_count_cap: Optional[int] = 10_000_000,
        pool_cap: Optional[int] = 1 << 22,
        budget_fallback: bool = False,
        cache: Optional[MotionCache] = None,
    ) -> None:
        self._transition = transition
        self._full_nsc = full_nsc
        self._budget = collection_budget
        self._count_all = count_all_collections
        self._count_cap = collection_count_cap
        self._pool_cap = pool_cap
        self._budget_fallback = budget_fallback
        if cache is not None and cache.transition is not transition:
            raise ConfigurationError(
                "shared MotionCache is bound to a different transition"
            )
        self._cache = cache if cache is not None else MotionCache(transition)
        self._subset_tables: Dict[MotionComponent, np.ndarray] = {}

    @property
    def transition(self) -> Transition:
        """The transition being characterized."""
        return self._transition

    @property
    def cache(self) -> MotionCache:
        """The shared motion-family cache (exposed for instrumentation)."""
        return self._cache

    # ------------------------------------------------------------------
    def characterize(self, device: int) -> Characterization:
        """Classify one flagged device (Algorithm 3, optionally 4)."""
        if device not in self._transition.flagged:
            raise UnknownDeviceError(
                f"device {device} is not in A_k; only flagged devices are characterized"
            )
        cost = CostCounters()
        family = self._cache.family(device)
        cost.maximal_motions = len(family.motions)
        cost.window_steps = family.window_steps

        # --- Theorem 5: no dense motion => isolated, exactly. ---
        if not family.has_dense_motion:
            return Characterization(
                device=device,
                anomaly_type=AnomalyType.ISOLATED,
                rule=DecisionRule.THEOREM_5,
                cost=cost,
            )

        cost.dense_motions = len(family.dense)
        return self._characterize_dense_masks(device, family, cost)

    def _fallback_or_raise(
        self, device: int, cost: CostCounters, error: SearchBudgetExceeded
    ) -> Characterization:
        """Apply the ``budget_fallback`` policy to a blown search budget."""
        if not self._budget_fallback:
            raise error
        return Characterization(
            device=device,
            anomaly_type=AnomalyType.UNRESOLVED,
            rule=DecisionRule.ALGORITHM_3,
            cost=cost,
        )

    def _characterize_dense_masks(
        self, device: int, family, cost: CostCounters
    ) -> Characterization:
        """Theorems 6/7 on bitmasks over a local universe."""
        # Seed the universe with a sorted device set holding every set
        # the verdict touches (D_k(j), neighbour families, pool motions):
        # the device's component, shared by its members, else its 4r
        # knowledge ball.  Bit rank order == device id order, so
        # canonical sort keys read straight off the bits.  A component
        # whose dense-subset table would outgrow one vectorized motion
        # (2^_VEC_SUBSET_LIMIT subsets) takes the per-device path.
        tau = self._transition.tau
        cache = self._cache
        component = cache.component(device)
        split = None if component is None else component.split(tau)
        before = cache.expansions
        if split is None or split.subsets > 1 << _VEC_SUBSET_LIMIT:
            component = None
            universe = LocalUniverse(self._transition.knowledge_ball(device))
            d_mask, j_mask, _ = split_masks(cache, device, universe)
            motions = family.dense
            dense_masks = [universe.mask_of(motion) for motion in motions]
        else:
            # The component's split, and its own row masks: no per-motion
            # encoding.  The families of D_k(j) members are materialized
            # as split_masks would, so neighbor_expansions stays exact.
            universe = component.universe
            row = component.rows[device]
            d_mask = split.d[row]
            j_mask = split.j[row]
            devices = component.devices
            cache.materialize(devices[i] for i in iter_bits(d_mask & ~(1 << row)))
            dense = split.dense[row]
            motions = [component.motions[k] for k in dense]
            dense_masks = [component.masks[k] for k in dense]
        cost.neighbor_expansions = cache.expansions - before

        # --- Theorem 6: a dense motion inside J_k(j) => massive. ---
        for motion, mask in zip(motions, dense_masks):
            if popcount(mask & j_mask) > tau:
                return Characterization(
                    device=device,
                    anomaly_type=AnomalyType.MASSIVE,
                    rule=DecisionRule.THEOREM_6,
                    cost=cost,
                    witness=(motion,),
                )

        if not self._full_nsc:
            return Characterization(
                device=device,
                anomaly_type=AnomalyType.UNRESOLVED,
                rule=DecisionRule.ALGORITHM_3,
                cost=cost,
            )

        try:
            if component is None:
                candidates = self._candidate_pool_masks(device, d_mask, universe)
            else:
                candidates = self._shared_pool(device, d_mask, component)
            return self._characterize_full_masks(
                device, dense_masks, candidates, universe, cost
            )
        except SearchBudgetExceeded as exc:
            return self._fallback_or_raise(device, cost, exc)

    def _characterize_full_masks(
        self,
        device: int,
        dense_masks: Sequence[int],
        candidates: Sequence[int],
        universe: LocalUniverse,
        cost: CostCounters,
    ) -> Characterization:
        """Theorem 7 / Corollary 8 exact decision on bitmasks."""
        if self._count_all:
            cost.total_collections = _count_collections(
                candidates, cap=self._count_cap
            )
        search = _MaskCollectionSearch(
            dense_masks, candidates, self._transition.tau, self._budget
        )
        counterexample = search.find_counterexample()
        cost.tested_collections = search.tested
        if counterexample is None:
            return Characterization(
                device=device,
                anomaly_type=AnomalyType.MASSIVE,
                rule=DecisionRule.THEOREM_7,
                cost=cost,
            )
        return Characterization(
            device=device,
            anomaly_type=AnomalyType.UNRESOLVED,
            rule=DecisionRule.COROLLARY_8,
            cost=cost,
            witness=tuple(universe.devices_of(c) for c in counterexample),
        )

    def _shared_pool(
        self, device: int, d_mask: int, component: MotionComponent
    ) -> List[int]:
        """The Theorem 7 candidate pool of ``device`` (see the module
        docstring), read off its shared component as masks over the
        component's rows (its universe), in canonical order: larger
        candidates first, ties broken lexicographically on members.

        The maximal motions of ``ball \\ {j}`` that meet the component
        are the inclusion-maximal sets among ``M ∩ ball \\ {j}`` over the
        component's maximal motions ``M``: a motion is 2r-connected, so
        it lies in one component, and every consistent subset of the
        component lies in some ``M``.  Motions of other components never
        qualify — candidates must meet ``D_k(j)``, inside the component.
        So the pool is the component's dense-subset table
        (:func:`_dense_subsets`, built once per component) filtered by
        three mask tests: inside ``ball \\ {j}``, meeting ``D_k(j)``,
        and holding a member farther than ``2r`` from ``j`` (see
        :func:`_qualifying_locals`; one distance matrix per component).
        A filter keeps the table's canonical order.
        """
        transition = self._transition
        tau = transition.tau
        cap = self._pool_cap
        rows = component.rows
        inside = 0
        for x in transition.knowledge_ball(device):
            row = rows.get(x)
            if row is not None:
                inside |= 1 << row
        inside &= ~(1 << rows[device])
        # The largest cut M ∩ ball \ {j} is one of the pool's maximal
        # motions, and the largest one: the per-motion 2^m guard.
        largest = max(popcount(mask & inside) for mask in component.masks)
        if cap is not None and largest > tau and (1 << largest) > cap:
            raise SearchBudgetExceeded(
                f"candidate pool for device {device} requires enumerating "
                f"2^{largest} subsets of one maximal motion (cap {cap})"
            )
        table = self._subset_tables.get(component)
        if table is None:
            table = self._subset_tables[component] = _dense_subsets(component, tau)
        # Inside the ball is implied by the next two tests up to float
        # tolerance (a subset of one motion that meets D_k(j) lies
        # within 4r of j); testing it keeps the pool exactly the ball's.
        outside = ((1 << len(rows)) - 1) & ~inside
        far = component.far_rows(transition, device)
        keep = (table & np.uint64(outside)) == 0
        keep &= (table & np.uint64(d_mask)) != 0
        keep &= (table & np.uint64(far)) != 0
        pool = table[keep].tolist()
        if cap is not None and len(pool) > cap:
            raise SearchBudgetExceeded(
                f"candidate pool for device {device} exceeded {cap}"
            )
        return pool

    def _candidate_pool_masks(
        self, device: int, d_mask: int, universe: LocalUniverse
    ) -> List[int]:
        """The per-device Theorem 7 candidate pool, for devices without a
        shareable component: the same sets, in the same order, as
        :meth:`_shared_pool` would return over the component.

        ``universe`` is seeded with the sorted ``4r`` ball, so bit ``i``
        is ``ball[i]``.  Subsets of each maximal motion of the ball
        without ``j`` are enumerated as local masks over its members —
        vectorized up to ``_VEC_SUBSET_LIMIT`` members
        (:func:`_qualifying_locals`), an exact per-subset loop above —
        and the survivors are decoded to universe masks together with
        their bit-reversed masks, the canonical sort key (see
        :func:`_dense_subsets`).
        """
        transition = self._transition
        tau = transition.tau
        cap = self._pool_cap
        ball = transition.knowledge_ball(device)
        region = [x for x in ball if x != device]
        if not region:
            return []
        maximal, _ = enumerate_maximal_motions(transition, region)
        pts = transition.combined_of(ball)
        far = np.flatnonzero(
            np.abs(pts - transition.combined_of((device,))).max(axis=1)
            > 2.0 * transition.r + CONSISTENCY_ATOL
        )
        far_mask = sum(1 << int(i) for i in far)
        width = len(ball)
        pool: Dict[int, int] = {}  # universe mask -> bit-reversed mask
        for motion in maximal:
            m = len(motion)
            if m <= tau:
                continue
            if cap is not None and (1 << m) > cap:
                raise SearchBudgetExceeded(
                    f"candidate pool for device {device} requires enumerating "
                    f"2^{m} subsets of one maximal motion (cap {cap})"
                )
            positions = list(iter_bits(universe.mask_of(motion)))
            d_local = _local_of(positions, d_mask)
            far_local = _local_of(positions, far_mask)
            if not (d_local and far_local):
                continue
            if m <= _VEC_SUBSET_LIMIT:
                survivors = _qualifying_locals(tau, m, d_local, far_local)
            else:  # pragma: no cover - adversarial sizes; guarded by pool_cap
                survivors = self._qualifying_locals_loop(
                    device, [ball[i] for i in positions], d_local
                )
            pool.update(_decode(survivors, positions, width))
            if cap is not None and len(pool) > cap:
                raise SearchBudgetExceeded(
                    f"candidate pool for device {device} exceeded {cap}"
                )
        # Canonical order: larger candidates first (the DFS starves
        # violating motions quickly), ties broken lexicographically on
        # members.
        return sorted(pool, key=lambda um: (-popcount(um), -pool[um]))

    def _qualifying_locals_loop(
        self, device: int, members: Sequence[int], d_local: int
    ) -> List[int]:
        """Per-subset twin of :func:`_qualifying_locals` for motions too
        large to vectorize: the exact ``B ∪ {j}`` consistency check."""
        transition = self._transition
        tau = transition.tau
        out: List[int] = []
        for local in range(1, 1 << len(members)):
            if popcount(local) <= tau or not local & d_local:
                continue
            subset = [device]
            subset.extend(members[i] for i in iter_bits(local))
            if not transition.is_consistent_motion(subset):
                out.append(local)
        return out

    # ------------------------------------------------------------------
    def characterize_many(
        self, devices: Sequence[int]
    ) -> Dict[int, Characterization]:
        """Classify a subset of ``A_k`` (shared cache across devices)."""
        return {device: self.characterize(device) for device in devices}

    def characterize_all(self) -> Dict[int, Characterization]:
        """Classify every device of ``A_k`` (shared cache across devices)."""
        return self.characterize_many(self._transition.flagged_sorted)


def characterize_transition(
    transition: Transition, **kwargs
) -> Dict[int, Characterization]:
    """One-shot helper: build a :class:`Characterizer` and classify ``A_k``.

    Keyword arguments are forwarded to :class:`Characterizer`.
    """
    return Characterizer(transition, **kwargs).characterize_all()


def classify_sets(
    results: Dict[int, Characterization]
) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
    """Split characterization results into the sets ``(I_k, M_k, U_k)``."""
    isolated = frozenset(j for j, c in results.items() if c.is_isolated)
    massive = frozenset(j for j, c in results.items() if c.is_massive)
    unresolved = frozenset(j for j, c in results.items() if c.is_unresolved)
    return isolated, massive, unresolved
