"""Geometry of the QoS space ``E = [0, 1]^d`` under the uniform norm.

The paper models the QoS of a device consuming ``d`` services as a point in
the unit cube and measures closeness with the uniform (sup / Chebyshev /
``L-inf``) norm: ``||x|| = max_i |x_i|``.  Two facts drive every algorithm
in :mod:`repro.core`:

* a set is *r-consistent* (pairwise distance at most ``2r``) **iff** its
  axis-aligned bounding box has side at most ``2r`` in every dimension;
* the ball of radius ``rho`` around a point is the axis-aligned box of
  side ``2 * rho`` centred at it.

This module provides the norm, box predicates and a uniform grid index used
to answer "who is within distance ``rho`` of ``j``" queries in roughly
constant time per neighbour, which keeps the local algorithms local in cost
as well as in information.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError, DimensionMismatchError

__all__ = [
    "CONSISTENCY_ATOL",
    "uniform_norm",
    "uniform_distance",
    "pairwise_uniform_distances",
    "bounding_box_side",
    "is_r_consistent_points",
    "points_within",
    "validate_radius",
    "validate_unit_cube",
    "cells_within_rings",
    "cells_ring_distance",
    "unique_cells",
    "split_flat",
    "GridIndex",
]

#: Absolute slack of the ``2r`` consistency and range tests (motion
#: consistency, neighbourhood and ball queries), so points engineered to
#: sit exactly ``2r`` apart classify the same on every platform.  Two
#: hops of it bound how far past ``4r`` a verdict can read
#: (:mod:`repro.online.dirty`).
CONSISTENCY_ATOL = 1e-12


def uniform_norm(x: np.ndarray) -> float:
    """Return ``||x||_inf = max_i |x_i|``.

    The paper (Section III-B) uses this norm for all closeness arguments;
    since all norms on a finite-dimensional space are equivalent, results
    transfer to any norm up to a constant factor.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def uniform_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Return the uniform-norm distance between two points."""
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape:
        raise DimensionMismatchError(
            f"points have shapes {ax.shape} and {ay.shape}"
        )
    return uniform_norm(ax - ay)


def pairwise_uniform_distances(points: np.ndarray) -> np.ndarray:
    """Return the ``(m, m)`` matrix of pairwise uniform distances.

    ``points`` is an ``(m, d)`` array.  Vectorized; used by tests and by
    the exhaustive oracle where clarity beats asymptotics.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatchError("points must be an (m, d) array")
    diff = pts[:, None, :] - pts[None, :, :]
    return np.max(np.abs(diff), axis=-1)


def bounding_box_side(points: np.ndarray) -> float:
    """Return the largest per-dimension extent of the point set.

    For the uniform norm, the diameter of a finite set equals the largest
    side of its axis-aligned bounding box, so a set is r-consistent iff
    ``bounding_box_side(points) <= 2 * r``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatchError("points must be an (m, d) array")
    if pts.shape[0] == 0:
        return 0.0
    return float(np.max(pts.max(axis=0) - pts.min(axis=0)))


def is_r_consistent_points(
    points: np.ndarray, r: float, *, atol: float = CONSISTENCY_ATOL
) -> bool:
    """Check Definition 1: pairwise uniform distances all at most ``2r``.

    A small absolute tolerance absorbs floating-point noise so that points
    engineered to sit exactly ``2r`` apart (as in the paper's figures) are
    classified consistently across platforms.
    """
    return bounding_box_side(points) <= 2.0 * r + atol


def points_within(points: np.ndarray, center: np.ndarray, rho: float,
                  *, atol: float = CONSISTENCY_ATOL) -> np.ndarray:
    """Return indices of rows of ``points`` within uniform distance ``rho``.

    This is the vicinity ``V = {x : ||x - center|| <= rho}`` of
    Section VII-A, realized as a box membership test.
    """
    pts = np.asarray(points, dtype=float)
    ctr = np.asarray(center, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != ctr.shape[0]:
        raise DimensionMismatchError(
            f"points shape {pts.shape} incompatible with center shape {ctr.shape}"
        )
    mask = np.all(np.abs(pts - ctr) <= rho + atol, axis=1)
    return np.nonzero(mask)[0]


def validate_radius(r: float) -> float:
    """Validate the consistency impact radius ``r in [0, 1/4)``.

    The bound comes from Definition 1 of the paper: beyond ``1/4`` the
    ``2r`` boxes can cover half the unit interval and the locality argument
    (knowledge radius ``4r``) stops being meaningfully local.
    """
    if not 0.0 <= r < 0.25:
        raise ConfigurationError(f"radius r must lie in [0, 1/4), got {r!r}")
    return float(r)


def validate_unit_cube(points: np.ndarray, *, atol: float = 1e-9) -> np.ndarray:
    """Validate that every coordinate lies in ``[0, 1]`` and return the array.

    QoS measurement functions have range ``[0, 1]`` by definition
    (Section III-A); out-of-range data indicates a broken measurement
    pipeline and is rejected eagerly.
    """
    pts = np.asarray(points, dtype=float)
    # Written so that NaN fails it: NaN fails every comparison, and one
    # NaN makes both min() and max() NaN.
    if pts.size and not (pts.min() >= -atol and pts.max() <= 1.0 + atol):
        raise ConfigurationError(
            "QoS coordinates must lie in [0, 1] (NaN is not a coordinate); "
            f"got range [{pts.min()}, {pts.max()}]"
        )
    return pts


#: Largest cell-code range the linearized paths use; beyond it (a tiny
#: cell in high dimension) codes could overflow int64.
_CODE_LIMIT = 1 << 62

#: Largest ``q * m`` (queries times indexed points) that a batch range
#: query answers with the direct Chebyshev scan rather than the sorted
#: cell codes: up to it the scan's O(q * m * d) compares cost less than
#: building the codes and answering on them.  Measured for d = 1..3
#: (DESIGN.md, "Neighbourhood queries").
_SCAN_CROSSOVER = 1 << 19

#: Slack added to a grid query's candidate-cell span, far above the
#: rounding error of coordinates in the unit cube and far below any
#: cell side, so ``floor`` never drops a cell that holds a hit.
_ROUNDING_GUARD = 1e-9

#: Element budget of one chunk of a broadcast comparison, so memory stays
#: bounded however many probes or cells a call gets.
_CHUNK_ELEMENTS = 1 << 20


def _row_major_strides(span: np.ndarray) -> Optional[np.ndarray]:
    """Strides linearizing the integer box of extent ``span``, or ``None``.

    ``None`` means the box has ``2**62`` cells or more, so its codes could
    overflow int64 and callers must fall back to a coordinate-wise test.
    """
    total = 1
    for extent in span.tolist():
        total *= int(extent)
    if total >= _CODE_LIMIT:
        return None
    strides = np.ones(span.shape[0], dtype=np.int64)
    for d in range(span.shape[0] - 2, -1, -1):
        strides[d] = strides[d + 1] * span[d + 1]
    return strides


def unique_cells(keys: np.ndarray) -> np.ndarray:
    """Sorted (lexicographic), de-duplicated rows of ``(k, d)`` cell keys.

    ``np.unique(keys, axis=0)`` over linearized codes: row-major codes
    over the keys' bounding box sort exactly like the key rows, so one
    flat integer ``np.unique`` plus a decode replaces the much slower
    row-wise unique (kept as the fallback where codes could overflow).
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.shape[0] == 0:
        return keys
    lo = keys.min(axis=0)
    span = keys.max(axis=0) - lo + 1
    strides = _row_major_strides(span)
    if strides is None:
        return np.unique(keys, axis=0)
    codes = np.unique((keys - lo) @ strides)
    return codes[:, None] // strides % span + lo


def cells_within_rings(
    probes: np.ndarray, cells: np.ndarray, rings: int
) -> np.ndarray:
    """Which probe cells lie within ``rings`` (Chebyshev) of any listed cell.

    ``probes`` and ``cells`` are ``(p, d)`` / ``(c, d)`` integer cell keys;
    the result is a ``(p,)`` boolean mask:
    ``cells_ring_distance(probes, cells, rings) <= rings``.
    """
    return cells_ring_distance(probes, cells, rings) <= rings


def cells_ring_distance(
    probes: np.ndarray, cells: np.ndarray, rings: int
) -> np.ndarray:
    """Chebyshev distance, in cells, from each probe to its nearest listed
    cell, capped at ``rings + 1``.

    ``probes`` and ``cells`` are ``(p, d)`` / ``(c, d)`` integer cell keys;
    the result is a ``(p,)`` int64 array, so one pass answers every band
    up to ``rings`` (``dist <= k`` for any ``k <= rings``).  Each probe is
    expanded by the precomputed ``(2 rings + 1)^d`` stencil of linearized
    cell-code offsets and the expansion is located in the sorted codes of
    ``cells`` with ``searchsorted``, so the cost is
    ``O(p (2 rings + 1)^d log c)`` — independent of how many devices
    share the grid.  Codes linearize the smallest integer box holding
    both sets and every stencil cell, a bijection on that box; where its
    cell count would overflow int64 the distances fall back to a direct
    coordinate-wise Chebyshev comparison.
    """
    if rings < 0:
        raise ConfigurationError(f"rings must be >= 0, got {rings!r}")
    probes = np.asarray(probes, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    p = probes.shape[0]
    cap = rings + 1
    out = np.full(p, cap, dtype=np.int64)
    if p == 0 or cells.size == 0:
        return out
    if probes.ndim != 2 or cells.ndim != 2 or probes.shape[1] != cells.shape[1]:
        raise DimensionMismatchError(
            f"probe keys {probes.shape} and cell keys {cells.shape} disagree"
        )
    dim = probes.shape[1]
    c = cells.shape[0]
    lo = np.minimum(cells.min(axis=0), probes.min(axis=0) - rings)
    hi = np.maximum(cells.max(axis=0), probes.max(axis=0) + rings)
    strides = _row_major_strides(hi - lo + 1)
    if strides is None:
        # Direct Chebyshev comparison, one column at a time.
        chunk = max(1, _CHUNK_ELEMENTS // c)
        for start in range(0, p, chunk):
            block = probes[start : start + chunk]
            dist = np.zeros((block.shape[0], c), dtype=np.int64)
            for column, keys in zip(block.T, cells.T):
                np.maximum(dist, np.abs(column[:, None] - keys), out=dist)
            out[start : start + chunk] = np.minimum(dist.min(axis=1), cap)
        return out
    side = np.arange(-rings, rings + 1, dtype=np.int64)
    offsets = np.stack(
        np.meshgrid(*([side] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    ring_of = np.abs(offsets).max(axis=1)
    stencil = offsets @ strides
    sorted_codes = np.sort((cells - lo) @ strides)
    last = sorted_codes.shape[0] - 1
    base = (probes - lo) @ strides
    chunk = max(1, _CHUNK_ELEMENTS // stencil.shape[0])
    for start in range(0, p, chunk):
        expanded = base[start : start + chunk, None] + stencil[None, :]
        pos = np.minimum(np.searchsorted(sorted_codes, expanded), last)
        hit = sorted_codes[pos] == expanded
        out[start : start + chunk] = np.where(hit, ring_of, cap).min(axis=1)
    return out


def split_flat(query_of: np.ndarray, rows: list, q: int, kind=tuple) -> list:
    """Split the flat ``(query_of, rows)`` answer into ``q`` per-query
    sequences of type ``kind``: one ``bincount`` plus list slices, with
    ``rows`` already converted by one ``tolist``."""
    ends = np.cumsum(np.bincount(query_of, minlength=q)).tolist()
    starts = [0] + ends[:-1]
    return [kind(rows[a:b]) for a, b in zip(starts, ends)]


class GridIndex:
    """Uniform-grid spatial index over points in ``[0, 1]^d``.

    Cells have side ``cell``; a range query of radius ``rho`` inspects the
    ``ceil(rho / cell) + 1`` ring of cells around the query point.  For the
    paper's regime (``n = 1000``, ``r = 0.03``) neighbourhood queries touch
    a handful of cells, so building the index once per snapshot makes the
    whole characterization pass near-linear in ``n``.

    A batch of ``q`` queries over ``m`` points answers either way:

    * ``q * m <= _SCAN_CROSSOVER`` (a small flagged set, or a few
      queries): a direct Chebyshev scan of every point, one column at a
      time.  No sorted codes are built.
    * above it: points are kept sorted by a linearized cell code (built
      on the first such query), so the batch reduces to ``searchsorted``
      plus fancy indexing over the candidate cells; there is no per-cell
      dictionary.  Where the occupied key box would overflow int64
      codes, the scan answers at any size.

    Both sides keep exactly the points with ``|p - c| <= rho + atol`` in
    every coordinate: the grid's candidate cells span that full reach,
    ``atol`` sliver included, so the two sides agree point for point.
    """

    def __init__(self, points: np.ndarray, cell: float) -> None:
        if cell <= 0:
            raise ConfigurationError(f"cell side must be positive, got {cell!r}")
        self._points = np.asarray(points, dtype=float)
        if self._points.ndim != 2:
            raise DimensionMismatchError("points must be an (m, d) array")
        self._cell = float(cell)
        self._dim = self._points.shape[1]
        # Grid-side structures, built by the first query the scan does
        # not answer (_ensure_batch_structures).
        self._key_lo: Optional[np.ndarray] = None
        self._key_span: Optional[np.ndarray] = None
        self._strides: Optional[np.ndarray] = None
        self._sorted_codes: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self._dim

    @property
    def cell(self) -> float:
        """Side of the grid cells."""
        return self._cell

    @property
    def points(self) -> np.ndarray:
        """The indexed ``(m, d)`` point array (do not mutate).

        Exposed so callers holding an index built for one snapshot can
        verify it matches another use site (:class:`Transition` validates
        prebuilt indexes against its own flagged positions this way).
        """
        return self._points

    def __len__(self) -> int:
        return self._points.shape[0]

    def query(self, center: Sequence[float], rho: float) -> List[int]:
        """Return indices of points within uniform distance ``rho``.

        The returned list is sorted for determinism.  A one-center
        :meth:`query_batch_flat`.
        """
        ctr = np.asarray(center, dtype=float)
        if ctr.shape != (self._dim,):
            raise DimensionMismatchError(
                f"center shape {ctr.shape} incompatible with dim {self._dim}"
            )
        return self.query_batch_flat(ctr[None, :], rho)[1].tolist()

    @property
    def _linearizable(self) -> bool:
        """Whether the occupied key box linearizes into int64 codes
        (builds the grid-side structures on first read)."""
        self._ensure_batch_structures()
        return self._strides is not None

    def _ensure_batch_structures(self) -> None:
        """Build the sorted-cell-code arrays backing grid-side queries."""
        if self._key_lo is not None:
            return
        keys = np.floor(self._points / self._cell).astype(np.int64)
        if keys.shape[0] == 0:
            self._key_lo = np.zeros(self._dim, dtype=np.int64)
            self._key_span = np.ones(self._dim, dtype=np.int64)
        else:
            self._key_lo = keys.min(axis=0)
            self._key_span = keys.max(axis=0) - self._key_lo + 1
        # Row-major strides over the occupied key box: code is a bijection
        # from in-box cell keys to [0, prod(span)).  Degenerate cells (r
        # near 0 in high dimension) can make that range overflow int64;
        # queries then fall back to the direct distance scan.
        self._strides = _row_major_strides(self._key_span)
        if self._strides is None:
            return
        codes = (keys - self._key_lo) @ self._strides
        order = np.argsort(codes, kind="stable")
        self._order = order
        self._sorted_codes = codes[order]

    def query_batch(
        self, centers: np.ndarray, rho: float, *, atol: float = CONSISTENCY_ATOL
    ) -> List[List[int]]:
        """Answer many range queries in one vectorized pass.

        Equivalent to ``[self.query(c, rho) for c in centers]`` but executed
        as a handful of numpy operations: candidate cells of *all* queries
        are linearized to sorted cell codes, located with ``searchsorted``,
        gathered with fancy indexing, and distance-filtered in one shot.
        Each result list is sorted, matching :meth:`query`.
        """
        query_of, rows = self.query_batch_flat(centers, rho, atol=atol)
        q = np.asarray(centers).shape[0]
        return split_flat(query_of, rows.tolist(), q, list)

    def query_batch_flat(
        self, centers: np.ndarray, rho: float, *, atol: float = CONSISTENCY_ATOL
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized batch range query, flat-array form.

        Returns ``(query_of, rows)``: parallel int64 arrays such that point
        ``rows[i]`` lies within ``rho`` of ``centers[query_of[i]]``, sorted
        by ``(query_of, rows)``.  This is the zero-copy interface the batch
        neighbourhood computation consumes; :meth:`query_batch` is a
        per-query split of it.
        """
        ctrs = np.asarray(centers, dtype=float)
        if ctrs.ndim != 2 or ctrs.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"centers shape {ctrs.shape} incompatible with dim {self._dim}"
            )
        q = ctrs.shape[0]
        m = len(self)
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        if q == 0 or m == 0:
            return empty
        reach = rho + atol
        if q * m <= _SCAN_CROSSOVER or not self._linearizable:
            # Direct Chebyshev scan, folded one column at a time into
            # reused buffers and chunked over queries.  Flat indices into
            # the (q, m) hit matrix come out sorted, so one divmod yields
            # (query_of, rows) in order.
            columns = self._points.T
            chunk = max(1, _CHUNK_ELEMENTS // m)
            parts: List[np.ndarray] = []
            for start in range(0, q, chunk):
                block = ctrs[start : start + chunk]
                diff = np.empty((block.shape[0], m))
                near = np.empty(diff.shape, dtype=bool)
                within = np.ones(diff.shape, dtype=bool)
                for column, coords in zip(columns, block.T):
                    np.subtract(column, coords[:, None], out=diff)
                    np.less_equal(np.abs(diff, out=diff), reach, out=near)
                    within &= near
                parts.append(np.flatnonzero(within) + start * m)
            flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
            return np.divmod(flat, m)
        assert (
            self._sorted_codes is not None
            and self._order is not None
            and self._key_lo is not None
            and self._key_span is not None
            and self._strides is not None
        )
        # Candidate cells span the filter's full reach, ``atol`` sliver
        # included, plus a guard for the rounding of ``ctrs +- reach``:
        # a hit can sit across a cell boundary from ``ctrs +- rho``.
        span = reach + _ROUNDING_GUARD
        lo = np.floor((ctrs - span) / self._cell).astype(np.int64)
        hi = np.floor((ctrs + span) / self._cell).astype(np.int64)
        counts = hi - lo + 1                                   # (q, d)
        width = counts.max(axis=0)                             # (d,)
        # Offsets enumerate the largest query box; narrower queries and
        # cells outside the occupied key range are masked out below.
        offs = np.stack(
            np.meshgrid(*[np.arange(w) for w in width], indexing="ij"),
            axis=-1,
        ).reshape(-1, self._dim)                               # (c, d)
        cells = lo[:, None, :] + offs[None, :, :]              # (q, c, d)
        shifted = cells - self._key_lo
        valid = np.all(
            (offs[None, :, :] < counts[:, None, :])
            & (shifted >= 0)
            & (shifted < self._key_span),
            axis=2,
        )                                                      # (q, c)
        codes = np.where(valid, shifted @ self._strides, 0).ravel()
        left = np.searchsorted(self._sorted_codes, codes, side="left")
        right = np.searchsorted(self._sorted_codes, codes, side="right")
        lens = np.where(valid.ravel(), right - left, 0)
        cum = np.concatenate(([0], np.cumsum(lens)))
        total = int(cum[-1])
        if total == 0:
            return empty
        # Expand each [left, right) slice into explicit row positions.
        pos = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], lens)
        rows = self._order[np.repeat(left, lens) + pos]
        per_query = lens.reshape(q, -1).sum(axis=1)
        query_of = np.repeat(np.arange(q, dtype=np.int64), per_query)
        keep = np.all(
            np.abs(self._points[rows] - ctrs[query_of]) <= reach, axis=1
        )
        rows = rows[keep]
        query_of = query_of[keep]
        order = np.lexsort((rows, query_of))
        return query_of[order], rows[order]

    def query_pairs_within(self, rho: float) -> List[Tuple[int, int]]:
        """Return all index pairs ``(i, j), i < j`` within distance ``rho``.

        Useful for building neighbourhood graphs in analysis code and tests.
        """
        query_of, rows = self.query_batch_flat(self._points, rho)
        keep = rows > query_of
        return list(zip(query_of[keep].tolist(), rows[keep].tolist()))
