"""Fixed-radius neighbor queries: brute-force scan and uniform grid.

The grid sorts the agents by cell (side exactly epsilon, cell =
floor(coordinate / epsilon)) and cuts each pencil, the agents sharing
all but the last cell coordinate, into blocks of at most _BLOCK agents.
A block's candidates, the agents of the 3^(d-1) pencils around its own
within one cell of it on the last axis, are contiguous slices found by
searching the cells as lexicographic byte keys, which cannot overflow.
Both modes take distances from model.pairwise_sq_dists, so they return
bit-equal neighbor sets, and sum by one BLAS matmul of the 0/1
adjacency with the candidate rows (grid: per block, in cell order).
BLAS picks its own addition order (gemv and gemm differ), so the sums
agree with the lockstep kernel's ascending-order sums
(model.runs_last_sums) bit for bit only on dyadic states.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import pairwise_sq_dists, sq_norm_last

MODES = ("brute", "grid", "auto")

# Row block for chunked all-pairs scans; bounds peak memory at ~O(block * n).
_BRUTE_BLOCK_ELEMS = 4_000_000

# Refuse explicit grid mode when the stencil itself is astronomically big.
_MAX_STENCIL = 1 << 20

# Cell-sorted agents per grid block (32-64 measured best at n = 10^4).
_BLOCK = 48


def _rows(cells: np.ndarray) -> np.ndarray:
    """Byte keys of int64 rows that order lexicographically (sign flipped, big-endian)."""
    return (cells ^ np.int64(-(2**63))).astype(">i8").view(f"S{8 * cells.shape[-1]}")[..., 0]


def _matmul_sums(x, y, epsilon, out, deg, bufs=None):
    """Neighbor sums (p, d) into out and counts (p,) into deg of x's p rows among
    y's q rows: 0/1 adjacency matmul y.  bufs (2, >= p q) can hold the distances."""
    d2, tmp = (None, None) if bufs is None else bufs[:, : len(x) * len(y)].reshape(2, len(x), -1)
    adj = pairwise_sq_dists(x, y, out=d2, tmp=tmp)
    np.less_equal(adj, epsilon * epsilon, out=adj)
    np.matmul(adj, y, out=out)
    adj.sum(axis=-1, out=deg)


def resolve_mode(mode: str, n: int, d: int) -> str:
    """auto picks the grid only when the 3^d stencil is smaller than n."""
    if mode not in MODES:
        raise ValueError(f"unknown index mode: {mode!r}")
    if mode != "auto":
        return mode
    return "brute" if 3**d >= n else "grid"


def max_sq_dist(states: np.ndarray) -> float:
    """Largest pairwise squared distance of (n, d) states, exactly.

    Row i is bounded by ub_i, the squared norm of its per-coordinate
    distance to the farther end of the states' bounding box.  Each
    coordinate term of ub_i is at least the rounded term of every pair
    (i, j) and the terms are added in the same order, so ub_i is at
    least every computed distance of row i.  After one full row (the
    largest ub), only rows whose bound exceeds the best so far are
    scanned, in row blocks; the result equals the full scan's maximum.
    """
    n = states.shape[0]
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    ub = sq_norm_last(np.maximum(states - lo, hi - states))
    top = int(np.argmax(ub))
    best = float(pairwise_sq_dists(states[top : top + 1], states).max())
    rows = np.flatnonzero(ub > best)
    block = max(1, _BRUTE_BLOCK_ELEMS // max(1, n))
    for a in range(0, rows.size, block):
        best = max(best, float(pairwise_sq_dists(states[rows[a : a + block]], states).max()))
    return best


class NeighborIndex:
    """Neighbor queries over one fixed snapshot of states.

    The index is valid only for the states it was built from; after a
    dynamics step it must be rebuilt.  In debug runs (python -O not
    set) queries verify a fingerprint of the states buffer to catch
    stale use.
    """

    def __init__(self, states: np.ndarray, epsilon: float, mode: str = "auto"):
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2:
            raise ValueError(f"states must be (n, d), got shape {states.shape}")
        if not np.isfinite(epsilon) or epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.states = states
        self.epsilon = float(epsilon)
        self.n, self.d = states.shape
        self.mode = resolve_mode(mode, self.n, self.d)
        self._fingerprint = hash(states.tobytes()) if __debug__ else None
        if self.mode == "grid":
            if 3**self.d > _MAX_STENCIL:
                raise ValueError(f"grid stencil 3^{self.d} is unusably large; use brute")
            self._build_grid()

    def _build_grid(self) -> None:
        cells = np.floor(self.states / self.epsilon)
        if not np.all(np.abs(cells) < 2.0**62):
            raise ValueError("grid cells outside +-2^62 (states / epsilon too large); use brute")
        # lexsort is stable, so each cell's agents stay in ascending order.
        self._order = np.lexsort(cells.T[::-1])
        self._rank = np.argsort(self._order)
        cells, at = cells[self._order].astype(np.int64), np.arange(self.n)
        # Blocks start at each pencil's first agent and every _BLOCK after it.
        new = np.r_[True, np.any(cells[1:, :-1] != cells[:-1, :-1], axis=1)][: self.n]
        first = np.flatnonzero((at - np.maximum.accumulate(np.where(new, at, 0))) % _BLOCK == 0)
        stop = np.append(first, self.n)[1:]
        # Per pencil offset o, candidates run from cell lo + (o, -1) to cell hi + (o, 1).
        near = list(itertools.product((-1, 0, 1), repeat=self.d - 1))
        keys, lo, hi = _rows(cells), cells[first][:, None], cells[stop - 1][:, None]
        starts = np.searchsorted(keys, _rows(lo + [(*o, -1) for o in near])).ravel()
        stops = np.searchsorted(keys, _rows(hi + [(*o, 1) for o in near]), "right").ravel()
        ends = np.cumsum(stops - starts)
        self._cand = np.arange((stops - starts).sum()) - np.repeat(ends - stops, stops - starts)
        self._first, bounds = first, np.append(0, ends[len(near) - 1 :: len(near)])
        self._blocks = list(zip(*(v.tolist() for v in (first, stop, bounds[:-1], bounds[1:]))))

    def _check_fresh(self) -> None:
        if __debug__ and hash(self.states.tobytes()) != self._fingerprint:
            raise RuntimeError("stale NeighborIndex: states changed since build")

    def query(self, i: int) -> np.ndarray:
        """Ascending indices j with ||x_j - x_i|| <= epsilon (includes i)."""
        self._check_fresh()
        eps2 = self.epsilon * self.epsilon
        row = self.states[i : i + 1]
        if self.mode == "brute":
            return np.flatnonzero(pairwise_sq_dists(row, self.states)[0] <= eps2)
        _, _, lo, hi = self._blocks[np.searchsorted(self._first, self._rank[i], "right") - 1]
        cand = self._order[self._cand[lo:hi]]
        return np.sort(cand[pairwise_sq_dists(row, self.states[cand])[0] <= eps2])

    def neighbor_sums(self):
        """Per-agent neighbor row sums and neighbor counts.

        Returns (sums (n, d), deg (n,)).  Both modes sum by BLAS
        matmul, brute over all agents and grid over cell candidates, so
        sums may differ in final ulps between modes; membership never
        does.
        """
        self._check_fresh()
        x, eps = self.states, self.epsilon
        sums = np.empty((self.n, self.d), dtype=np.float64)
        deg = np.empty(self.n, dtype=np.float64)
        if self.mode == "brute":
            block = max(1, _BRUTE_BLOCK_ELEMS // max(1, self.n))
            for a in range(0, self.n, block):
                b = min(self.n, a + block)
                _matmul_sums(x[a:b], x, eps, sums[a:b], deg[a:b])
            return sums, deg
        # Planar (d, n) sorted coordinates; rows fill in cell order, then unsort.
        xt = np.take(x.T, self._order, axis=1)
        cand = xt[:, self._cand]
        bufs = np.empty((2, max([(b - a) * (hi - lo) for a, b, lo, hi in self._blocks], default=0)))
        for a, b, lo, hi in self._blocks:
            _matmul_sums(xt[:, a:b].T, cand[:, lo:hi].T, eps, sums[a:b], deg[a:b], bufs)
        return sums[self._rank], deg[self._rank]
