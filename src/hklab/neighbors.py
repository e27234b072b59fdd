"""Fixed-radius neighbor queries: brute-force scan and uniform grid.

The grid buckets agents into cells of side exactly epsilon (integer
cell = floor(coordinate / epsilon)), so any neighbor of an agent lies
in the 3^d surrounding cells.  Both modes take distances from the one
expression model.pairwise_sq_dists, so they return bit-equal neighbor
sets by construction.

Neighbor sums are one BLAS matmul of the 0/1 adjacency with the
candidate rows: brute over row blocks against all agents, grid over
each cell's agents against its candidates in cell order.  BLAS picks
its own addition order (gemv and gemm differ), so these sums agree
with the lockstep kernel's ascending-order sums (model.runs_last_sums)
bit for bit only on dyadic states, where every addition is exact.
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


def _matmul_sums(d2, x, epsilon, out, deg):
    """Neighbor sums (p, d) into out and counts (p,) into deg.

    d2 (p, q) holds the distances from p agents to the q rows of x
    (q, d); the sums are the matmul of the 0/1 adjacency with x.
    """
    adj = np.less_equal(d2, epsilon * epsilon, out=d2)
    np.matmul(adj, x, out=out)
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
        self._stencil = np.array(list(itertools.product((-1, 0, 1), repeat=self.d)))
        cells = np.floor(self.states / self.epsilon).astype(np.int64)
        self._cells = cells
        # lexsort is stable, so each cell's agents stay in ascending order
        # and every occupied cell is one slice of the sorted agents.
        self._order = np.lexsort(cells.T[::-1])
        sorted_cells = cells[self._order]
        first = np.ones(self.n, dtype=bool)
        first[1:] = np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1)
        starts = np.flatnonzero(first)
        self._occupied = sorted_cells[starts]
        spans = zip(starts.tolist(), np.append(starts[1:], self.n).tolist())
        self._spans = dict(zip(map(tuple, self._occupied.tolist()), spans))

    def _check_fresh(self) -> None:
        if __debug__ and hash(self.states.tobytes()) != self._fingerprint:
            raise RuntimeError("stale NeighborIndex: states changed since build")

    def _near(self, cell: np.ndarray) -> list:
        """Sorted-order spans of the occupied cells around cell, in stencil order."""
        keys = map(tuple, (self._stencil + cell).tolist())
        return [span for span in map(self._spans.get, keys) if span is not None]

    def query(self, i: int) -> np.ndarray:
        """Ascending indices j with ||x_j - x_i|| <= epsilon (includes i)."""
        self._check_fresh()
        eps2 = self.epsilon * self.epsilon
        row = self.states[i : i + 1]
        if self.mode == "brute":
            return np.flatnonzero(pairwise_sq_dists(row, self.states)[0] <= eps2)
        cand = np.concatenate([self._order[a:b] for a, b in self._near(self._cells[i])])
        return np.sort(cand[pairwise_sq_dists(row, self.states[cand])[0] <= eps2])

    def neighbor_sums(self, epsilon: float | None = None):
        """Per-agent neighbor row sums and neighbor counts.

        Returns (sums (n, d), deg (n,)).  Both modes sum by BLAS
        matmul, brute over all agents and grid over cell candidates, so
        sums may differ in final ulps between modes; membership never
        does.
        """
        self._check_fresh()
        if epsilon is not None and epsilon != self.epsilon:
            raise ValueError("index was built for a different epsilon")
        x, eps = self.states, self.epsilon
        sums = np.empty((self.n, self.d), dtype=np.float64)
        deg = np.empty(self.n, dtype=np.float64)
        if self.mode == "brute":
            block = max(1, _BRUTE_BLOCK_ELEMS // max(1, self.n))
            for a in range(0, self.n, block):
                b = min(self.n, a + block)
                _matmul_sums(pairwise_sq_dists(x[a:b], x), x, eps, sums[a:b], deg[a:b])
            return sums, deg
        # Rows are filled in cell order, then put back in agent order.
        xs = x[self._order]
        for cell, (a, b) in zip(self._occupied, self._spans.values()):
            cand = np.concatenate([xs[lo:hi] for lo, hi in self._near(cell)])
            _matmul_sums(pairwise_sq_dists(xs[a:b], cand), cand, eps, sums[a:b], deg[a:b])
        unsort = np.argsort(self._order)
        return sums[unsort], deg[unsort]
