"""Fixed-radius neighbor queries: brute-force scan and uniform grid.

Both modes cut the agents into blocks of at most _BLOCK, each with
candidates that include every neighbor of its agents.  The grid sorts
the agents by cell, floor(coordinate / side), its side a hair over
epsilon so that rounding never puts neighbors two cells apart, and cuts
each pencil, the agents sharing all but the last cell coordinate, into
blocks, whose candidates, the agents of the 3^(d-1) pencils around its
own within one cell of it on the last axis, are contiguous slices found
by searching the cells as lexicographic byte keys, which cannot
overflow.  Brute force cuts blocks in index order, with every agent as
candidate.  Sums run the lockstep kernel (model.runs_last_sums) with
blocks as its batch axis, so both modes return its neighbor sets and
sums bit for bit, on any states.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import pairwise_sq_dists, runs_last_sums, sq_norm_last

MODES = ("brute", "grid", "auto")

# Row block for chunked all-pairs scans; bounds peak memory at ~O(block * n).
_BRUTE_BLOCK_ELEMS = 4_000_000

# Refuse explicit grid mode when the stencil itself is astronomically big.
_MAX_STENCIL = 1 << 20

# Agents per block; a grid block then spans about one cell of its pencil.
_BLOCK = 8

# Distance entries per chunk of blocks: its buffers stay in cache.
_CHUNK_ELEMS = 1 << 15

# Row n, the padding of blocks and candidate lists: never within epsilon
# of an agent under the engine's 1e12 magnitude guard, and overflows nothing.
_PAD = 1e150


def _rows(cells: np.ndarray) -> np.ndarray:
    """Byte keys of int64 rows that order lexicographically (sign flipped, big-endian)."""
    return (cells ^ np.int64(-(2**63))).astype(">i8").view(f"S{8 * cells.shape[-1]}")[..., 0]


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
            order, first = self._build_grid()
        else:
            # Blocks in index order, each with every agent as a candidate.
            order = self._cand = np.arange(self.n)
            first = order[::_BLOCK]
            self._starts, self._counts = np.zeros_like(first), np.full_like(first, self.n)
        # Block b's agents, order[first[b]:first[b + 1]], as a row padded with n.
        pos, stop = first[:, None] + np.arange(_BLOCK), np.append(first, self.n)[1:, None]
        self._agents = np.where(pos < stop, order[np.minimum(pos, self.n - 1)], self.n)
        self._block = np.empty(self.n + 1, dtype=np.intp)
        self._block[self._agents] = np.arange(first.size)[:, None]

    def _build_grid(self):
        top = np.abs(self.states).max(initial=0.0) / self.epsilon
        if not top < 2.0**62:
            raise ValueError("grid cells outside +-2^62 (states / epsilon too large); use brute")
        # Neighbors by rounded distance are <= eps (1 + 3u) apart per axis and
        # x / side errs by <= u top: past this margin their cells differ by <= 1.
        side = self.epsilon + self.epsilon * max(2.0**-20, 2.0**-50 * top)
        cells = np.floor(self.states / side)
        # lexsort is stable, so each cell's agents stay in ascending order.
        order = np.lexsort(cells.T[::-1])
        cells, at = cells[order].astype(np.int64), np.arange(self.n)
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
        self._cand = order[np.arange(ends[-1]) - np.repeat(ends - stops, stops - starts)]
        bounds = np.append(0, ends[len(near) - 1 :: len(near)])
        self._starts, self._counts = bounds[:-1], np.diff(bounds)
        return order, first

    def _check_fresh(self) -> None:
        if __debug__ and hash(self.states.tobytes()) != self._fingerprint:
            raise RuntimeError("stale NeighborIndex: states changed since build")

    def query(self, i: int) -> np.ndarray:
        """Ascending indices j with ||x_j - x_i|| <= epsilon (includes i)."""
        self._check_fresh()
        b = self._block[i]
        cand = self._cand[self._starts[b] : self._starts[b] + self._counts[b]]
        d2 = pairwise_sq_dists(self.states[i : i + 1], self.states[cand])[0]
        return np.sort(cand[d2 <= self.epsilon * self.epsilon])

    def neighbor_sums(self):
        """Per-agent neighbor row sums (n, d) and neighbor counts (n,).

        A chunk of blocks with similar candidate counts, padded to the
        longest, is one runs_last_sums call over its (C, K, A) distances.
        Chunks hold two blocks or more where there are two: K A > 1.
        """
        self._check_fresh()
        n, blocks, k = self.n, *self._agents.shape
        xt = np.concatenate([self.states, np.full((1, self.d), _PAD)]).T.copy()
        sums, deg = np.empty((n + 1, self.d)), np.empty(n + 1)
        chunks = min(-(-k * int(self._counts.sum()) // _CHUNK_ELEMS), max(1, blocks // 2))
        for chunk in np.array_split(np.argsort(self._counts), chunks):
            agents, counts = self._agents[chunk], self._counts[chunk]
            cols = np.arange(counts.max())
            cand = self._cand.take(self._starts[chunk, None] + cols, mode="clip")
            # In ascending agent order, the order in which the lockstep kernel adds.
            cand = np.sort(np.where(cols < counts[:, None], cand, n), axis=1)
            xc, xa = np.take(xt, cand.T, axis=1), np.take(xt, agents, axis=1).transpose(1, 2, 0)
            d2, prod = np.empty((2, cols.size, k, chunk.size))
            pairwise_sq_dists(xa, xc.T, d2.T, prod.T)
            out, count = runs_last_sums(xc.transpose(1, 0, 2), d2, self.epsilon, prod=prod)
            sums[agents.T], deg[agents.T] = out.transpose(0, 2, 1), count
        return sums[:n], deg[:n]
