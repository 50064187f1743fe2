"""Data model for partially observed functional samples on a common grid.

Curves live on one shared equidistant grid, and NaN in the value matrix is
the one marker of a missing cell. A sample derives its boolean mask (True =
observed) and each curve's observed run from the NaNs once, at construction.
fully_observed_block decides which grid columns every curve observes; under
the interval pattern they are the paper's [t_1, d_min].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

#: Relative tolerance for the equidistance check of grid spacings.
EQUIDISTANCE_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Equidistant evaluation grid t_1 < ... < t_p."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise ArgumentError("grid needs at least 3 points")
        if not np.isfinite(pts).all():
            raise ArgumentError("grid points must be finite")
        diffs = np.diff(pts)
        if np.any(diffs <= 0):
            raise ArgumentError("grid points must be strictly increasing")
        h = (pts[-1] - pts[0]) / (pts.size - 1)
        # Relative to h, plus the points' own rounding: alike at any unit or offset.
        tol = EQUIDISTANCE_RTOL * h + 4 * np.finfo(float).eps * np.abs(pts[[0, -1]]).max()
        if np.any(np.abs(diffs - h) > tol):
            raise ArgumentError("grid points must be equidistant")
        object.__setattr__(self, "points", pts)

    @property
    def p(self) -> int:
        return self.points.size

    @property
    def h(self) -> float:
        return (self.points[-1] - self.points[0]) / (self.points.size - 1)

    def index_of(self, t: float) -> int:
        """Index of the grid point nearest to t (anchor snapping).

        t must be finite and lie within h/2 of [t_1, t_p].
        """
        pts = self.points
        half = 0.5 * self.h
        if not (np.isfinite(t) and pts[0] - half <= t <= pts[-1] + half):
            raise ArgumentError(f"{t} is not on the grid [{pts[0]}, {pts[-1]}]")
        return int(np.argmin(np.abs(pts - t)))


def check_grid_size(p: int) -> None:
    """Reject a grid of fewer than 3 points."""
    if p < 3:
        raise ArgumentError(f"p must be >= 3, got {p}")


def check_seed(seed) -> None:
    """Reject a negative seed, or a sequence of seeds holding one."""
    if np.min(seed) < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")


def make_grid(p: int, a: float, b: float) -> Grid:
    """Equidistant grid with p points from a to b."""
    check_grid_size(p)
    if not a < b:
        raise ArgumentError(f"need a < b, got a={a}, b={b}")
    return Grid(np.linspace(a, b, p))


@dataclass(frozen=True)
class FunctionalSample:
    """n curves on a shared grid, NaN marking each missing cell.

    The constructor copies `values` and derives, read-only, the observation
    mask and each curve's observed run: its first and last observed grid
    index and its count of observed points. The run is contiguous exactly
    when last - first + 1 == counts. Every curve must be observed at one
    grid point at least.
    """

    grid: Grid
    values: np.ndarray
    mask: np.ndarray = field(init=False)
    first: np.ndarray = field(init=False)
    last: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.grid.p:
            raise ArgumentError("values must be an n x p matrix matching the grid")
        # In place: one more n x p temporary here measurably slowed whole
        # test-selection runs (allocation and page-fault effects).
        mask = np.isnan(values)
        np.logical_not(mask, out=mask)
        counts = mask.sum(axis=1)
        reject_curves(counts == 0, "every curve needs at least one observed point")
        first = np.argmax(mask, axis=1)
        last = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
        derived = dict(values=values, mask=mask, first=first, last=last, counts=counts)
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def reject_curves(bad: np.ndarray, message: str) -> None:
    """Raise `message` naming the first flagged curve by its 1-based row."""
    if bad.any():
        curve = int(np.argmax(bad))
        raise ArgumentError(f"{message} (curve {curve + 1})", curve=curve)


def fully_observed_block(sample: FunctionalSample) -> tuple[int, int]:
    """Grid indices [l, u] = [first.max(), last.min()] that every curve observes.

    Every curve's observed run must be contiguous, and the block must hold
    one grid point at least (l == u is a valid block).
    """
    first, last = sample.first, sample.last
    reject_curves(
        last - first + 1 != sample.counts, "observed set of each curve must be contiguous"
    )
    l, u = int(first.max()), int(last.min())
    if l > u:
        raise ArgumentError("no grid point is observed by every curve")
    return l, u


def subdomain(sample: FunctionalSample) -> tuple[slice, np.ndarray]:
    """Columns of the fully observed subdomain, and each curve's varying endpoint.

    The block [l, u] of fully_observed_block must hold 2 columns at least
    and touch t_1 or t_p. At l == 0 (the paper's [t_1, d_min]) the endpoint
    is each curve's last observed grid point, d_i; else its first.
    """
    l, u = fully_observed_block(sample)
    if u == l or (0 < l and u < sample.grid.p - 1):
        raise ArgumentError(
            "no fully observed subdomain: every curve must observe t_1, or every "
            "curve t_p, and 2 grid points in common"
        )
    return slice(l, u + 1), sample.grid.points[sample.first if l else sample.last]


def subdomain_values(sample: FunctionalSample) -> np.ndarray:
    """Values on the columns of subdomain(sample).

    In Fortran order: numpy sums column reductions and Gram products of the
    C-strided slice in another order, moving select_J's and fpca_scores' last bits.
    """
    return np.asfortranarray(sample.values[:, subdomain(sample)[0]])
