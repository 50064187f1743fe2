"""Data model for partially observed functional samples on a common grid.

Curves live on one shared equidistant grid. Missingness is tracked by a
boolean mask (True = observed); the value matrix carries NaN at masked-out
cells so vectorized numpy code can rely on either representation. The mask
is authoritative, and summarize_observation alone reads each curve's run.
Under the interval pattern the part every curve observes, [t_1, d_min] in
the paper, is held as its count of leading grid columns.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """n curves on a shared grid with a per-cell observation mask.

    values[i, j] is NaN exactly where mask[i, j] is False. Every curve must
    be observed at one grid point at least.
    """

    grid: Grid
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2 or values.shape[1] != self.grid.p:
            raise ArgumentError("values must be an n x p matrix matching the grid")
        if mask.shape != values.shape:
            raise ArgumentError("mask shape must match values shape")
        if not mask.any(axis=1).all():
            raise ArgumentError("every curve needs at least one observed point")
        if (np.isnan(values) & mask).any():
            raise ArgumentError("observed cells must not be NaN")
        # Keep the NaN sentinel in sync with the authoritative mask.
        values = np.where(mask, values, np.nan)
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "FunctionalSample":
        """Build a sample from a value matrix using NaN as the missing marker."""
        values = np.asarray(values, dtype=float)
        return cls(grid, values, ~np.isnan(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ObservationSummary:
    """Per curve: first and last observed grid index, point count, endpoint.

    A curve's observed run is contiguous exactly when last - first + 1 == counts.
    Under the interval pattern the paper's d_min is d_i.min().
    """

    first: np.ndarray
    last: np.ndarray
    counts: np.ndarray
    d_i: np.ndarray
    interval_pattern: bool


def summarize_observation(sample: FunctionalSample) -> ObservationSummary:
    """Per-curve observed runs and endpoints, and the interval-pattern flag.

    A sample has the interval pattern when every row mask looks like
    {1,...,1,0,...,0} starting at the first grid point. d_i is the last
    observed grid point of curve i.
    """
    mask = sample.mask
    counts = mask.sum(axis=1)
    first = np.argmax(mask, axis=1)
    last = mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1)
    # Prefix pattern: observed run starts at column 0 and is contiguous.
    interval = bool(np.all(first == 0) and np.all(last + 1 == counts))
    return ObservationSummary(first, last, counts, sample.grid.points[last], interval)


def fully_observed_prefix(summary: ObservationSummary) -> int:
    """Number of leading grid columns, [t_1, d_min], that every curve observes.

    Needs the interval pattern and d_min > t_1, i.e. at least 2 columns.
    """
    prefix = int(summary.last.min()) + 1
    if not summary.interval_pattern or prefix < 2:
        raise ArgumentError(
            "no fully observed subdomain [t_1, d_min]: needs the interval "
            "pattern and d_min > t_1"
        )
    return prefix


def prefix_values(sample: FunctionalSample, prefix: int) -> np.ndarray:
    """Values on the first `prefix` grid columns, which every curve must observe.

    In Fortran order: numpy sums column reductions and Gram products of the
    C-strided slice in another order, moving select_J's and fpca_scores' last bits.
    """
    if prefix < 0:
        raise ArgumentError(f"prefix must be >= 0, got {prefix}")
    if not sample.mask[:, :prefix].all():
        raise ArgumentError("every curve must be fully observed on the subdomain")
    return np.asfortranarray(sample.values[:, :prefix])
