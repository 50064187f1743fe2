"""Data model for partially observed functional samples on a common grid.

Curves live on one shared equidistant grid. Missingness is tracked by a
boolean mask (True = observed); the value matrix carries NaN at masked-out
cells so vectorized numpy code can rely on either representation. The mask
is authoritative.
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
        diffs = np.diff(pts)
        if np.any(diffs <= 0):
            raise ArgumentError("grid points must be strictly increasing")
        h = (pts[-1] - pts[0]) / (pts.size - 1)
        if np.any(np.abs(diffs - h) > EQUIDISTANCE_RTOL * max(abs(h), 1.0)):
            raise ArgumentError("grid points must be equidistant")
        object.__setattr__(self, "points", pts)

    @property
    def p(self) -> int:
        return self.points.size

    @property
    def h(self) -> float:
        return (self.points[-1] - self.points[0]) / (self.points.size - 1)

    def index_of(self, t: float) -> int:
        """Index of the grid point nearest to t (anchor snapping)."""
        return int(np.argmin(np.abs(self.points - t)))


def make_grid(p: int, a: float, b: float) -> Grid:
    """Equidistant grid with p points from a to b."""
    if p < 3:
        raise ArgumentError(f"p must be >= 3, got {p}")
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
        if np.any(np.isnan(values[mask])):
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
    """Observation-pattern summary of a functional sample."""

    p_hat: np.ndarray
    d_i: np.ndarray
    d_min: float | None
    d_f_candidates: np.ndarray  # grid indices with p_hat == 1
    interval_pattern: bool


def summarize_observation(sample: FunctionalSample) -> ObservationSummary:
    """Observed fractions, per-curve endpoints, and the interval-pattern flag.

    A sample has the interval pattern when every row mask looks like
    {1,...,1,0,...,0} starting at the first grid point. d_i is the last
    observed grid point of curve i; d_min is min_i d_i for interval
    patterns and None otherwise.
    """
    mask = sample.mask
    n, p = mask.shape
    p_hat = mask.mean(axis=0)
    counts = mask.sum(axis=1)
    last_idx = p - 1 - np.argmax(mask[:, ::-1], axis=1)
    first_idx = np.argmax(mask, axis=1)
    # Prefix pattern: observed run starts at column 0 and is contiguous.
    contiguous = last_idx - first_idx + 1 == counts
    interval = bool(np.all(contiguous) and np.all(first_idx == 0))
    d_i = sample.grid.points[last_idx]
    d_min = float(d_i.min()) if interval else None
    d_f_candidates = np.flatnonzero(p_hat == 1.0)
    return ObservationSummary(
        p_hat=p_hat,
        d_i=d_i,
        d_min=d_min,
        d_f_candidates=d_f_candidates,
        interval_pattern=interval,
    )
