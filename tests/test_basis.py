import numpy as np
import pytest

from ftcfd.basis import (
    _RSS_ABS_FLOOR,
    _RSS_REL_FLOOR,
    BasisSpec,
    _subdomain_indices,
    eval_basis,
    project,
    select_J,
)
from ftcfd.core import FunctionalSample, make_grid, summarize_observation
from ftcfd.dgp import DgpConfig, draw_sample
from ftcfd.errors import ArgumentError, NumericalError


def test_eval_basis_at_zero():
    row = eval_basis(BasisSpec(3, (0.0, 1.0)), [0.0])[0]
    assert row == pytest.approx([1.0, 0.0, np.sqrt(2.0)])


def test_eval_basis_at_quarter():
    row = eval_basis(BasisSpec(3, (0.0, 1.0)), [0.25])[0]
    assert row == pytest.approx([1.0, np.sqrt(2.0), 0.0], abs=1e-12)


def test_eval_basis_rescales_domain():
    # u = (t - lo)/(hi - lo); t = 1.25 on [1, 2] behaves like t = 0.25 on [0, 1]
    row = eval_basis(BasisSpec(3, (1.0, 2.0)), [1.25])[0]
    assert row == pytest.approx([1.0, np.sqrt(2.0), 0.0], abs=1e-12)


def test_eval_basis_numerical_orthonormality():
    g = make_grid(501, 0.0, 1.0)
    cols = eval_basis(BasisSpec(5, (0.0, 1.0)), g.points)
    for j in range(1, 5):
        assert abs(np.trapezoid(cols[:, j], dx=g.h)) < 1e-3
        assert abs(np.trapezoid(cols[:, j] ** 2, dx=g.h) - 1.0) < 1e-3


def test_eval_basis_gram_near_identity_at_j51():
    g = make_grid(501, 0.0, 1.0)
    cols = eval_basis(BasisSpec(51, (0.0, 1.0)), g.points)
    gram = g.h * cols.T @ cols
    assert np.abs(gram - np.eye(51)).max() < 1e-2


def test_basis_spec_validation():
    with pytest.raises(ArgumentError):
        BasisSpec(4, (0.0, 1.0))
    with pytest.raises(ArgumentError):
        BasisSpec(1, (0.0, 1.0))
    with pytest.raises(ArgumentError):
        BasisSpec(3, (1.0, 1.0))


def test_eval_basis_rejects_points_outside_domain():
    with pytest.raises(ArgumentError):
        eval_basis(BasisSpec(3, (0.0, 1.0)), [1.5])


def test_project_constant_curves():
    g = make_grid(51, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.full((4, 51), 2.5))
    proj = project(s, BasisSpec(5, (0.0, 1.0)), (0.0, 1.0))
    expected = np.zeros(5)
    expected[0] = 2.5
    assert np.abs(proj.coefficients - expected).max() < 1e-8


def test_project_reproduces_basis_element():
    g = make_grid(101, 0.0, 1.0)
    psi2 = eval_basis(BasisSpec(3, (0.0, 1.0)), g.points)[:, 1]
    s = FunctionalSample.from_values(g, psi2[None, :])
    proj = project(s, BasisSpec(3, (0.0, 1.0)), (0.0, 1.0))
    assert np.abs(proj.coefficients[0] - [0.0, 1.0, 0.0]).max() < 1e-6


def _render(xi, sample):
    return xi @ eval_basis(BasisSpec(5, (0.0, 1.0)), sample.grid.points).T


def test_project_recovers_generator_coefficients():
    sample, _, xi = draw_sample(DgpConfig("IndDis", n=20, p=201, seed=3))
    full = FunctionalSample.from_values(sample.grid, _render(xi, sample))
    proj = project(full, BasisSpec(5, (0.0, 1.0)), (0.0, 1.0))
    assert np.abs(proj.coefficients - xi).max() < 1e-6


def test_project_is_linear_in_values():
    g = make_grid(81, 0.0, 1.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 81))
    b = rng.standard_normal((3, 81))
    spec, dom = BasisSpec(5, (0.0, 1.0)), (0.0, 1.0)
    ca = project(FunctionalSample.from_values(g, a), spec, dom).coefficients
    cb = project(FunctionalSample.from_values(g, b), spec, dom).coefficients
    cab = project(FunctionalSample.from_values(g, 2 * a + b), spec, dom).coefficients
    assert np.abs(cab - (2 * ca + cb)).max() < 1e-8


def test_project_residual_orthogonal_to_design():
    g = make_grid(101, 0.0, 1.0)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((5, 101))
    s = FunctionalSample.from_values(g, vals)
    spec = BasisSpec(7, (0.0, 1.0))
    proj = project(s, spec, (0.0, 1.0))
    design = eval_basis(spec, g.points)
    resid = vals.T - design @ proj.coefficients.T
    rel = np.abs(design.T @ resid).max() / max(np.abs(vals).max(), 1.0)
    assert rel < 1e-8


def test_project_requires_full_observation_on_subdomain():
    sample, _, _ = draw_sample(DgpConfig("DepDis", n=10, p=101, seed=0))
    with pytest.raises(ArgumentError):
        project(sample, BasisSpec(5, (0.0, 1.0)), (0.0, 1.0))


def test_project_rejects_more_coefficients_than_points():
    g = make_grid(5, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.random.default_rng(0).standard_normal((2, 5)))
    with pytest.raises(ArgumentError):
        project(s, BasisSpec(7, (0.0, 1.0)), (0.0, 1.0))


def test_select_j_recovers_generator_dimension():
    sample, _, xi = draw_sample(DgpConfig("IndDis", n=50, p=201, seed=6))
    full = FunctionalSample.from_values(sample.grid, _render(xi, sample))
    for j_max in (5, 11, 31):
        assert select_J(full, (0.0, 1.0), j_max) == 5


def test_select_j_constant_sample():
    g = make_grid(101, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.full((10, 101), 3.0))
    assert select_J(s, (0.0, 1.0), 21) == 3


def test_select_j_on_observed_subdomain_monte_carlo():
    hits = 0
    for r in range(100):
        sample, _, _ = draw_sample(DgpConfig("DepDis", n=150, p=501, seed=(800, r)))
        hits += select_J(sample, (0.0, 0.5), 51) == 5
    assert hits >= 95


def test_select_j_invariant_to_curve_order():
    sample, _, _ = draw_sample(DgpConfig("IndCon", n=30, p=101, seed=5))
    sub = (0.0, 0.5)
    j1 = select_J(sample, sub, 21)
    perm = np.random.default_rng(0).permutation(sample.n)
    shuffled = FunctionalSample(sample.grid, sample.values[perm], sample.mask[perm])
    assert select_J(shuffled, sub, 21) == j1


def test_select_j_validates_j_max():
    g = make_grid(11, 0.0, 1.0)
    s = FunctionalSample.from_values(g, np.ones((2, 11)))
    with pytest.raises(ArgumentError):
        select_J(s, (0.0, 1.0), 4)


def _select_j_reference(sample, subdomain, J_max, basis_domain):
    """select_J as one lstsq solve per candidate size, stopping at rank loss."""
    idx = _subdomain_indices(sample, subdomain)
    m = idx.size
    candidates = [J for J in range(3, J_max + 1, 2) if J <= m]
    pts = sample.grid.points[idx]
    design_full = eval_basis(BasisSpec(candidates[-1], basis_domain), pts)
    y = sample.values[:, idx].T
    floor = np.maximum(m * (_RSS_REL_FLOOR**2) * np.mean(y**2, axis=0), _RSS_ABS_FLOOR)
    bic_rows, kept = [], []
    for J in candidates:
        design = design_full[:, :J]
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < J:
            break
        rss = np.maximum(np.sum((y - design @ coef) ** 2, axis=0), floor)
        bic_rows.append(m * np.log(rss / m) + J * np.log(m))
        kept.append(J)
    best = np.array([kept[k] for k in np.argmin(np.array(bic_rows), axis=0)])
    lower_median = int(np.sort(best)[(sample.n - 1) // 2])
    if lower_median % 2 == 0:
        lower_median -= 1
    return max(lower_median, 3)


@pytest.mark.parametrize("kind", ["DepDis", "DepCon", "IndDis", "IndCon"])
@pytest.mark.parametrize("n", [50, 150])
def test_select_j_matches_lstsq_sweep_on_dgp_draws(kind, n):
    for rep in range(3):
        sample, _, _ = draw_sample(DgpConfig(kind, n=n, p=501, seed=(810, rep)))
        lo, hi = float(sample.grid.points[0]), float(sample.grid.points[-1])
        sub = (lo, summarize_observation(sample).d_min)
        assert select_J(sample, sub, 51, (lo, hi)) == _select_j_reference(
            sample, sub, 51, (lo, hi)
        )


# Short subdomains where the design prefixes lose numerical rank part-way
# through the sweep, so the rank rule decides which candidates compete.
@pytest.mark.parametrize(
    "p, hi, J_max, noise",
    [(201, 0.1, 51, 1e-2), (101, 0.2, 51, 1.0), (501, 0.03, 31, 1e-2)],
)
def test_select_j_matches_lstsq_sweep_where_rank_breaks(p, hi, J_max, noise):
    g = make_grid(p, 0.0, 1.0)
    rng = np.random.default_rng(0)
    curves = rng.standard_normal((40, 7)) @ eval_basis(BasisSpec(7, (0, 1)), g.points).T
    s = FunctionalSample.from_values(g, curves + noise * rng.standard_normal((40, p)))
    assert select_J(s, (0.0, hi), J_max, (0.0, 1.0)) == _select_j_reference(
        s, (0.0, hi), J_max, (0.0, 1.0)
    )
