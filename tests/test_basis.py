import numpy as np
import pytest

from ftcfd import basis
from ftcfd.basis import (
    _RSS_ABS_FLOOR,
    _RSS_REL_FLOOR,
    eval_basis,
    select_J,
)
from ftcfd.core import FunctionalSample, Grid, fully_observed_block, make_grid, subdomain
from ftcfd.dgp import draw_sample
from ftcfd.errors import ArgumentError, NumericalError
from ftcfd.estimators import fpca_scores
from reference import interval_sample


def test_eval_basis_at_zero():
    row = eval_basis(3, (0.0, 1.0), [0.0])[0]
    assert row == pytest.approx([1.0, 0.0, np.sqrt(2.0)])


def test_eval_basis_at_quarter():
    row = eval_basis(3, (0.0, 1.0), [0.25])[0]
    assert row == pytest.approx([1.0, np.sqrt(2.0), 0.0], abs=1e-12)


def test_eval_basis_rescales_domain():
    # u = (t - lo)/(hi - lo); t = 1.25 on [1, 2] behaves like t = 0.25 on [0, 1]
    row = eval_basis(3, (1.0, 2.0), [1.25])[0]
    assert row == pytest.approx([1.0, np.sqrt(2.0), 0.0], abs=1e-12)


def test_eval_basis_numerical_orthonormality():
    g = make_grid(501, 0.0, 1.0)
    cols = eval_basis(5, (0.0, 1.0), g.points)
    for j in range(1, 5):
        assert abs(np.trapezoid(cols[:, j], dx=g.h)) < 1e-3
        assert abs(np.trapezoid(cols[:, j] ** 2, dx=g.h) - 1.0) < 1e-3


def test_eval_basis_gram_near_identity_at_j51():
    g = make_grid(501, 0.0, 1.0)
    cols = eval_basis(51, (0.0, 1.0), g.points)
    gram = g.h * cols.T @ cols
    assert np.abs(gram - np.eye(51)).max() < 1e-2


def test_eval_basis_validation():
    with pytest.raises(ArgumentError, match="J must be odd and >= 3, got 4"):
        eval_basis(4, (0.0, 1.0), [0.5])
    with pytest.raises(ArgumentError, match="J must be odd and >= 3, got 1"):
        eval_basis(1, (0.0, 1.0), [0.5])
    with pytest.raises(ArgumentError, match=r"lo < hi, got \(1.0, 1.0\)"):
        eval_basis(3, (1.0, 1.0), [1.0])
    # The checks run in the order J, domain, points.
    with pytest.raises(ArgumentError, match="J must be odd"):
        eval_basis(4, (1.0, 1.0), [5.0])
    with pytest.raises(ArgumentError, match="lo < hi"):
        eval_basis(3, (1.0, 1.0), [5.0])


def test_eval_basis_rejects_points_outside_domain():
    with pytest.raises(ArgumentError):
        eval_basis(3, (0.0, 1.0), [1.5])


@pytest.mark.parametrize("length", [1.0, 1e-13, 1e6])
def test_eval_basis_domain_check_is_relative_to_the_domain(length):
    inside = np.array([0.0, 0.5, 1.0, -1e-13, 1.0 + 1e-13])
    outside = [-0.5, -1e-11, 1.0 + 1e-11, 1.5]
    domain = (0.0, length)
    assert eval_basis(3, domain, inside * length).shape == (5, 3)
    for u in outside:
        with pytest.raises(ArgumentError, match="outside the basis domain"):
            eval_basis(3, domain, [u * length])


def test_select_j_fits_constant_curves():
    g = make_grid(51, 0.0, 1.0)
    s = FunctionalSample(g, np.full((4, 51), 2.5))
    J, coef = select_J(s, 5)
    expected = np.zeros(J)
    expected[0] = 2.5
    assert np.abs(coef - expected).max() < 1e-8


def test_select_j_reproduces_basis_element():
    g = make_grid(101, 0.0, 1.0)
    psi2 = eval_basis(3, (0.0, 1.0), g.points)[:, 1]
    s = FunctionalSample(g, psi2[None, :])
    coef = select_J(s, 3)[1]
    assert np.abs(coef[0] - [0.0, 1.0, 0.0]).max() < 1e-6


def _render(xi, sample):
    return xi @ eval_basis(5, (0.0, 1.0), sample.grid.points).T


def test_select_j_recovers_generator_coefficients():
    sample, _, xi = draw_sample("IndDis", n=20, p=201, seed=3)
    full = FunctionalSample(sample.grid, _render(xi, sample))
    coef = select_J(full, 11)[1]
    assert np.abs(coef - xi).max() < 1e-6


def test_select_j_residual_orthogonal_to_design():
    g = make_grid(101, 0.0, 1.0)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((5, 101))
    s = FunctionalSample(g, vals)
    J, coef = select_J(s, 7)
    design = eval_basis(J, (0.0, 1.0), g.points)
    resid = vals.T - design @ coef.T
    rel = np.abs(design.T @ resid).max() / max(np.abs(vals).max(), 1.0)
    assert rel < 1e-8


def test_select_j_recovers_generator_dimension():
    sample, _, xi = draw_sample("IndDis", n=50, p=201, seed=6)
    full = FunctionalSample(sample.grid, _render(xi, sample))
    for j_max in (5, 11, 31):
        assert select_J(full, j_max)[0] == 5


def test_select_j_constant_sample():
    g = make_grid(101, 0.0, 1.0)
    s = FunctionalSample(g, np.full((10, 101), 3.0))
    assert select_J(s, 21)[0] == 3


def test_select_j_on_observed_subdomain_monte_carlo():
    hits = 0
    for r in range(100):
        sample, _, _ = draw_sample("DepDis", n=150, p=501, seed=(800, r))
        hits += select_J(sample, 51)[0] == 5
    assert hits >= 95


def _cut_first_curve(sample, m):
    """The sample with curve 1 cut after grid point m, so [t_1, d_min] holds m points.

    The values on those m points keep their bits.
    """
    d = sample.grid.points[sample.last]
    d[0] = sample.grid.points[m - 1]
    return interval_sample(sample.grid, sample.values, d)


def test_select_j_invariant_to_curve_order():
    drawn, _, _ = draw_sample("IndCon", n=30, p=101, seed=5)
    sample = _cut_first_curve(drawn, 51)
    assert fully_observed_block(sample) == (0, 50)
    j1, c1 = select_J(sample, 21)
    perm = np.random.default_rng(0).permutation(sample.n)
    shuffled = FunctionalSample(sample.grid, sample.values[perm])
    j2, c2 = select_J(shuffled, 21)
    assert j2 == j1
    assert np.allclose(c2, c1[perm], rtol=1e-12, atol=0.0)


def test_select_j_validates_j_max():
    g = make_grid(11, 0.0, 1.0)
    s = FunctionalSample(g, np.ones((2, 11)))
    with pytest.raises(ArgumentError):
        select_J(s, 4)
    # d_min = t_2: the subdomain holds 2 points.
    short = interval_sample(g, np.ones((2, 11)), [g.points[1], 1.0])
    with pytest.raises(ArgumentError, match="too few for J >= 3"):
        select_J(short, 5)
    # Curve 2 misses t_1 and t_p: the block touches neither, so no subdomain.
    gapped = FunctionalSample(g, np.vstack([np.ones(11), np.r_[np.nan, np.ones(9), np.nan]]))
    for fit in (lambda: select_J(gapped, 5), lambda: fpca_scores(gapped)):
        with pytest.raises(ArgumentError, match="no fully observed subdomain"):
            fit()


@pytest.mark.parametrize("kind", ["DepDis", "DepCon", "IndDis", "IndCon"])
def test_prefix_results_do_not_depend_on_the_memory_order(kind):
    sample, _, _ = draw_sample(kind, n=150, p=501, seed=(811, 0))
    fortran = FunctionalSample(sample.grid, np.asfortranarray(sample.values))
    assert fortran.values.flags.f_contiguous and sample.values.flags.c_contiguous
    J, coef = select_J(sample, 51)
    J_f, coef_f = select_J(fortran, 51)
    assert J == J_f
    assert np.array_equal(coef, coef_f)
    for a, b in zip(fpca_scores(sample), fpca_scores(fortran)):
        assert np.array_equal(a, b)


def test_select_j_cold_and_warm_cache_agree():
    kinds = ("DepDis", "DepCon", "IndDis", "IndCon")
    # Interleaved, so entries of different prefixes fill the cache in turn.
    draws = [
        draw_sample(kind, n=n, p=501, seed=(813, rep))[0]
        for rep in range(2)
        for n in (60, 150)
        for kind in kinds
    ]
    cold = []
    for sample in draws:
        basis._factors.cache_clear()
        cold.append(select_J(sample, 51))
    basis._factors.cache_clear()
    for _ in range(2):
        for (J, coef), sample in zip(cold, draws):
            J_warm, coef_warm = select_J(sample, 51)
            assert J_warm == J
            assert np.array_equal(coef_warm, coef)
    info = basis._factors.cache_info()
    assert info.hits >= len(draws) and info.misses < len(draws)


def _cached_factors(sample, J_max):
    """The cache entry select_J reads for the sample, with its key's parts."""
    pts = sample.grid.points[subdomain(sample)[0]]
    m = pts.size
    domain = (float(sample.grid.points[0]), float(sample.grid.points[-1]))
    candidates = tuple(range(3, min(J_max, m) + 1, 2))
    return basis._factors(pts.tobytes(), domain, candidates), pts, domain, candidates


def test_grids_with_equal_p_keep_their_own_cache_entries():
    sample, _, _ = draw_sample("DepDis", n=60, p=101, seed=2)
    moved = FunctionalSample(Grid(sample.grid.points * 3.0 + 0.5), sample.values)
    # A suffix block as long as the sample's prefix block: the key is its points.
    mirrored = FunctionalSample(sample.grid, sample.values[:, ::-1])
    assert subdomain(mirrored)[0] != subdomain(sample)[0]
    basis._factors.cache_clear()
    for s in (sample, moved, mirrored):
        select_J(s, 21)
    assert basis._factors.cache_info().currsize == 3
    for s in (sample, moved, mirrored):
        (q, r, kept), pts, domain, candidates = _cached_factors(s, 21)
        q_fresh, r_fresh = np.linalg.qr(eval_basis(candidates[-1], domain, pts))
        assert np.array_equal(q, q_fresh) and np.array_equal(r, r_fresh)
        assert kept == candidates
    assert basis._factors.cache_info().currsize == 3


def test_cached_factors_are_read_only_and_bounded():
    sample, _, _ = draw_sample("IndDis", n=60, p=101, seed=2)
    (q, r, _), *_ = _cached_factors(sample, 21)
    for a in (q, r):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    assert basis._factors.cache_info().maxsize is not None


def test_select_j_failures_raise_on_every_call():
    g = make_grid(11, 0.0, 1.0)
    short = interval_sample(g, np.ones((2, 11)), [g.points[1], 1.0])
    # On three points 0, 1/2, 1 the sine column vanishes to rounding.
    flat = FunctionalSample(make_grid(3, 0.0, 1.0), np.ones((2, 3)))
    basis._factors.cache_clear()
    for _ in range(2):
        with pytest.raises(ArgumentError, match="too few for J >= 3"):
            select_J(short, 5)
        with pytest.raises(NumericalError, match="rank-deficient basis design"):
            select_J(flat, 3)
    assert basis._factors.cache_info().currsize == 0


def _select_j_reference(sample, J_max, basis_domain):
    """select_J as one lstsq solve per candidate size, stopping at rank loss.

    Returns the selected J and the lstsq coefficients at that J.
    """
    l, u = fully_observed_block(sample)
    idx = np.arange(l, u + 1)
    m = idx.size
    candidates = [J for J in range(3, J_max + 1, 2) if J <= m]
    pts = sample.grid.points[idx]
    design_full = eval_basis(candidates[-1], basis_domain, pts)
    y = sample.values[:, idx].T
    floor = np.maximum(m * (_RSS_REL_FLOOR**2) * np.mean(y**2, axis=0), _RSS_ABS_FLOOR)
    bic_rows, kept, coefs = [], [], []
    for J in candidates:
        design = design_full[:, :J]
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < J:
            break
        rss = np.maximum(np.sum((y - design @ coef) ** 2, axis=0), floor)
        bic_rows.append(m * np.log(rss / m) + J * np.log(m))
        kept.append(J)
        coefs.append(coef.T)
    best = np.array([kept[k] for k in np.argmin(np.array(bic_rows), axis=0)])
    lower_median = int(np.sort(best)[(sample.n - 1) // 2])
    if lower_median % 2 == 0:
        lower_median -= 1
    J = max(lower_median, 3)
    return J, coefs[kept.index(J)]


def _assert_matches_reference(sample, J_max):
    J, coef = select_J(sample, J_max)
    domain = (float(sample.grid.points[0]), float(sample.grid.points[-1]))
    J_ref, coef_ref = _select_j_reference(sample, J_max, domain)
    assert J == J_ref
    assert np.abs(coef - coef_ref).max() <= 1e-10 * np.abs(coef_ref).max()


@pytest.mark.parametrize("kind", ["DepDis", "DepCon", "IndDis", "IndCon"])
@pytest.mark.parametrize("n", [50, 150])
def test_select_j_matches_lstsq_sweep_on_dgp_draws(kind, n):
    for rep in range(3):
        sample, _, _ = draw_sample(kind, n=n, p=501, seed=(810, rep))
        _assert_matches_reference(sample, 51)


# Short subdomains where the design prefixes lose numerical rank part-way
# through the sweep, so the rank rule decides which candidates compete.
@pytest.mark.parametrize(
    "p, hi, J_max, noise",
    [(201, 0.1, 51, 1e-2), (101, 0.2, 51, 1.0), (501, 0.03, 31, 1e-2)],
)
def test_select_j_matches_lstsq_sweep_where_rank_breaks(p, hi, J_max, noise):
    g = make_grid(p, 0.0, 1.0)
    rng = np.random.default_rng(0)
    curves = rng.standard_normal((40, 7)) @ eval_basis(7, (0, 1), g.points).T
    full = FunctionalSample(g, curves + noise * rng.standard_normal((40, p)))
    _assert_matches_reference(_cut_first_curve(full, round(hi * (p - 1)) + 1), J_max)
