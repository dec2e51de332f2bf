import math

import numpy as np
import pytest

import fractalab as fl
from fractalab.errors import BudgetError, ValidationError
from fractalab.geometry import _gap_pmf
from fractalab.quadrature import simpson_doubling


def require_converged(result, rule, rel_tol):
    """The value of a converged (value, nodes, converged) result, else
    BudgetError naming the rule, the tolerance and the node count."""
    value, nodes, converged = result
    if not converged:
        raise BudgetError(
            f"{rule} did not converge to rel_tol {rel_tol:g} before its node cap ({nodes} nodes)")
    return value


def random_grid_measure(rng, max_atoms=40, min_atoms=1, max_level=7, bases=(2, 3, 4, 5)):
    """Seeded random measure on a modest grid; used by oracle sweeps."""
    base = int(rng.choice(bases))
    level = int(rng.integers(2, max_level + 1))
    grid = base**level
    n = int(rng.integers(min_atoms, min(max_atoms, grid) + 1))
    indices = np.sort(rng.choice(grid, size=n, replace=False))
    weights = rng.random(n) + 0.05
    weights /= weights.sum()
    return fl.GridMeasure(base=base, level=level, indices=indices, weights=weights)


def dense_copy(nu):
    """The same atoms on a spec-less measure, which takes the dense routes
    (np.add.at sumset, FFT gap correlation, |transform|^2 power spectrum,
    factored transform_on_grid)."""
    return fl.GridMeasure(base=nu.base, level=nu.level, indices=nu.indices, weights=nu.weights)


def exact_phase_transform(nu, xi):
    """The dense sum over atoms with each phase x_j xi reduced mod 1 exactly:
    a Veltkamp split gives x_j xi = p + err in float arithmetic, so the
    phases keep ~1e-16 cycles at any |xi|. transform rounds them to ~1e-16
    |xi| cycles, more than 1e-11 of a unit-modulus transform near |xi| = 1e4."""

    def split(a):
        t = 134217729.0 * a
        hi = t - (t - a)
        return hi, a - hi

    x, w = nu.positions, nu.weights
    xh, xl = split(x)
    flat = np.asarray(xi, dtype=float).ravel()
    out = np.empty(flat.shape, dtype=complex)
    rows = max(1, 2**22 // x.size)
    for start in range(0, flat.size, rows):
        f = flat[start : start + rows]
        fh, fl_ = split(f)
        p = np.outer(f, x)
        err = ((np.outer(fh, xh) - p) + np.outer(fh, xl) + np.outer(fl_, xh)) + np.outer(fl_, xl)
        out[start : start + f.size] = np.exp((-2j * np.pi) * ((p - np.rint(p)) + err)) @ w
    return out.reshape(np.shape(xi))


def measure_ft(nu, xi):
    """nu_hat(xi) = sum_j w_j exp(-2 pi i x_j xi); |nu_hat| <= 1 = nu_hat(0):
    GridMeasure.transform, the dense sum over atoms for every measure."""
    return nu.transform(xi)


def product_ft(mu, xi):
    """mu_hat(xi) = prod_j nu_j_hat(xi_j) for a frequency vector xi (or an
    array of vectors in the last axis)."""
    xi_arr = np.asarray(xi, dtype=float)
    d = mu.dimension
    if xi_arr.shape[-1:] != (d,):
        raise ValidationError(
            f"frequency vector has {xi_arr.shape[-1] if xi_arr.ndim else 0} "
            f"components, product has {d} factors"
        )
    out = np.ones(xi_arr.shape[:-1], dtype=complex)
    for j, factor in enumerate(mu.factors):
        out = out * factor.transform(xi_arr[..., j])
    if xi_arr.ndim == 1:
        return complex(out)
    return out


def derive_delta_grid(alpha, beta, points=2_000_001):
    """Grid-search oracle for derive_delta: maximize
    min(gamma0*(1-alpha), gamma - gamma0/2) over gamma0 in (0, 2*gamma)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not beta > 0.0:
        raise ValidationError(f"beta must be positive, got {beta}")
    gamma = beta / 2.0
    g0 = np.linspace(0.0, 2.0 * gamma, points)[1:-1]
    objective = np.minimum(g0 * (1.0 - alpha), gamma - g0 / 2.0)
    i = int(np.argmax(objective))
    return float(g0[i]), float(objective[i])


def space_side_sigma(mu, ts, kernel):
    """Oracle of sigma(t) on the space side: the sum over atom pairs x, y of
    w_x w_y K(2 pi t |x - y|), K(|xi|) the transform of the unit sphere's
    surface measure at xi (4 pi sin(u)/u on S^2); the pairs are collapsed
    to their distinct squared distances one axis at a time."""
    d2, mass = np.zeros(1), np.ones(1)
    for f in mu.factors:
        gaps = np.subtract.outer(f.positions, f.positions).ravel()
        d2, inverse = np.unique(np.add.outer(d2, gaps * gaps).ravel(), return_inverse=True)
        pair_mass = np.multiply.outer(mass, np.outer(f.weights, f.weights).ravel()).ravel()
        mass = np.bincount(inverse, pair_mass)
    dist = np.sqrt(d2)
    return np.array([np.sum(mass * kernel(2.0 * np.pi * t * dist)) for t in np.ravel(ts)])


def mattila_d3_oracle(mu, T):
    """The unweighted d = 3 Mattila integral int_1^T sigma(t)^2 t^2 dt in
    closed form. sigma(t) t = 4 pi [p_0 t + sum_{r > 0} p(r) sin(a t) / a],
    a = 2 pi r, over the pair distances r, merged by their exact integer
    r**2 / delta**2 (the factors share delta). Its square integrates term by
    term: t**2, t sin(a t), and sin(a t) sin(b t), whose a = b limit is
    (t - sin(2 a t) / (2 a)) / 2."""
    delta = mu.factors[0].delta
    assert mu.dimension == 3 and all(f.delta == delta for f in mu.factors)
    r2, mass = np.zeros(1, dtype=np.int64), np.ones(1)
    for f in mu.factors:
        gaps = np.subtract.outer(f.indices, f.indices).ravel()
        r2, inverse = np.unique(np.add.outer(r2, gaps * gaps).ravel(), return_inverse=True)
        pair_mass = np.multiply.outer(mass, np.outer(f.weights, f.weights).ravel()).ravel()
        mass = np.bincount(inverse, pair_mass)
    assert r2[0] == 0  # the diagonal
    p0, a = mass[0], 2.0 * np.pi * delta * np.sqrt(r2[1:])
    c = mass[1:] / a
    diff, total = np.subtract.outer(a, a), np.add.outer(a, a)

    def antiderivative(t):
        t_sin = np.sin(a * t) / a**2 - t * np.cos(a * t) / a
        sin_diff = np.divide(np.sin(diff * t), diff, out=np.full(diff.shape, t), where=diff != 0.0)
        sin_sin = 0.5 * (sin_diff - np.sin(total * t) / total)
        return p0 * p0 * t**3 / 3.0 + 2.0 * p0 * (c @ t_sin) + c @ sin_sin @ c

    return 16.0 * np.pi**2 * (antiderivative(T) - antiderivative(1.0))


def sphere_kernel_3(u):
    """|S^2| sin(u)/u, the transform of the surface measure of S^2."""
    return 4.0 * np.pi * np.sinc(u / np.pi)


def solid_average_oracle(nu, t, a, b):
    """int_a^b |nu_hat(t u)|^2 du on the space side: |nu_hat(xi)|^2 =
    sum_g p(g) cos(2 pi xi g) over the gap pmf p of the atom pairs, so the
    integral is sum_g p(g) (sin 2 pi t b g - sin 2 pi t a g) / (2 pi t g),
    whose g = 0 term is p(0) (b - a)."""
    gaps, inverse = np.unique(np.subtract.outer(nu.indices, nu.indices).ravel(),
                              return_inverse=True)
    p = np.bincount(inverse, np.outer(nu.weights, nu.weights).ravel())
    x = 2.0 * np.pi * t * gaps * nu.delta
    zero = gaps == 0
    x[zero] = 1.0
    terms = np.where(zero, b - a, (np.sin(x * b) - np.sin(x * a)) / x)
    return float(np.sum(p * terms))


def upsample_pmf(spec, signs):
    """The digit-expansion pmf of energy._digit_expansion_pmf built the
    direct way: each level upsamples the pmf by the base (zeros between its
    entries), then convolves it with the whole digit pmf."""
    d = np.zeros(spec.base)
    d[list(spec.digits)] = 1.0 / len(spec.digits)
    digit_pmf = np.ones(1)
    for sign in signs:
        digit_pmf = np.convolve(digit_pmf, d if sign > 0 else d[::-1])
    pmf = np.ones(1)
    for _ in range(spec.level):
        up = np.zeros(spec.base * (pmf.size - 1) + 1)
        up[:: spec.base] = pmf
        pmf = np.convolve(up, digit_pmf)
    return pmf


def gap_cells_oracle(factors, pair_budget, block):
    """geometry._gap_cells cell by cell: every cell of a chunk unravelled to
    its per-axis gap ids, then gathered per axis. Yields per-axis
    coordinates, distances sqrt(sum_j c_j**2) and cell masses."""
    pmfs = [_gap_pmf(f, pair_budget) for f in factors]
    shape = tuple(gaps.size for gaps, _ in pmfs)
    cells = math.prod(shape)
    for start in range(0, cells, block):
        ids = np.unravel_index(np.arange(start, min(start + block, cells)), shape)
        coords = [gaps[i] for (gaps, _), i in zip(pmfs, ids)]
        mass = math.prod(masses[i] for (_, masses), i in zip(pmfs, ids))
        yield coords, np.sqrt(sum(c * c for c in coords)), mass


def simpson_sectors(mu, t, gamma0, rel_tol):
    """Oracle of angular_decomposition's sectors (near_zero, near_half_pi,
    middle): Simpson doubling of |nu_a_hat(t cos)|^2 |nu_b_hat(t sin)|^2 on
    [0, eps], [pi/2 - eps, pi/2] and [eps, pi/2 - eps], eps = t^(-gamma0)."""
    fa, fb = mu.factors
    eps = t ** (-gamma0)

    def f(thetas):
        return fa.power_spectrum(t * np.cos(thetas)) * fb.power_spectrum(t * np.sin(thetas))

    def sector(a, b):
        initial = max(32, 2 * int(4.0 * t * (b - a)))
        result = simpson_doubling(f, a, b, initial_intervals=initial, rel_tol=rel_tol)
        return require_converged(result, "angular-sector Simpson", rel_tol)

    return sector(0.0, eps), sector(np.pi / 2.0 - eps, np.pi / 2.0), sector(eps, np.pi / 2.0 - eps)


@pytest.fixture(scope="session")
def middle_thirds_8():
    return fl.build_cantor(fl.middle_thirds(8))


@pytest.fixture(scope="session")
def middle_thirds_9():
    return fl.build_cantor(fl.middle_thirds(9))


@pytest.fixture(scope="session")
def two_atom_half():
    """Atoms at positions 0 and 1/2, equal mass."""
    return fl.GridMeasure(
        base=2, level=1, indices=np.array([0, 1]), weights=np.array([0.5, 0.5])
    )


@pytest.fixture(scope="session")
def two_atom_line():
    """Atoms (0, 0) and (1/2, 0), equal mass, on the level-10 grid (validity
    cap 102.4), with the closed form sigma_w(t) = 2 + sin(pi t) / (pi t / 2)
    of its |sin theta|-weighted circular average."""
    two = fl.GridMeasure(
        base=2, level=10, indices=np.array([0, 512]), weights=np.array([0.5, 0.5])
    )
    mu = fl.build_product([two, fl.point_mass()], [0.0, 0.0])
    return mu, lambda t: 2.0 + np.sin(np.pi * t) / (np.pi * t / 2.0)
