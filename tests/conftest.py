import numpy as np
import pytest

import fractalab as fl


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
