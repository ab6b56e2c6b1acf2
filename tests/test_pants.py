import cmath

import numpy as np
import pytest

from oracles import frame_entries, pants_entries, rounded
from qfsurface.pants import ReduciblePants, validate_pants
from qfsurface.surface import displacement_from_trace, normalize_complex_length


def pants_matrices(sigmas):
    """C1, C2, C3 of the normal form, rounded once to complex128 arrays."""
    return rounded(pants_entries, sigmas)


def random_sigmas(rng, imag=0.4):
    return tuple(rng.uniform(0.4, 1.8) + 1j * rng.uniform(-imag, imag) for _ in range(3))


def test_equal_real_boundaries():
    sigma = 1.1
    c1, c2, c3 = pants_matrices((sigma, sigma, sigma))
    expected = -2.0 * np.cosh(sigma)
    for c in (c1, c2, c3):
        assert abs(np.trace(c) - expected) <= 1e-12
    product = c1 @ c2 @ c3
    eye = np.eye(2)
    assert min(np.max(np.abs(product - eye)), np.max(np.abs(product + eye))) <= 1e-10


def test_trace_and_relator_residuals_random():
    rng = np.random.RandomState(500 + 1)
    for _ in range(50):
        sigmas = random_sigmas(rng)
        c1, c2, c3 = pants_matrices(sigmas)
        for c, s in zip((c1, c2, c3), sigmas):
            # -2 cosh(s) with Re s >= 0.4: loxodromic
            assert abs(np.trace(c) + 2.0 * cmath.cosh(s)) <= 1e-12
        product = c1 @ c2 @ c3
        assert np.max(np.abs(product - np.eye(2))) <= 1e-10


def test_real_boundary_gives_real_matrices():
    rng = np.random.RandomState(500 + 2)
    for _ in range(10):
        sigmas = tuple(rng.uniform(0.4, 2.0) for _ in range(3))
        for c in pants_matrices(sigmas):
            assert np.max(np.abs(c.imag)) <= 1e-10


def test_displacement_is_twice_sigma():
    rng = np.random.RandomState(500 + 3)
    for _ in range(30):
        sigmas = random_sigmas(rng, imag=0.3)
        for c, s in zip(pants_matrices(sigmas), sigmas):
            phi = displacement_from_trace(np.trace(c))
            assert abs(phi - normalize_complex_length(2.0 * s)) <= 1e-10


def test_entry_continuity():
    sigmas = (0.9, 1.2, 1.5)
    base = np.array([m for m in pants_matrices(sigmas)])
    eps = 1e-6
    for k in range(3):
        for direction in (1.0, 1j):
            bumped = list(sigmas)
            bumped[k] += eps * direction
            moved = np.array([m for m in pants_matrices(bumped)])
            delta = np.max(np.abs(moved - base))
            assert 0 < delta < 100 * eps


def test_frames_diagonalize_cuffs():
    rng = np.random.RandomState(500 + 4)
    for _ in range(20):
        sigmas = random_sigmas(rng)
        mats = pants_matrices(sigmas)
        frames = rounded(frame_entries, sigmas)
        for mat, frame, s in zip(mats, frames, sigmas):
            det = frame[0, 0] * frame[1, 1] - frame[0, 1] * frame[1, 0]
            assert abs(det + 2.0 * cmath.sinh(s)) <= 1e-10
            diag = np.linalg.solve(frame, mat @ frame)
            expected = np.diag([-cmath.exp(s), -cmath.exp(-s)])
            assert np.max(np.abs(diag - expected)) <= 1e-9


def test_reducible_triple_rejected():
    # With traces -2 cosh(sigma), the representation is reducible exactly
    # when sigma1 + sigma2 + sigma3 hits i*pi modulo 2*pi*i (eigenvalues
    # can then be chosen to multiply to 1).
    s1, s2 = 0.8, 1.3
    with pytest.raises(ReduciblePants):
        validate_pants((s1, s2, s1 + s2 + 1j * cmath.pi))
