import numpy as np
import pytest

from halfspace_lpp.pfaffian import (
    ShapeError,
    correlation_fn,
    pfaffian,
    pfaffian_expansion,
    slogpf,
)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def test_basic_blocks():
    assert pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == pytest.approx(2.5)
    B = np.zeros((4, 4))
    B[0, 1], B[1, 0] = 2.0, -2.0
    B[2, 3], B[3, 2] = 3.0, -3.0
    assert pfaffian(B) == pytest.approx(6.0)
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_shape_errors():
    with pytest.raises(ShapeError):
        pfaffian(np.zeros((3, 3)))


def test_pf_squared_is_det(rng):
    # 200 random skew matrices up to 16x16, real and complex
    for trial in range(200):
        n = 2 * int(rng.integers(1, 9))
        M = rng.standard_normal((n, n))
        if trial % 2:
            M = M + 1j * rng.standard_normal((n, n))
        M = M - M.T
        pf = pfaffian(M)
        det = np.linalg.det(M)
        assert abs(pf * pf - det) < 1e-8 * max(1.0, abs(det))


def test_elimination_matches_expansion(rng):
    for n in (2, 4, 6, 8):
        M = rng.standard_normal((n, n))
        M = M - M.T
        assert pfaffian(M) == pytest.approx(complex(pfaffian_expansion(M)), abs=1e-10)


def test_congruence(rng):
    for n in (4, 8, 12):
        M = rng.standard_normal((n, n))
        M = M - M.T
        B = rng.standard_normal((n, n))
        lhs = pfaffian(B @ M @ B.T)
        rhs = np.linalg.det(B) * pfaffian(M)
        assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))


def test_zero_column_gives_zero():
    M = np.zeros((4, 4))
    M[2, 3], M[3, 2] = 1.0, -1.0
    assert pfaffian(M) == 0.0


class _Block:
    def __init__(self, mat, err=0.0):
        self._m = np.asarray(mat, dtype=complex)
        self.err = err

    def as_matrix(self):
        return self._m


def test_correlation_fn_single_point():
    k12 = 0.37

    def ev(p, q):
        return _Block([[0.0, k12], [-k12, 0.0]])

    rho, err = correlation_fn([(0, 0)], ev)
    assert rho == pytest.approx(k12)


def test_correlation_fn_duplicated_point_vanishes():
    def ev(p, q):
        return _Block([[0.0, 0.4], [-0.4, 0.0]])

    rho, _ = correlation_fn([(0, 0), (0, 0)], ev)
    assert abs(rho) < 1e-12


def test_slogpf_scaling_past_underflow(rng):
    for n in (2, 8, 16, 32, 64):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = M - M.T
        phase, logabs = slogpf(M)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert abs(phase * np.exp(logabs) - pfaffian(M)) < 1e-12 * np.exp(logabs)
        for s in (1e-3, 1e-40, 1e3):
            ph_s, la_s = slogpf(s * M)
            # Pf(sA) = s^{n/2} Pf(A)
            assert abs(la_s - (logabs + 0.5 * n * np.log(s))) < 1e-9 * max(1.0, abs(la_s))
            assert abs(ph_s - phase) < 1e-9
            if la_s < -746.0:
                assert pfaffian(s * M) == 0.0  # the value form underflows
            elif abs(la_s) < 700.0:
                assert abs(pfaffian(s * M) - s ** (n // 2) * pfaffian(M)) < 1e-9 * np.exp(la_s)
    assert slogpf(np.zeros((4, 4))) == (0.0, -np.inf)
    assert slogpf(np.zeros((0, 0))) == (1.0, 0.0)
