"""Channel sampling and syndrome tests.

Oracles: empirical frequency counts with binomial tolerances, and the
dense binary matrix-vector product for the symbol-wise syndrome.
"""

import numpy as np
import pytest

import oracles
from nbqc.binexpand import expand_pair
from nbqc.channel import ChannelParams, sample_error, syndrome_of, unpack_symbols
from nbqc.gf2p import make_field
from nbqc.nblift import DimensionMismatch, lift
from nbqc.qcpair import QCParams, build_pair

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)


@pytest.fixture(scope="module")
def code():
    pair = build_pair(EX1)
    field = make_field(4)
    return expand_pair(*lift(pair, field, np.random.default_rng(1)))


class TestChannelParams:
    def test_fdep(self):
        assert ChannelParams(f_m=0.1).f_dep == pytest.approx(0.15)

    def test_bounds(self):
        with pytest.raises(ValueError):
            ChannelParams(f_m=0.5)
        with pytest.raises(ValueError):
            ChannelParams(f_m=-0.01)
        with pytest.raises(ValueError):
            ChannelParams(f_m=0.1, mode="weird")


class TestSampleError:
    def test_zero_rate_gives_zero_vectors(self):
        rng = np.random.default_rng(0)
        for mode in ("independent", "joint"):
            x, z = sample_error(50, 4, ChannelParams(f_m=0.0, mode=mode), rng)
            assert not x.any() and not z.any()

    @pytest.mark.parametrize("mode", ["independent", "joint"])
    def test_marginals_within_4_sigma(self, mode):
        f_m, p, n_sym = 0.1, 4, 25_000
        n_bits = p * n_sym
        rng = np.random.default_rng(42)
        x, z = sample_error(n_sym, p, ChannelParams(f_m=f_m, mode=mode), rng)
        sigma = (f_m * (1 - f_m) / n_bits) ** 0.5
        for v in (x, z):
            rate = unpack_symbols(v, p).mean()
            assert abs(rate - f_m) < 4 * sigma

    def test_joint_mode_correlation(self):
        # P(X and Z on one qubit) = f_dep / 3 = f_m / 2, well above f_m^2
        f_m, p, n_sym = 0.1, 4, 25_000
        n_bits = p * n_sym
        rng = np.random.default_rng(7)
        x, z = sample_error(n_sym, p, ChannelParams(f_m=f_m, mode="joint"), rng)
        both = (unpack_symbols(x, p) & unpack_symbols(z, p)).mean()
        expect = f_m / 2
        sigma = (expect * (1 - expect) / n_bits) ** 0.5
        assert abs(both - expect) < 5 * sigma
        assert both > 2 * f_m ** 2

    def test_independent_mode_uncorrelated(self):
        f_m, p, n_sym = 0.1, 4, 25_000
        rng = np.random.default_rng(8)
        x, z = sample_error(n_sym, p, ChannelParams(f_m=f_m), rng)
        both = (unpack_symbols(x, p) & unpack_symbols(z, p)).mean()
        assert both < 3 * f_m ** 2

    def test_deterministic(self):
        params = ChannelParams(f_m=0.2, mode="joint")
        a = sample_error(30, 4, params, np.random.default_rng(5))
        b = sample_error(30, 4, params, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestSyndrome:
    def test_zero_error_zero_syndrome(self, code):
        zero = np.zeros(code.N, dtype=np.int64)
        for role in ("C", "D"):
            assert not syndrome_of(code, role, zero).any()

    def test_single_symbol_hits_its_two_checks(self, code):
        err = np.zeros(code.N, dtype=np.int64)
        n, v = 13, 9
        err[n] = v
        s = syndrome_of(code, "C", err)
        touched = {m for m, row in enumerate(oracles.rows_of(code.gamma))
                   if any(c == n for c, _ in row)}
        assert {m for m in range(code.M) if s[m]} <= touched
        assert len(touched) == 2
        for m in touched:
            assert s[m] == oracles.field_mul(code.field, code.gamma.entry(m, n), v)

    @pytest.mark.parametrize("role", ["C", "D"])
    def test_matches_dense_binary_product(self, code, role):
        mat = code.hc if role == "C" else code.hd
        dense = mat.to_dense().astype(np.int64)
        p = code.field.p
        rng = np.random.default_rng(11)
        for _ in range(100):
            err = rng.integers(0, code.field.q, size=code.N)
            bits = unpack_symbols(err, p).astype(np.int64)
            s_bits = dense @ bits % 2
            expect = s_bits.reshape(code.M, p) @ (1 << np.arange(p))
            got = syndrome_of(code, role, err)
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("role", ["C", "D"])
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_matches_per_entry_loop(self, p, role):
        pair = build_pair(EX1)
        field = make_field(p)
        code = expand_pair(*lift(pair, field, np.random.default_rng(20 + p)))
        rng = np.random.default_rng(p)
        for _ in range(20):
            err = rng.integers(0, field.q, size=code.N) * (rng.random(code.N) < 0.3)
            assert np.array_equal(syndrome_of(code, role, err),
                                  oracles.syndrome_of(code, role, err))

    def test_linearity(self, code):
        rng = np.random.default_rng(13)
        for role in ("C", "D"):
            e1 = rng.integers(0, 16, size=code.N)
            e2 = rng.integers(0, 16, size=code.N)
            assert np.array_equal(
                syndrome_of(code, role, e1 ^ e2),
                syndrome_of(code, role, e1) ^ syndrome_of(code, role, e2))

    def test_dual_rows_have_zero_syndrome(self, code):
        # rows of the second binary matrix are C-syndrome-free
        p = code.field.p
        from nbqc.channel import _pack_symbols
        for r in range(0, code.hd.m, 9):
            bits = np.zeros(code.hc.n, dtype=bool)
            bits[oracles.rows_of(code.hd)[r]] = True
            err = _pack_symbols(bits, p)
            assert not syndrome_of(code, "C", err).any()

    def test_dimension_check(self, code):
        with pytest.raises(DimensionMismatch):
            syndrome_of(code, "C", np.zeros(7, dtype=np.int64))

    @pytest.mark.parametrize("role", ["C", "D"])
    @pytest.mark.parametrize("bad", [-1, 16])
    def test_symbol_range_check(self, code, role, bad):
        err = np.zeros(code.N, dtype=np.int64)
        err[5] = bad
        with pytest.raises(DimensionMismatch, match=r"\[0, 16\)"):
            syndrome_of(code, role, err)
        err[5] = 15
        assert syndrome_of(code, role, err).any()
