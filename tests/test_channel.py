"""Channel sampling and syndrome tests.

Oracles: empirical frequency counts with binomial tolerances, and the
dense binary matrix-vector product with the expansion that
`oracles.expand_binary` builds entry by entry, for the syndrome that
the library takes one p x p block at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import pack_symbols, unpack_symbols
from nbqc.binexpand import CssCodePair, expand_pair
from nbqc.channel import ChannelParams, sample_error, syndrome_of
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

    @given(n_sym=st.integers(0, 40), p=st.integers(1, 16),
           f_m=st.floats(0.0, 0.5, exclude_max=True),
           mode=st.sampled_from(["independent", "joint"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_component_by_component_draws(self, n_sym, p, f_m, mode, seed):
        # same symbols, and the generator left at the same point of its stream
        params = ChannelParams(f_m=f_m, mode=mode)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_error(n_sym, p, params, rng)
        want = oracles.sample_error(n_sym, p, params, ref_rng)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (n_sym,) and g.dtype == np.int64
            assert np.array_equal(g, w)
        assert rng.random() == ref_rng.random()


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
            assert s[m] == oracles.field_mul(code.field, oracles.entry(code.gamma, m, n), v)

    @pytest.mark.parametrize("role", ["C", "D"])
    def test_matches_dense_binary_product(self, code, role):
        mat = oracles.expand_binary(code.matrix(role), transpose=role == "D")
        dense = oracles.dense(mat).astype(np.int64)
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
        # every row of the other binary matrix (Hd for role C, Hc for
        # role D) is free of this role's syndrome
        for role in ("C", "D"):
            dual = oracles.expand_binary(code.matrix("D" if role == "C" else "C"),
                                         transpose=role == "C")
            assert dual.m == code.M * code.field.p
            for cols in oracles.rows_of(dual):
                bits = np.zeros(dual.n, dtype=bool)
                bits[cols] = True
                err = pack_symbols(bits, code.field.p)
                assert not syndrome_of(code, role, err).any()

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


def random_rows(rng, field, m, n, reverse):
    """Row lists of a random m x n matrix with nonzero entries, each row's
    columns ascending, or descending with `reverse`."""
    rows = []
    for _ in range(m):
        cols = np.flatnonzero(rng.random(n) < 0.5).tolist()
        row = [(c, int(rng.integers(1, field.q))) for c in cols]
        rows.append(row[::-1] if reverse else row)
    return rows


@given(p=st.sampled_from([2, 3, 4, 8, 16]), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(1, 6), n=st.integers(1, 9), reverse=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_block_syndrome_matches_oracle_binary_product(p, seed, m, n, reverse, data):
    # any pair of matrices, orthogonal or not: the syndrome is a product
    # with one matrix; the error holds 0 and q - 1 as well as any symbol
    field = make_field(p)
    rng = np.random.default_rng(seed)
    gamma, delta = (oracles.nb_from_rows(m, n, random_rows(rng, field, m, n, reverse),
                                         role, field, EX1) for role in ("GAMMA", "DELTA"))
    code = CssCodePair(field=field, params=EX1, gamma=gamma, delta=delta)
    symbol = st.one_of(st.sampled_from([0, field.q - 1]), st.integers(0, field.q - 1))
    err = np.array(data.draw(st.lists(symbol, min_size=n, max_size=n)), dtype=np.int64)
    for role in ("C", "D"):
        got = syndrome_of(code, role, err)
        assert got.shape == (m,) and got.dtype == np.int64
        assert np.array_equal(got, oracles.binary_syndrome(code, role, err))
