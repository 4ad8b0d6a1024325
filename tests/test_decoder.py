"""Decoder tests.

Oracles: the O(q^2) double-sum convolution, the plain concatenating
butterfly transform, the field's per-value index tables, hand-computed
binary sum-product identities at q=2, and exhaustive single-symbol
maximum likelihood decoding (enumerable because candidates are N*(q-1)
vectors).  Decoder outputs are also pinned bit for bit by a digest.
"""

import functools
import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbqc.binexpand import expand_pair, load_pair
from nbqc.channel import ChannelParams, sample_error, syndrome_of
from nbqc.decoder import (DecoderConfig, LengthMismatch, NonFiniteMessage, SyndromeDecoder,
                          decode, decode_css, init_pmf, walsh_hadamard, wht_work)
from nbqc.gf2p import make_field
from nbqc.harness import trial_rng
from nbqc.nblift import DimensionMismatch, lift_gamma, solve_delta
from nbqc.qcpair import QCParams, build_pair
from oracles import SingularMap, first_check_pass, permute_pmf, wht_convolve

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def code():
    # lift draw with no light binary codewords (single-symbol recovery exact)
    pair = build_pair(EX1)
    field = make_field(4)
    gamma = lift_gamma(pair, field, np.random.default_rng(26), reject_trivial=True)
    return expand_pair(gamma, solve_delta(gamma, pair))


def naive_convolve(msgs, shift):
    """O(q^2) double-sum group convolution oracle."""
    q = len(msgs[0])
    acc = np.zeros(q)
    acc[shift] = 1.0
    for msg in msgs:
        out = np.zeros(q)
        for e in range(q):
            for f in range(q):
                out[e ^ f] += acc[e] * msg[f]
        acc = out
    return acc


def concat_walsh_hadamard(x):
    """Unnormalised WHT along the last axis, stage by stage on (rows, q).

    The same butterflies in the same order (h = 1, 2, 4, ...) as the
    library transform, so the two must agree bit for bit.
    """
    q = x.shape[-1]
    lead = x.shape[:-1]
    y = x.reshape(-1, q).astype(np.float64).copy()
    h = 1
    while h < q:
        y = y.reshape(-1, q // (2 * h), 2, h)
        even = y[:, :, 0, :] + y[:, :, 1, :]
        odd = y[:, :, 0, :] - y[:, :, 1, :]
        y = np.concatenate((even[:, :, None, :], odd[:, :, None, :]), axis=2)
        y = y.reshape(-1, q)
        h *= 2
    return y.reshape(*lead, q)


def random_pmf(rng, q):
    v = rng.random(q)
    return v / v.sum()


class TestInitPmf:
    def test_uniform_at_half(self):
        assert np.allclose(init_pmf(0.5 - 1e-12, 4), np.full(16, 1 / 16))

    def test_p4_f01(self):
        pmf = init_pmf(0.1, 4)
        assert pmf[0] == pytest.approx(0.6561)
        for e in (1, 2, 4, 8):
            assert pmf[e] == pytest.approx(0.0729)

    @pytest.mark.parametrize("p,f", [(2, 0.3), (4, 0.01), (6, 0.12), (8, 0.49)])
    def test_sums_to_one(self, p, f):
        assert init_pmf(f, p).sum() == pytest.approx(1.0, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            init_pmf(0.5, 4)
        with pytest.raises(ValueError):
            init_pmf(-0.1, 4)

    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("f", [0.0, 1e-12, 0.02, 0.3, 0.5 - 1e-9])
    def test_symbol_zero_is_the_argmax(self, p, f):
        # the decoder's iteration-0 check relies on this: the prior's
        # decision is the all-zero vector, whose syndrome is zero
        pmf = init_pmf(f, p)
        assert np.argmax(pmf) == 0
        assert pmf[0] > pmf[1:].max()

    def test_cached_prior_is_read_only(self):
        pmf = init_pmf(0.02, 4)
        assert init_pmf(0.02, 4) is pmf
        with pytest.raises(ValueError):
            pmf[0] = 0.5


class TestWalshHadamard:
    def test_twice_is_q_identity(self):
        rng = np.random.default_rng(3)
        for q in (4, 16, 64):
            v = rng.random(q)
            assert np.allclose(walsh_hadamard(walsh_hadamard(v)) / q, v)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        batch = rng.random((3, 5, 16))
        out = walsh_hadamard(batch)
        for i in range(3):
            for j in range(5):
                assert np.allclose(out[i, j], walsh_hadamard(batch[i, j]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(LengthMismatch):
            walsh_hadamard(np.ones(6))

    @pytest.mark.parametrize("q", [4, 16, 256])
    # 300 rows: at q=256 the last stages are split into narrower products
    @pytest.mark.parametrize("lead", [(), (1,), (3, 5), (2, 3, 5), (300,)])
    @pytest.mark.parametrize("values", ["random", "zeros", "tiny", "large",
                                        "signed_zeros", "subnormal", "nonfinite"])
    def test_bit_identical_to_concatenate_oracle(self, q, lead, values):
        rng = np.random.default_rng(q + len(lead))
        shape = (*lead, q)

        def sprinkle(special, every):
            # ordinary values with one entry in `every` (at least one) replaced
            x = rng.random(shape) - 0.5
            at = rng.choice(x.size, size=max(1, x.size // every), replace=False)
            x.reshape(-1)[at] = rng.choice(special, size=at.size)
            return x

        x = {"random": lambda: rng.random(shape),
             "zeros": lambda: np.zeros(shape),
             "tiny": lambda: (1.0 + rng.random(shape)) * 1e-300,
             "large": lambda: (rng.random(shape) - 0.5) * 1e10,
             "signed_zeros": lambda: sprinkle([0.0, -0.0], 2),
             "subnormal": lambda: (rng.random(shape) - 0.5) * 2e-310,
             "nonfinite": lambda: sprinkle([np.inf, -np.inf, np.nan], 16)}[values]()
        finite = np.isfinite(x).all()
        with np.errstate(invalid="ignore"):      # inf - inf in "nonfinite"
            want = concat_walsh_hadamard(x)
            # the decoder hands over symbol-major memory: last axis outermost,
            # and its own work buffers, reused from call to call
            symbol_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
            work = wht_work(q, x.size // q)
            for arg in (x, symbol_major):
                for got in (walsh_hadamard(arg), walsh_hadamard(arg, work)):
                    assert got.shape == shape and got.dtype == np.float64
                    assert np.array_equal(got, want, equal_nan=True)
                    # an exact zero may differ in sign only, which the
                    # decoder's clamp at 0 removes
                    if finite:
                        assert (np.maximum(got, 0.0).tobytes()
                                == np.maximum(want, 0.0).tobytes())

    @settings(max_examples=80, deadline=None)
    @given(q=st.sampled_from([2, 4, 16, 256]), lead=st.sampled_from([(), (1,), (3,), (2, 5)]),
           symbol_major=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_character_translates_transform(self, q, lead, symbol_major, seed, data):
        # WHT(chi_a * x)[u] == WHT(x)[u ^ a], bit for bit up to the sign of
        # an exact zero, which np.array_equal does not see
        a = data.draw(st.integers(0, q - 1))
        rng = np.random.default_rng(seed)
        shape = (*lead, q)
        scale = rng.choice([0.0, 1e-300, 1.0, 1e10], size=shape)
        x = scale * rng.uniform(-1.0, 1.0, size=shape)
        idx = np.arange(q)
        chi = 1.0 - 2.0 * (np.bitwise_count(idx & a) & 1)
        layout = ((lambda v: np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1))
                  if symbol_major else (lambda v: v))
        assert np.array_equal(walsh_hadamard(layout(chi * x)),
                              walsh_hadamard(layout(x))[..., idx ^ a])

    @pytest.mark.parametrize("shape", [(16,), (1, 16), (1, 1, 16), (4, 16)])
    def test_input_not_modified(self, shape):
        rng = np.random.default_rng(8)
        x = rng.random(shape)
        kept = x.copy()
        work = wht_work(16, x.size // 16)
        for arg in (x, np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)):
            walsh_hadamard(arg)
            walsh_hadamard(arg, work)
            assert np.array_equal(arg, kept)

    def test_work_buffers_must_fit(self):
        with pytest.raises(LengthMismatch):
            walsh_hadamard(np.ones((3, 16)), wht_work(16, 4))
        with pytest.raises(LengthMismatch):
            walsh_hadamard(np.ones((4, 8)), wht_work(16, 2))
        for q in (0, 1, 6):
            with pytest.raises(LengthMismatch):
                wht_work(q, 4)

    def test_integer_input_and_length_one(self):
        assert np.array_equal(walsh_hadamard(np.array([1, 2, 3, 4])),
                              concat_walsh_hadamard(np.array([1, 2, 3, 4])))
        x = np.array([[3.0], [5.0]])
        out = walsh_hadamard(x)
        assert np.array_equal(out, x) and out is not x
        empty = walsh_hadamard(np.ones((0, 16)))
        assert empty.shape == (0, 16) and empty.dtype == np.float64


class TestConvolve:
    def test_delta_shift(self):
        q = 16
        a, b = 5, 9
        d = np.zeros(q)
        d[a] = 1.0
        out = wht_convolve([d], shift=b)
        expect = np.zeros(q)
        expect[a ^ b] = 1.0
        assert np.allclose(out, expect, atol=1e-12)

    def test_uniform_fixed_point(self):
        q = 16
        u = np.full(q, 1 / q)
        assert np.allclose(wht_convolve([u, u]), u, atol=1e-12)

    @pytest.mark.parametrize("q", [4, 16, 64])
    def test_matches_naive_oracle(self, q):
        rng = np.random.default_rng(q)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            msgs = [random_pmf(rng, q) for _ in range(k)]
            shift = int(rng.integers(0, q))
            got = wht_convolve(msgs, shift)
            want = naive_convolve(msgs, shift)
            assert np.abs(got - want).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            wht_convolve([np.ones(4) / 4, np.ones(8) / 8])
        with pytest.raises(LengthMismatch):
            wht_convolve([])


class TestPermute:
    def test_identity(self):
        rng = np.random.default_rng(0)
        msg = random_pmf(rng, 16)
        assert np.array_equal(permute_pmf(msg, np.eye(4, dtype=np.int64)), msg)

    def test_inverse_composition(self):
        field = make_field(4)
        rng = np.random.default_rng(1)
        msg = random_pmf(rng, 16)
        for x in (2, 7, 13):
            fwd = permute_pmf(msg, field.companion(x))
            back = permute_pmf(fwd, field.companion(field.inv(x)))
            assert np.allclose(back, msg)

    def test_matches_index_table(self):
        field = make_field(4)
        rng = np.random.default_rng(2)
        msg = random_pmf(rng, 16)
        for x in range(1, 16):
            via_matrix = permute_pmf(msg, field.companion(x))
            assert np.allclose(via_matrix, msg[field.mul_index_table(x)])

    @given(seed=st.integers(0, 10 ** 6), x=st.integers(1, 15))
    @settings(max_examples=30)
    def test_mass_preserved(self, seed, x):
        field = make_field(4)
        msg = random_pmf(np.random.default_rng(seed), 16)
        out = permute_pmf(msg, field.companion(x))
        assert out.sum() == pytest.approx(msg.sum())

    def test_singular_map_rejected(self):
        with pytest.raises(SingularMap):
            permute_pmf(np.full(4, 0.25), np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(SingularMap):
            permute_pmf(np.full(4, 0.25), np.ones((2, 2), dtype=np.int64))


class TestDecode:
    def test_zero_syndrome_success_at_iteration_zero(self, code):
        out = decode(code, "C", np.zeros(code.M, dtype=np.int64), 0.01)
        assert out.ok and out.iterations == 0
        assert not out.estimate.any()

    def test_single_symbol_errors_sample(self, code):
        dec = SyndromeDecoder(code, "C")
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(0, code.N))
            v = int(rng.integers(1, 16))
            err = np.zeros(code.N, dtype=np.int64)
            err[n] = v
            out = dec.decode(syndrome_of(code, "C", err), 0.01)
            assert out.ok
            assert np.array_equal(out.estimate, err)

    def test_success_implies_syndrome_match(self, code):
        dec = SyndromeDecoder(code, "D")
        rng = np.random.default_rng(6)
        config = DecoderConfig(max_iter=1)
        saw_fail = False
        for _ in range(60):
            err = np.zeros(code.N, dtype=np.int64)
            pos = rng.choice(code.N, size=EX1.L + 1, replace=False)
            err[pos] = rng.integers(1, 16, size=EX1.L + 1)
            s = syndrome_of(code, "D", err)
            out = dec.decode(s, 0.2, config)
            matches = np.array_equal(dec.syndrome_of_symbols(out.estimate), s)
            assert out.ok == matches
            saw_fail |= not out.ok
        assert saw_fail

    def test_decoder_syndrome_map_agrees_with_channel(self, code):
        rng = np.random.default_rng(7)
        for role in ("C", "D"):
            dec = SyndromeDecoder(code, role)
            for _ in range(20):
                err = rng.integers(0, 16, size=code.N)
                assert np.array_equal(dec.syndrome_of_symbols(err),
                                      syndrome_of(code, role, err))

    def test_deterministic(self, code):
        err = np.zeros(code.N, dtype=np.int64)
        err[[3, 17, 30]] = [5, 9, 12]
        s = syndrome_of(code, "C", err)
        a = decode(code, "C", s, 0.05)
        b = decode(code, "C", s, 0.05)
        assert a.status == b.status and a.iterations == b.iterations
        assert np.array_equal(a.estimate, b.estimate)

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    def test_edge_maps_match_field_tables(self, p, role):
        pair = build_pair(EX1)
        field = make_field(p)
        gamma = lift_gamma(pair, field, np.random.default_rng(4))
        code = expand_pair(gamma, solve_delta(gamma, pair))
        dec = SyndromeDecoder(code, role)
        table = field.mul_index_table if role == "C" else field.transpose_index_table
        _, vals = code.matrix(role).row_grid()
        for m in range(dec.M):
            for k in range(dec.L):
                assert np.array_equal(dec.perm_fwd[m, k], table(int(vals[m, k])))

    def test_syndrome_of_symbols_validates(self, code):
        dec = SyndromeDecoder(code, "C")
        good = np.arange(code.N) % 16
        assert np.array_equal(dec.syndrome_of_symbols(good), syndrome_of(code, "C", good))
        bad = [np.zeros(code.N + 5, dtype=np.int64), np.zeros(code.N - 1, dtype=np.int64),
               np.zeros((1, code.N), dtype=np.int64)]
        for value in (-1, 16, 10 ** 6):
            sym = good.copy()
            sym[7] = value
            bad.append(sym)
        for sym in bad:
            with pytest.raises(DimensionMismatch):
                dec.syndrome_of_symbols(sym)

    def test_dimension_mismatch(self, code):
        with pytest.raises(Exception) as err:
            decode(code, "C", np.zeros(3, dtype=np.int64), 0.01)
        assert "syndrome" in str(err.value)

    def test_config_validation(self, code):
        with pytest.raises(ValueError):
            DecoderConfig(max_iter=0)
        with pytest.raises(TypeError):      # ties always go to the lowest symbol
            DecoderConfig(tie_break="random")
        with pytest.raises(ValueError):
            decode(code, "C", np.zeros(code.M, dtype=np.int64), 0.01,
                   DecoderConfig(pmf_floor=0.5))

    def test_message_normalisation_invariant(self, code):
        # every stored PMF sums to 1 within 1e-9 at the end of an iteration
        dec = SyndromeDecoder(code, "C")
        rng = np.random.default_rng(19)
        err = rng.integers(0, 16, size=code.N)
        s = syndrome_of(code, "C", err)
        out = dec.decode(s, 0.08, DecoderConfig(max_iter=5))
        assert out.iterations >= 1
        for buf in (dec.last_v2c, dec.last_c2v):
            assert buf is not None
            sums = buf.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-9

    def test_buffers_cleared_by_iteration_zero_success(self):
        # the buffers belong to the most recent decode, even one that
        # stops before the first message update
        code = load_pair(DATA / "golden_gf16.gamma.nbqc", DATA / "golden_gf16.delta.nbqc")
        dec = SyndromeDecoder(code, "C")
        err = np.zeros(code.N, dtype=np.int64)
        err[[2, 9, 33]] = [1, 6, 15]
        out = dec.decode(syndrome_of(code, "C", err), 0.05)
        assert out.ok and out.iterations >= 1
        assert dec.last_c2v is not None and dec.last_v2c is not None
        out = dec.decode(np.zeros(code.M, dtype=np.int64), 0.05)
        assert out.ok and out.iterations == 0
        assert dec.last_c2v is None and dec.last_v2c is None

    def test_reuse_across_decodes(self):
        # the decoder's work buffers carry nothing from one decode to the
        # next, and never alias what a decode hands out
        code = load_pair(DATA / "golden_gf16.gamma.nbqc", DATA / "golden_gf16.delta.nbqc")
        dec = SyndromeDecoder(code, "C")
        err_a = np.zeros(code.N, dtype=np.int64)
        err_a[[2, 9, 33]] = [1, 6, 15]
        err_b = np.random.default_rng(4).integers(0, 16, size=code.N)
        runs = []
        for err, f_m in ((err_a, 0.05), (err_b, 0.08), (err_a, 0.05)):
            out = dec.decode(syndrome_of(code, "C", err), f_m, DecoderConfig(max_iter=6))
            assert out.iterations >= 1
            runs.append((out, dec.last_c2v, dec.last_v2c,
                         [a.copy() for a in (out.estimate, dec.last_c2v, dec.last_v2c)]))
        (a1, c2v_a1, v2c_a1, kept_a1), (b, c2v_b, v2c_b, kept_b), (a2, c2v_a2, v2c_a2, _) = runs
        assert a1.status == a2.status and a1.iterations == a2.iterations
        assert np.array_equal(a1.estimate, a2.estimate)
        assert c2v_a1.tobytes() == c2v_a2.tobytes() and v2c_a1.tobytes() == v2c_a2.tobytes()
        assert c2v_b.tobytes() != c2v_a1.tobytes()
        for (out, c2v, v2c, kept) in runs[:2]:
            for now, before in zip((out.estimate, c2v, v2c), kept):
                assert now.tobytes() == before.tobytes()
        held = (a1.estimate, c2v_a1, v2c_a1, b.estimate, c2v_b, v2c_b)
        for i, x in enumerate(held):
            for y in held[i + 1:]:
                assert not np.shares_memory(x, y)

    def test_nonzero_syndrome_never_stops_at_iteration_zero(self, code):
        dec = SyndromeDecoder(code, "C")
        rng = np.random.default_rng(12)
        for _ in range(30):
            s = np.zeros(code.M, dtype=np.int64)
            s[rng.integers(0, code.M)] = rng.integers(1, 16)
            out = dec.decode(s, float(rng.choice([0.0, 0.01, 0.2])), DecoderConfig(max_iter=2))
            assert out.iterations >= 1
            assert dec.last_c2v is not None and dec.last_v2c is not None

    def test_first_iteration_matches_public_ops(self, code):
        # one horizontal step, recomputed edge by edge with the public
        # permute/convolve operations
        dec = SyndromeDecoder(code, "C")
        err = np.zeros(code.N, dtype=np.int64)
        err[[2, 9, 33]] = [1, 6, 15]
        s = syndrome_of(code, "C", err)
        f_m = 0.05
        out = dec.decode(s, f_m, DecoderConfig(max_iter=1, pmf_floor=0.0))
        assert dec.last_c2v is not None
        p0 = init_pmf(f_m, 4)
        field = code.field
        for m in (0, 5, 11):
            row = code.gamma.rows[m]
            ptil = [permute_pmf(p0, field.companion(field.inv(v))) for _, v in row]
            for k, (_, v) in enumerate(row):
                others = [ptil[j] for j in range(len(row)) if j != k]
                qtil = wht_convolve(others, shift=int(s[m]))
                expect = permute_pmf(qtil, field.companion(v))
                expect /= expect.sum()
                assert np.allclose(dec.last_c2v[m, k], expect, atol=1e-12)

    def test_css_wiring(self, code):
        # X-only error: D sees a zero syndrome, C decodes the error
        err = np.zeros(code.N, dtype=np.int64)
        err[[5, 22]] = [7, 2]
        s_c = syndrome_of(code, "C", err)
        s_d = np.zeros(code.M, dtype=np.int64)
        out_c, out_d = decode_css(code, (s_c, s_d), 0.01)
        assert out_d.ok and out_d.iterations == 0 and not out_d.estimate.any()
        assert out_c.ok and np.array_equal(out_c.estimate, err)


@functools.lru_cache(maxsize=None)
def ex1_code(p):
    pair = build_pair(EX1)
    gamma = lift_gamma(pair, make_field(p), np.random.default_rng(2))
    return expand_pair(gamma, solve_delta(gamma, pair))


def decode_record(dec, syndrome, f_m, config):
    """Outcome, op_count increment and message bytes of one decode, or its error."""
    before = dec.op_count
    try:
        out = dec.decode(syndrome, f_m, config)
    except NonFiniteMessage as exc:
        return ("raised", str(exc), dec.op_count - before)
    return (out.status, out.estimate.tobytes(), out.iterations, dec.op_count - before,
            *(b"-" if buf is None else buf.tobytes() for buf in (dec.last_c2v, dec.last_v2c)))


class TestFirstIterationLookup:
    """Iteration 1's check messages come from a per-f_m table translated by
    the syndrome; they must equal the plain first check pass bit for bit."""

    @staticmethod
    def plain_decoder(code, role):
        # the same decoder with its lookup replaced by the oracle's plain pass
        dec = SyndromeDecoder(code, role)
        dec._first_check_messages = (
            lambda p0, syndrome, out: np.copyto(out, first_check_pass(dec, syndrome, p0)))
        return dec

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    @pytest.mark.parametrize("pmf_floor", [0.0, 1e-300])
    def test_matches_plain_first_pass(self, p, role, pmf_floor):
        code = ex1_code(p)
        q = code.field.q
        rng = np.random.default_rng(p)
        lookup, plain = SyndromeDecoder(code, role), self.plain_decoder(code, role)
        outcomes = set()
        for f_m in (0.0, 0.01, 0.2, 0.49):
            for max_iter in (1, 3):
                config = DecoderConfig(max_iter=max_iter, pmf_floor=pmf_floor)
                # random syndromes with zero checks, and syndromes of sparse errors
                err = np.zeros(code.N, dtype=np.int64)
                err[rng.choice(code.N, 2, replace=False)] = rng.integers(1, q, size=2)
                syndromes = [rng.integers(0, q, size=code.M) * (rng.random(code.M) < 0.7)
                             for _ in range(2)]
                syndromes += [syndrome_of(code, role, err), syndrome_of(code, role, err[::-1])]
                for s in syndromes:
                    got = decode_record(lookup, s, f_m, config)
                    assert got == decode_record(plain, s, f_m, config)
                    outcomes.add(got[0])
        assert outcomes >= {"success", "fail"}

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    def test_zero_prior_raises_without_warning(self, p, role):
        # at f_m 0.0 without a floor, a nonzero syndrome leaves rows of
        # zeros; the decoder raises before it would divide 0 by 0
        code = ex1_code(p)
        dec = SyndromeDecoder(code, role)
        syndrome = np.zeros(code.M, dtype=np.int64)
        syndrome[0] = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteMessage, match="at iteration 1$"):
                dec.decode(syndrome, 0.0, DecoderConfig(pmf_floor=0.0))

    def test_cache_follows_f_m(self):
        code = ex1_code(4)
        rng = np.random.default_rng(5)
        syndromes = [rng.integers(0, 16, size=code.M) for _ in range(3)]
        shared = SyndromeDecoder(code, "C")
        config = DecoderConfig(max_iter=3)
        for f_m in (0.03, 0.05, 0.03):
            for s in syndromes:
                fresh = SyndromeDecoder(code, "C")
                assert (decode_record(shared, s, f_m, config)
                        == decode_record(fresh, s, f_m, config))
            for bad in (0.5, -0.01):
                with pytest.raises(ValueError):
                    shared.decode(syndromes[0], bad, config)
        fresh = SyndromeDecoder(code, "C")
        assert (decode_record(shared, syndromes[1], 0.05, config)
                == decode_record(fresh, syndromes[1], 0.05, config))


class TestBinaryEquivalence:
    """At q=2 the machinery degenerates to classical binary syndrome BP."""

    def test_check_node_update_matches_tanh_rule(self):
        # for binary messages, convolution with a parity constraint gives
        # p(even) - p(odd) products: 1 - 2*out[1] = prod(1 - 2*in[1])
        rng = np.random.default_rng(9)
        for _ in range(50):
            msgs = [random_pmf(rng, 2) for _ in range(3)]
            s = int(rng.integers(0, 2))
            out = wht_convolve(msgs, shift=s)
            prod = np.prod([1 - 2 * m[1] for m in msgs])
            expect_delta = prod if s == 0 else -prod
            assert 1 - 2 * out[1] == pytest.approx(expect_delta, abs=1e-12)

    def test_three_variable_toy_code_marginals(self):
        # H = [[1,1,0],[0,1,1]] over GF(2); syndrome (1, 0); f = 0.2.
        # Hand-computed one-iteration sum-product marginals.
        f = 0.2
        prior = np.array([1 - f, f])
        # check 0 couples vars 0,1 (syndrome 1); check 1 couples vars 1,2 (syndrome 0)
        q_c0_to_v0 = wht_convolve([prior], shift=1)          # flip belief of v1
        q_c0_to_v1 = wht_convolve([prior], shift=1)
        q_c1_to_v1 = wht_convolve([prior], shift=0)
        q_c1_to_v2 = wht_convolve([prior], shift=0)
        m0 = prior * q_c0_to_v0
        m1 = prior * q_c0_to_v1 * q_c1_to_v1
        m2 = prior * q_c1_to_v2
        m0 /= m0.sum()
        m1 /= m1.sum()
        m2 /= m2.sum()
        # v0: prior x flipped prior -> posterior odds f(1-f) : f(1-f) = 1:1
        assert m0[1] == pytest.approx(0.5)
        # v1: prior * flipped * straight
        expect1 = np.array([(1 - f) * f * (1 - f), f * (1 - f) * f])
        expect1 /= expect1.sum()
        assert np.allclose(m1, expect1)
        # v2: prior * straight
        expect2 = np.array([(1 - f) ** 2, f ** 2])
        expect2 /= expect2.sum()
        assert np.allclose(m2, expect2)


class TestComplexityScaling:
    def test_horizontal_ops_scale_as_q_log_q(self):
        # fixed N = 42, q in {16, 64, 256}
        pair = build_pair(EX1)
        ratios = []
        for p in (4, 6, 8):
            field = make_field(p)
            gamma = lift_gamma(pair, field, np.random.default_rng(2))
            code = expand_pair(gamma, solve_delta(gamma, pair))
            dec = SyndromeDecoder(code, "C")
            rng = np.random.default_rng(3)
            err = rng.integers(0, field.q, size=code.N)
            s = syndrome_of(code, "C", err)
            dec.decode(s, 0.01, DecoderConfig(max_iter=1))
            q = field.q
            ratios.append(dec.op_count / (q * np.log2(q)))
        c = np.mean(ratios)
        assert np.abs(np.array(ratios) / c - 1).max() < 0.25


def decode_digest(code, trials=6):
    """SHA-256 over estimate, iterations and both message buffers per trial."""
    h = hashlib.sha256()
    for role in ("C", "D"):
        dec = SyndromeDecoder(code, role)
        for f_m in (0.03, 0.05):
            params = ChannelParams(f_m)
            for t in range(trials):
                x_err, z_err = sample_error(code.N, code.field.p, params, trial_rng(11, t))
                err = x_err if role == "C" else z_err
                out = dec.decode(syndrome_of(code, role, err), f_m)
                h.update(np.asarray(out.estimate, dtype=np.int64).tobytes())
                h.update(out.iterations.to_bytes(4, "little"))
                for buf in (dec.last_c2v, dec.last_v2c):
                    h.update(b"-" if buf is None else np.ascontiguousarray(buf).tobytes())
    return h.hexdigest()


def floor_zero_digest(p, role):
    """SHA-256 over `decode_record` at pmf_floor 0 and f_m 0.0 and 0.02.

    The syndromes are those of four f_m 0.02 errors and two uniform ones.
    Without a floor, exact zeros reach the normalisation, and at f_m 0.0
    every nonzero syndrome raises.
    """
    code = ex1_code(p)
    dec = SyndromeDecoder(code, role)
    config = DecoderConfig(pmf_floor=0.0)
    rng = np.random.default_rng(p)
    syndromes = []
    for t in range(4):
        x_err, z_err = sample_error(code.N, p, ChannelParams(0.02), trial_rng(13, t))
        syndromes.append(syndrome_of(code, role, x_err if role == "C" else z_err))
    syndromes += [rng.integers(0, code.field.q, size=code.M) for _ in range(2)]
    h = hashlib.sha256()
    for f_m in (0.0, 0.02):
        for s in syndromes:
            for item in decode_record(dec, s, f_m, config):
                h.update(item if isinstance(item, bytes) else repr(item).encode())
    return h.hexdigest()


class TestBitIdentity:
    """Decoder outputs, float message bytes included, pinned to recorded digests.

    The digests were recorded with the plain per-edge formulation (one
    take_along_axis gather per side, concatenating transform, cumprod
    exclusive products).  A kernel that reorders floating-point
    operations changes them even when every decision survives; see the
    decoder module docstring for why decisions must be reproducible.
    """

    def test_golden_gf16_pair(self):
        code = load_pair(DATA / "golden_gf16.gamma.nbqc", DATA / "golden_gf16.delta.nbqc")
        assert decode_digest(code) == (
            "037eca32bf1fd841a98ebe667e7b71e31657ba15465f5aa494235beaa1d5af7e")

    def test_small_gf256_code(self):
        pair = build_pair(EX1)
        gamma = lift_gamma(pair, make_field(8), np.random.default_rng(2))
        code = expand_pair(gamma, solve_delta(gamma, pair))
        assert decode_digest(code) == (
            "3ef0dda44ffc3b34eee4c84446fbe815aa5fdfb7ae012c514d5155494895239c")

    @pytest.mark.parametrize("p, role, digest", [
        (2, "C",
         "34f1354fc6170e6ebddefc48a433d721566748e50481fd80333be100810ad4a7"),
        (2, "D",
         "633acda4b3089c1803119f02d83fca781500c47d4d71f061e2c4962561ed813c"),
        (4, "C",
         "b45a5f63dc0fb2f7916d80f0f86edd34bb09346bc142d80773cb32808b15db14"),
        (4, "D",
         "9f4365d04976bbfff9a0cd6ce187fb265aec897e43cfc0b060aae0f0844ef6b7"),
        (8, "C",
         "5c8fd623ea4eee9941a32d39f117f348dc49744bbbe0af8b13aea97550fcdb1b"),
        (8, "D",
         "cb9606e360f8a6322a5b9423c1be011b56adfdd69a69ad1197c6b60d185a46c7"),
    ])
    def test_without_floor(self, p, role, digest):
        # pmf_floor 0 lets the sign of an exact zero reach the stored
        # messages unless the clamps at 0 remove it
        assert floor_zero_digest(p, role) == digest
