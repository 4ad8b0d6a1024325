"""Decoder tests.

Oracles: the O(q^2) double-sum convolution, the plain concatenating
butterfly transform (`oracles.concat_walsh_hadamard`, against which the
library's transform runs on decoder-shaped buffers), the field's
per-value index tables, the per-edge decode whose check passes are
seeded with the syndrome's character, hand-computed binary sum-product
identities at q=2, and exhaustive single-symbol maximum likelihood
decoding (enumerable because candidates are N*(q-1) vectors).  Decoder
outputs are also pinned bit for bit by a digest.
"""

import functools
import hashlib
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbqc.binexpand import expand_pair, load_pair
from nbqc.channel import ChannelParams, sample_error, syndrome_of
from nbqc.decoder import (DecoderConfig, NonFiniteMessage, SyndromeDecoder, _carve, _row_sums,
                          _symbol_weights, _wht_views, init_pmf, walsh_hadamard)
from nbqc.gf2p import make_field
from nbqc.nblift import DimensionMismatch, _symbol_vector, lift
from nbqc.qcpair import QCParams, build_pair
from oracles import (LengthMismatch, SingularMap, companion, concat_walsh_hadamard,
                     decoder_messages, field_inv, mul_index_table, permute_pmf,
                     reference_decode, rows_of, transpose_index_table, trial_stream,
                     wht_convolve)

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def code():
    # lift draw with no light binary codewords (single-symbol recovery exact)
    pair = build_pair(EX1)
    field = make_field(4)
    return expand_pair(*lift(pair, field, np.random.default_rng(26), reject_trivial=True))


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


def decoder_wht(x):
    """`walsh_hadamard` along the last axis of `x`, run as the decoder
    runs it: on a copy of `x` in the symbol-major (q, rows) buffers that
    `_carve` and `_wht_views` build."""
    q = x.shape[-1]
    rows = x.size // q
    work = _wht_views(*_carve(((q, rows), np.float64), ((q, rows), np.float64)))
    np.copyto(work.x, x.reshape(rows, q).T)
    return walsh_hadamard(work.x, work).T.reshape(x.shape)


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

    @pytest.mark.parametrize("p", range(1, 17))
    def test_symbol_weights_are_popcounts(self, p):
        w = _symbol_weights(p)
        assert w.dtype == np.int64
        assert w.tolist() == [bin(s).count("1") for s in range(1 << p)]


class TestWalshHadamard:
    def test_twice_is_q_identity(self):
        rng = np.random.default_rng(3)
        for q in (4, 16, 64):
            v = rng.random(q)
            assert np.allclose(decoder_wht(decoder_wht(v)) / q, v)

    @pytest.mark.parametrize("q", [2, 4, 16, 256])
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
        with np.errstate(invalid="ignore"):      # inf - inf in "nonfinite"
            want = concat_walsh_hadamard(x)
            got = decoder_wht(x)
        assert got.shape == shape and got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)
        # an exact zero may differ in sign only, which the decoder's clamp
        # at 0 removes
        if np.isfinite(x).all():
            assert np.maximum(got, 0.0).tobytes() == np.maximum(want, 0.0).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(q=st.sampled_from([2, 4, 16, 256]), lead=st.sampled_from([(), (1,), (3,), (2, 5)]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_character_translates_transform(self, q, lead, seed, data):
        # WHT(chi_a * x)[u] == WHT(x)[u ^ a], bit for bit up to the sign of
        # an exact zero, which np.array_equal does not see
        a = data.draw(st.integers(0, q - 1))
        rng = np.random.default_rng(seed)
        shape = (*lead, q)
        scale = rng.choice([0.0, 1e-300, 1.0, 1e10], size=shape)
        x = scale * rng.uniform(-1.0, 1.0, size=shape)
        idx = np.arange(q)
        chi = 1.0 - 2.0 * (np.bitwise_count(idx & a) & 1)
        assert np.array_equal(decoder_wht(chi * x), decoder_wht(x)[..., idx ^ a])

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    def test_calls_match_the_benchmark_tracer(self, p, role, monkeypatch):
        # the benchmark's tracer wraps nbqc.decoder.walsh_hadamard, counts
        # its calls (decoder.wht_calls) and sums the sizes of their first
        # arguments (decoder.wht_elems): two calls of q*M*L entries per
        # iteration, except iteration 1 at an f_m the decoder has iterated
        # at before, and none for a zero syndrome
        real, sizes = walsh_hadamard, []

        def recorder(x, work):
            assert x is work.x
            sizes.append(x.size)
            return real(x, work)

        dec = SyndromeDecoder(ex1_code(p), role)
        monkeypatch.setattr("nbqc.decoder.walsh_hadamard", recorder)
        assert dec.decode(np.zeros(dec.M, dtype=np.int64), 0.05).iterations == 0
        assert sizes == []
        rng = np.random.default_rng(p)
        for k in range(1, 9):
            for cached in (False, True):
                sizes.clear()
                out = dec.decode(rng.integers(1, dec.q, dec.M), 0.01 * k,
                                 DecoderConfig(max_iter=k))
                assert out.iterations >= 1
                assert sizes == [dec.q * dec.M * dec.L] * (2 * (out.iterations - cached))


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
            fwd = permute_pmf(msg, companion(field, x))
            back = permute_pmf(fwd, companion(field, field_inv(field, x)))
            assert np.allclose(back, msg)

    def test_matches_index_table(self):
        field = make_field(4)
        rng = np.random.default_rng(2)
        msg = random_pmf(rng, 16)
        for x in range(1, 16):
            via_matrix = permute_pmf(msg, companion(field, x))
            assert np.allclose(via_matrix, msg[mul_index_table(field, x)])

    @given(seed=st.integers(0, 10 ** 6), x=st.integers(1, 15))
    @settings(max_examples=30)
    def test_mass_preserved(self, seed, x):
        field = make_field(4)
        msg = random_pmf(np.random.default_rng(seed), 16)
        out = permute_pmf(msg, companion(field, x))
        assert out.sum() == pytest.approx(msg.sum())

    def test_singular_map_rejected(self):
        with pytest.raises(SingularMap):
            permute_pmf(np.full(4, 0.25), np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(SingularMap):
            permute_pmf(np.full(4, 0.25), np.ones((2, 2), dtype=np.int64))


class TestDecode:
    def test_zero_syndrome_success_at_iteration_zero(self, code):
        out = SyndromeDecoder(code, "C").decode(np.zeros(code.M, dtype=np.int64), 0.01)
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

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_decoder_syndrome_map_agrees_with_channel(self, p):
        field = make_field(p)
        code = expand_pair(*lift(build_pair(EX1), field, np.random.default_rng(4)))
        rng = np.random.default_rng(7)
        for role in ("C", "D"):
            dec = SyndromeDecoder(code, role)
            for _ in range(20):
                err = rng.integers(0, field.q, size=code.N)
                assert np.array_equal(dec.syndrome_of_symbols(err),
                                      syndrome_of(code, role, err))

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_syndromes_are_int64_vectors(self, p):
        # decode compares each tentative syndrome with the given one by
        # their bytes, so both must be int64 vectors of M symbols
        code = ex1_code(p)
        rng = np.random.default_rng(8)
        for role in ("C", "D"):
            dec = SyndromeDecoder(code, role)
            for dtype in (np.int64, np.int32, np.uint16):
                err = rng.integers(0, code.field.q, size=code.N).astype(dtype)
                given = _symbol_vector(syndrome_of(code, role, err).astype(dtype), code.M,
                                       code.field.q, "syndrome")
                for syn in (dec.syndrome_of_symbols(err), dec._syndrome(err.astype(np.int64)),
                            given):
                    assert syn.dtype == np.int64 and syn.shape == (code.M,)
                    assert syn.flags.c_contiguous
                    assert syn.tobytes() == syndrome_of(code, role, err).tobytes()
            # strided syndromes, int64 or of another integer type, decode alike
            err = np.zeros(code.N, dtype=np.int64)
            err[[3, 17]] = [1, code.field.q - 1]
            s = syndrome_of(code, role, err)
            config = DecoderConfig(max_iter=6)
            for strided in (np.repeat(s, 2)[::2], np.repeat(s.astype(np.int32), 2)[::2]):
                assert decode_record(dec, strided, 0.05, config)[:3] == (
                    decode_record(dec, s, 0.05, config)[:3])

    def test_deterministic(self, code):
        err = np.zeros(code.N, dtype=np.int64)
        err[[3, 17, 30]] = [5, 9, 12]
        s = syndrome_of(code, "C", err)
        a = SyndromeDecoder(code, "C").decode(s, 0.05)
        b = SyndromeDecoder(code, "C").decode(s, 0.05)
        assert a.status == b.status and a.iterations == b.iterations
        assert np.array_equal(a.estimate, b.estimate)

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    def test_edge_maps_match_field_tables(self, p, role):
        pair = build_pair(EX1)
        field = make_field(p)
        code = expand_pair(*lift(pair, field, np.random.default_rng(4)))
        dec = SyndromeDecoder(code, role)
        table = mul_index_table if role == "C" else transpose_index_table
        _, logs = code.matrix(role).row_grid()
        # the maps are held once, in slot order: every edge in exactly one slot
        edges = dec._edges_from.reshape(-1)
        assert np.array_equal(np.sort(edges), np.arange(dec.M * dec.L))
        maps = np.empty((dec.M * dec.L, field.q), dtype=np.int64)
        maps[edges] = dec._fwd_from.reshape(-1, field.q)
        # the syndrome's row offsets point at each edge's own map
        by_offset = dec._fwd_from.reshape(-1)[dec._syndrome_at[..., None] + np.arange(field.q)]
        for m in range(dec.M):
            for k in range(dec.L):
                want = table(field, int(field.exp_table[logs[m, k]]))
                assert np.array_equal(maps[m * dec.L + k], want)
                assert np.array_equal(by_offset[m, k], want)

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

    @pytest.mark.parametrize("convert", [
        lambda v: v + 0.7, lambda v: v.astype(np.float64), lambda v: v + 0j,
        lambda v: v.astype(object), lambda v: v.astype(bool)],
        ids=["float", "integral-float", "complex", "object", "bool"])
    def test_non_integer_symbols_refused(self, code, convert):
        # every entry point refuses, rather than casts, a vector that is not
        # integer-typed; a bool vector is a mask, not symbols
        dec = SyndromeDecoder(code, "C")
        err = np.zeros(code.N, dtype=np.int64)
        err[[3, 20]] = 1, 5
        syn = dec.syndrome_of_symbols(err)
        assert syn.any()
        for call, vec in ((lambda v: dec.decode(v, 0.02), syn),
                          (dec.syndrome_of_symbols, err),
                          (lambda v: syndrome_of(code, "C", v), err)):
            with pytest.raises(DimensionMismatch, match="must be integers"):
                call(convert(vec))

    def test_integer_symbol_types_accepted(self, code):
        dec = SyndromeDecoder(code, "C")
        err = np.zeros(code.N, dtype=np.int64)
        err[[3, 20]] = 1, 5
        syn = dec.syndrome_of_symbols(err)
        want = dec.decode(syn, 0.02)
        for convert in (list, lambda v: v.astype(np.uint8), lambda v: v.astype(np.int32)):
            assert np.array_equal(dec.syndrome_of_symbols(convert(err)), syn)
            assert np.array_equal(syndrome_of(code, "C", convert(err)), syn)
            got = dec.decode(convert(syn), 0.02)
            assert (got.status, got.iterations) == (want.status, want.iterations)
            assert np.array_equal(got.estimate, want.estimate)

    def test_dimension_mismatch(self, code):
        with pytest.raises(Exception) as err:
            SyndromeDecoder(code, "C").decode(np.zeros(3, dtype=np.int64), 0.01)
        assert "syndrome" in str(err.value)

    def test_bad_role(self, code):
        with pytest.raises(ValueError, match="role must be 'C' or 'D', got 'E'"):
            SyndromeDecoder(code, "E")

    def test_config_validation(self, code):
        with pytest.raises(ValueError):
            DecoderConfig(max_iter=0)
        with pytest.raises(TypeError):      # ties always go to the lowest symbol
            DecoderConfig(tie_break="random")
        with pytest.raises(TypeError):      # the floor is fixed
            DecoderConfig(pmf_floor=0.0)

    def test_message_normalisation_invariant(self, code):
        # every stored PMF sums to 1 within 1e-9 at the end of an iteration
        dec = SyndromeDecoder(code, "C")
        rng = np.random.default_rng(19)
        err = rng.integers(0, 16, size=code.N)
        s = syndrome_of(code, "C", err)
        out = dec.decode(s, 0.08, DecoderConfig(max_iter=5))
        assert out.iterations >= 1
        for buf in decoder_messages(dec, out):
            sums = buf.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-9

    def test_buffers_cleared_by_iteration_zero_success(self, monkeypatch):
        # a decode that stops before the first message update passes no
        # messages, even after one that did
        code = load_pair(DATA / "golden_gf16.gamma.nbqc", DATA / "golden_gf16.delta.nbqc")
        dec = SyndromeDecoder(code, "C")
        err = np.zeros(code.N, dtype=np.int64)
        err[[2, 9, 33]] = [1, 6, 15]
        out = dec.decode(syndrome_of(code, "C", err), 0.05)
        assert out.ok and out.iterations >= 1
        assert decoder_messages(dec, out) is not None
        out = dec.decode(np.zeros(code.M, dtype=np.int64), 0.05)
        assert out.ok and out.iterations == 0
        assert decoder_messages(dec, out) is None
        # without a floor, a decode at f_m 0.0 raises after one that did not
        dec.decode(syndrome_of(code, "C", err), 0.05)
        monkeypatch.setattr("nbqc.decoder._PMF_FLOOR", 0.0)
        with pytest.raises(NonFiniteMessage):
            dec.decode(syndrome_of(code, "C", err), 0.0)

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
            c2v, v2c = decoder_messages(dec, out)
            runs.append((out, c2v, v2c, [a.copy() for a in (out.estimate, c2v, v2c)]))
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

    def test_message_views_are_fresh(self):
        # the messages read out of a decoder are copies; writing into one
        # changes neither the next read nor the decoder
        code = load_pair(DATA / "golden_gf16.gamma.nbqc", DATA / "golden_gf16.delta.nbqc")
        err = np.zeros(code.N, dtype=np.int64)
        err[[2, 9, 33]] = [1, 6, 15]
        noise = np.random.default_rng(4).integers(0, 16, size=code.N)
        dec = SyndromeDecoder(code, "C")
        for e, f_m, status in ((err, 0.05, "success"), (noise, 0.08, "fail")):
            s = syndrome_of(code, "C", e)
            config = DecoderConfig(max_iter=6)
            out = dec.decode(s, f_m, config)
            assert out.status == status
            for k in range(2):
                first = decoder_messages(dec, out)[k]
                kept = first.copy()
                first[...] = -1.0
                again = decoder_messages(dec, out)[k]
                assert again is not first and not np.shares_memory(again, first)
                assert again.tobytes() == kept.tobytes()
            assert (decode_record(dec, s, f_m, config)
                    == decode_record(SyndromeDecoder(code, "C"), s, f_m, config))

    def test_iterating_decodes_allocate_no_message_arrays(self):
        # the messages live in decoder-owned buffers: 20 iterating decodes
        # at GF(256) n=336 peak below one (M, L, q) float64 array
        code = ex1_code(8)
        dec = SyndromeDecoder(code, "C")
        f_m, syndromes = 0.04, []
        for t in range(100):
            err = sample_error(code.N, 8, ChannelParams(f_m), trial_stream(5, t))[0]
            if err.any():
                syndromes.append(syndrome_of(code, "C", err))
        syndromes = syndromes[:20]
        assert len(syndromes) == 20
        dec.decode(syndromes[0], f_m)       # builds iteration 1's table for this f_m
        outcomes = []
        tracemalloc.start()
        try:
            for s in syndromes:
                outcomes.append(dec.decode(s, f_m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(out.iterations >= 1 for out in outcomes)
        assert peak < dec.M * dec.L * dec.q * 8, peak

    def test_nonzero_syndrome_never_stops_at_iteration_zero(self, code):
        dec = SyndromeDecoder(code, "C")
        rng = np.random.default_rng(12)
        for _ in range(30):
            s = np.zeros(code.M, dtype=np.int64)
            s[rng.integers(0, code.M)] = rng.integers(1, 16)
            out = dec.decode(s, float(rng.choice([0.0, 0.01, 0.2])), DecoderConfig(max_iter=2))
            assert out.iterations >= 1

    def test_first_iteration_matches_public_ops(self, code, monkeypatch):
        # one horizontal step, recomputed edge by edge with the public
        # permute/convolve operations
        dec = SyndromeDecoder(code, "C")
        err = np.zeros(code.N, dtype=np.int64)
        err[[2, 9, 33]] = [1, 6, 15]
        s = syndrome_of(code, "C", err)
        f_m = 0.05
        monkeypatch.setattr("nbqc.decoder._PMF_FLOOR", 0.0)
        c2v, _ = decoder_messages(dec, dec.decode(s, f_m, DecoderConfig(max_iter=1)))
        p0 = init_pmf(f_m, 4)
        field = code.field
        for m in (0, 5, 11):
            row = rows_of(code.gamma)[m]
            ptil = [permute_pmf(p0, companion(field, field_inv(field, v))) for _, v in row]
            for k, (_, v) in enumerate(row):
                others = [ptil[j] for j in range(len(row)) if j != k]
                qtil = wht_convolve(others, shift=int(s[m]))
                expect = permute_pmf(qtil, companion(field, v))
                expect /= expect.sum()
                assert np.allclose(c2v[m, k], expect, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_work_buffers_start_on_64_byte_boundaries(self, p):
        # the kernels ran about 10% slower at GF(256) on buffers that
        # malloc placed 16, 32 or 48 bytes past a boundary
        dec = SyndromeDecoder(ex1_code(p), "D")
        dec.decode(np.ones(dec.M, dtype=np.int64), 0.05, DecoderConfig(max_iter=2))
        bufs = [getattr(dec, name) for name in (
            "_gather_in", "_fwd_from", "_t_in", "_t_out", "_pref", "_suff", "_from", "_to",
            "_belief", "_at", "_prior_tile", "_prior_out")]
        for buf in bufs:
            assert buf.ctypes.data % 64 == 0

    def test_css_wiring(self, code):
        # X-only error: D sees a zero syndrome, C decodes the error
        err = np.zeros(code.N, dtype=np.int64)
        err[[5, 22]] = [7, 2]
        s_c = syndrome_of(code, "C", err)
        s_d = np.zeros(code.M, dtype=np.int64)
        out_c = SyndromeDecoder(code, "C").decode(s_c, 0.01)
        out_d = SyndromeDecoder(code, "D").decode(s_d, 0.01)
        assert out_d.ok and out_d.iterations == 0 and not out_d.estimate.any()
        assert out_c.ok and np.array_equal(out_c.estimate, err)


@functools.lru_cache(maxsize=None)
def ex1_code(p):
    pair = build_pair(EX1)
    return expand_pair(*lift(pair, make_field(p), np.random.default_rng(2)))


def decode_record(dec, syndrome, f_m, config):
    """Outcome, op_count increment and message bytes of one decode, or its error."""
    before = dec.op_count
    try:
        out = dec.decode(syndrome, f_m, config)
    except NonFiniteMessage as exc:
        return ("raised", str(exc), dec.op_count - before)
    msgs = decoder_messages(dec, out)
    return (out.status, out.estimate.tobytes(), out.iterations, dec.op_count - before,
            *((b"-", b"-") if msgs is None else (buf.tobytes() for buf in msgs)))


class TestFirstIterationLookup:
    """Every iteration's check messages come from a check pass that never
    sees the syndrome, gathered through indices translated by it, and
    iteration 1's pass is the one kept for the prior; decoding must equal
    the per-edge decode whose every check pass is seeded with the
    syndrome's character, bit for bit."""

    @staticmethod
    def reference_record(dec, syndrome, f_m, config, floor, ops):
        """`decode_record` of `oracles.reference_decode`; `ops` is the
        op_count of one iteration, which every iteration adds."""
        try:
            status, estimate, its, c2v, v2c = reference_decode(dec, syndrome, f_m,
                                                               config.max_iter, floor)
        except NonFiniteMessage as exc:
            return ("raised", str(exc), int(str(exc).rsplit(" ", 1)[1]) * ops)
        return (status, estimate.tobytes(), its, its * ops,
                *((b"-", b"-") if c2v is None else (c2v.tobytes(), v2c.tobytes())))

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    @pytest.mark.parametrize("floor", [0.0, 1e-300])
    def test_matches_plain_first_pass(self, p, role, floor, monkeypatch):
        code = ex1_code(p)
        q = code.field.q
        rng = np.random.default_rng(p)
        dec = SyndromeDecoder(code, role)
        ops = dec._ops_per_iteration
        monkeypatch.setattr("nbqc.decoder._PMF_FLOOR", floor)
        outcomes = set()
        # at p = 8 and f_m 1e-40 the prior's smallest masses are subnormal
        for f_m in (0.0, 1e-40, 1e-12, 0.01, 0.2, 0.49):
            for max_iter in (1, 3):
                # random syndromes with zero checks, and syndromes of sparse errors
                err = np.zeros(code.N, dtype=np.int64)
                err[rng.choice(code.N, 2, replace=False)] = rng.integers(1, q, size=2)
                syndromes = [rng.integers(0, q, size=code.M) * (rng.random(code.M) < 0.7)
                             for _ in range(2)]
                syndromes += [syndrome_of(code, role, err), syndrome_of(code, role, err[::-1])]
                for s in syndromes:
                    # a decode capped at k stops after iteration k, so the
                    # messages of every iteration up to max_iter are compared
                    for k in range(1, max_iter + 1):
                        config = DecoderConfig(max_iter=k)
                        got = decode_record(dec, s, f_m, config)
                        assert got == self.reference_record(dec, s, f_m, config, floor, ops)
                        outcomes.add(got[0])
        assert outcomes >= {"success", "fail"}

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    def test_zero_prior_raises_without_warning(self, p, role, monkeypatch):
        # at f_m 0.0 without a floor, a nonzero syndrome leaves rows of
        # zeros; the decoder raises before it would divide 0 by 0
        code = ex1_code(p)
        dec = SyndromeDecoder(code, role)
        syndrome = np.zeros(code.M, dtype=np.int64)
        syndrome[0] = 1
        monkeypatch.setattr("nbqc.decoder._PMF_FLOOR", 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteMessage, match="at iteration 1$"):
                dec.decode(syndrome, 0.0)

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


class TestRowSums:
    """The normalising sums are refused unless all are positive: one
    minimum, which NaN propagates through.  No sum can be infinite
    (`_row_sums` docstring), and the decodes below stay within the bound
    that argument gives."""

    @pytest.mark.parametrize("rows", [
        [[0.0, 0.0], [0.5, 0.5]],                                 # a zero sum
        [[0.5, 0.5], [np.nan, 1.0]],                              # a NaN sum
        [[1.0, 2.0], [0.5, 0.5], [3.0, np.nan]],                  # NaN after positive sums
        [[np.nan, 0.0], [0.25, 0.5], [0.0, 0.0], [1.0, 2.0]],     # NaN and zero
    ])
    def test_zero_or_nan_sums_raise_without_warning(self, rows):
        msgs = np.repeat(np.array(rows)[None], 2, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteMessage,
                               match="^check messages non-finite at iteration 7$"):
                _row_sums(msgs, "check", 7)

    def test_positive_sums_returned_unchanged(self):
        msgs = np.random.default_rng(3).random((2, 42, 16))
        msgs[1, 5] = 0.0
        msgs[1, 5, 3] = 5e-324                  # a subnormal sum is positive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = _row_sums(msgs, "variable", 1)
        assert sums.shape == (2, 42, 1)
        assert sums.tobytes() == np.add.reduce(msgs, axis=-1, keepdims=True).tobytes()

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("role", ["C", "D"])
    @pytest.mark.parametrize("floor", [0.0, 1e-300])
    def test_sums_stay_within_the_bound(self, p, role, floor, monkeypatch):
        # check-message sums are at most about q, variable-message sums at
        # most about 1, in every iteration of these decodes
        code = ex1_code(p)
        q = code.field.q
        sums = {"check": [], "variable": []}

        def recording(msgs, kind, it):
            got = _row_sums(msgs, kind, it)
            sums[kind].append(got.copy())
            return got

        monkeypatch.setattr("nbqc.decoder._row_sums", recording)
        monkeypatch.setattr("nbqc.decoder._PMF_FLOOR", floor)
        dec = SyndromeDecoder(code, role)
        rng = np.random.default_rng(p)
        err = np.zeros(code.N, dtype=np.int64)
        err[rng.choice(code.N, 3, replace=False)] = rng.integers(1, q, size=3)
        syndromes = [rng.integers(0, q, size=code.M) * (rng.random(code.M) < 0.7)
                     for _ in range(2)] + [syndrome_of(code, role, err)]
        for f_m in (0.0, 1e-40, 1e-12, 0.01, 0.2, 0.49):
            for s in syndromes:
                try:
                    dec.decode(s, f_m, DecoderConfig(max_iter=8))
                except NonFiniteMessage:
                    assert floor == 0.0 and f_m == 0.0
        assert len(sums["check"]) >= 50 and len(sums["variable"]) >= 50
        check, variable = (np.concatenate(sums[kind]) for kind in ("check", "variable"))
        assert np.isfinite(check).all() and check.max() <= q * (1 + 1e-9)
        assert np.isfinite(variable).all() and variable.max() <= 1 + 1e-9


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
            code = expand_pair(*lift(pair, field, np.random.default_rng(2)))
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
                x_err, z_err = sample_error(code.N, code.field.p, params, trial_stream(11, t))
                err = x_err if role == "C" else z_err
                out = dec.decode(syndrome_of(code, role, err), f_m)
                h.update(np.asarray(out.estimate, dtype=np.int64).tobytes())
                h.update(out.iterations.to_bytes(4, "little"))
                for buf in decoder_messages(dec, out) or (None, None):
                    h.update(b"-" if buf is None else np.ascontiguousarray(buf).tobytes())
    return h.hexdigest()


def floor_zero_digest(p, role):
    """SHA-256 over `decode_record` at f_m 0.0 and 0.02, for a caller that
    has set the decoder's floor to 0.

    The syndromes are those of four f_m 0.02 errors and two uniform ones.
    Without a floor, exact zeros reach the normalisation, and at f_m 0.0
    every nonzero syndrome raises.
    """
    code = ex1_code(p)
    dec = SyndromeDecoder(code, role)
    config = DecoderConfig()
    rng = np.random.default_rng(p)
    syndromes = []
    for t in range(4):
        x_err, z_err = sample_error(code.N, p, ChannelParams(0.02), trial_stream(13, t))
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
        code = expand_pair(*lift(pair, make_field(8), np.random.default_rng(2)))
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
    def test_without_floor(self, p, role, digest, monkeypatch):
        # floor 0 lets the sign of an exact zero reach the stored
        # messages unless the clamps at 0 remove it
        monkeypatch.setattr("nbqc.decoder._PMF_FLOOR", 0.0)
        assert floor_zero_digest(p, role) == digest


class TestSignedZeroClamp:
    """The bit-identity argument needs every clamp at 0 to turn an exact
    -0.0 into +0.0: `np.maximum(x, 0.0)` does, while with the operands
    the other way round -0.0 would stay."""

    def test_maximum_with_zero_second(self):
        x = np.tile([-0.0, 0.0, -1.0, 2.0, -0.0, 5e-324, -5e-324], 12)
        for arr in (x, x[::3], x.reshape(12, 7).T):
            got = np.maximum(arr, 0.0)
            assert (got == 0).any() and not np.signbit(got).any()
            np.maximum(arr, 0.0, out=arr)
            assert not np.signbit(arr).any()

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_check_pass_tables_hold_no_negative_zero(self, p, monkeypatch):
        # every inverse transform (the second of each check pass) returns
        # -0.0 in one entry in 5; the tables that the messages are gathered
        # from must hold +0.0 there
        real, calls = walsh_hadamard, []

        def signed_zeros(x, work):
            out = real(x, work)
            calls.append(None)
            if len(calls) % 2 == 0:
                work.y.reshape(-1)[::5] = -0.0
            return out

        code = ex1_code(p)
        dec = SyndromeDecoder(code, "C")
        syndrome = np.zeros(code.M, dtype=np.int64)
        syndrome[[0, 3]] = 1
        monkeypatch.setattr("nbqc.decoder.walsh_hadamard", signed_zeros)
        dec.decode(syndrome, 0.05, DecoderConfig(max_iter=2))
        for table in (dec._prior_out, dec._t_out):
            assert (table == 0).any() and not np.signbit(table).any()
