"""Binary expansion and NBQC format tests.

The dense GF(2) matrix product is the orthogonality oracle.  The
tests/data fixtures are an externally constructed GF(16) pair on the
(2, 6, 7) template, used to cross-validate the reader and every
structural invariant against data this codebase did not generate.
"""

import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import col_supports, nb_from_rows, rows_of
from nbqc.binexpand import (CssCodePair, FieldMismatch, OrthogonalityBroken,
                            ParseError, binary_orthogonal, expand_pair,
                            load_pair, read_matrix, write_matrix)
from nbqc.gf2p import make_field
from nbqc.nblift import NBMatrix, lift, verify_orthogonal
from nbqc.qcpair import QCParams, build_pair, has_4cycle

DATA = Path(__file__).parent / "data"
EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)


@pytest.fixture(scope="module")
def gf16():
    return make_field(4)


@pytest.fixture(scope="module")
def pair():
    return build_pair(EX1)


def make_code(seed=3, p=4) -> CssCodePair:
    pair = build_pair(EX1)
    field = make_field(p)
    rng = np.random.default_rng(seed)
    return expand_pair(*lift(pair, field, rng))


def dense_mod2_product(a, b) -> np.ndarray:
    return a.to_dense().astype(np.int64) @ b.to_dense().astype(np.int64).T % 2


class TestExpandPair:
    def test_dims_and_rates(self):
        code = make_code()
        assert (code.hc.m, code.hc.n) == (56, 168)
        assert (code.hd.m, code.hd.n) == (56, 168)
        assert code.n_qubits == 168
        assert code.rate_c == pytest.approx(2 / 3)
        assert code.rate_q == pytest.approx(1 / 3)
        assert code.rate_q == pytest.approx(2 * code.rate_c - 1)

    def test_binary_orthogonality_dense_oracle(self):
        code = make_code()
        assert not dense_mod2_product(code.hc, code.hd).any()

    def test_all_ones_expansion_is_identity_blocks(self, pair, gf16):
        hc = pair.expand_c()
        hd = pair.expand_d()
        ones_g = NBMatrix(m=14, n=42, role="GAMMA", field=gf16, params=EX1,
                          row=hc.row, col=hc.col, val=np.ones_like(hc.col))
        ones_d = NBMatrix(m=14, n=42, role="DELTA", field=gf16, params=EX1,
                          row=hd.row, col=hd.col, val=np.ones_like(hd.col))
        code = expand_pair(ones_g, ones_d)
        p = 4
        expect = np.kron(hc.to_dense(), np.eye(p, dtype=np.uint8))
        assert np.array_equal(code.hc.to_dense(), expect)
        expect_d = np.kron(hd.to_dense(), np.eye(p, dtype=np.uint8))
        assert np.array_equal(code.hd.to_dense(), expect_d)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_random_lifts_binary_orthogonal(self, p, pair):
        field = make_field(p)
        rng = np.random.default_rng(100 + p)
        code = expand_pair(*lift(pair, field, rng))
        assert not dense_mod2_product(code.hc, code.hd).any()
        assert binary_orthogonal(code.hc, code.hd)

    def test_non_orthogonal_input_rejected(self, pair, gf16):
        rng = np.random.default_rng(9)
        gamma, delta = lift(pair, gf16, rng)
        v0 = int(delta.val[0])      # row 0's first entry
        delta.val[0] = v0 ^ 3 if v0 ^ 3 else 2
        with pytest.raises(ValueError):
            expand_pair(gamma, delta)

    def test_binary_expansion_has_4cycles_symbol_level_does_not(self):
        code = make_code()
        assert not has_4cycle(code.gamma.support())
        assert not has_4cycle(code.delta.support())
        assert has_4cycle(code.hc)
        assert has_4cycle(code.hd)

    def test_sparsity_bounds(self):
        code = make_code()
        p, J, L, P = 4, EX1.J, EX1.L, EX1.P
        assert code.hc.nnz() <= J * L * P * p * p
        col_weights = [len(c) for c in col_supports(code.hc)]
        assert max(col_weights) <= J * p


class TestFormat:
    def test_round_trip(self, tmp_path):
        code = make_code(seed=6)
        path = tmp_path / "g.nbqc"
        write_matrix(code.gamma, path)
        back = read_matrix(path)
        assert rows_of(back) == rows_of(code.gamma)
        assert back.params == EX1
        assert back.role == "GAMMA"

    def test_write_read_write_byte_identical(self):
        rng = np.random.default_rng(17)
        pair = build_pair(EX1)
        for p in (2, 4, 8):
            field = make_field(p)
            for _ in range(34):
                gamma, _ = lift(pair, field, rng)
                buf1 = io.StringIO()
                write_matrix(gamma, buf1)
                back = read_matrix(io.StringIO(buf1.getvalue()))
                buf2 = io.StringIO()
                write_matrix(back, buf2)
                assert buf1.getvalue() == buf2.getvalue()

    def test_single_entry_rendering(self, gf16):
        one = nb_from_rows(1, 1, [[(0, 1)]], "GAMMA", gf16, EX1)
        buf = io.StringIO()
        write_matrix(one, buf)
        assert buf.getvalue().splitlines()[-1] == "r0: 0:0"

    def test_alpha11_renders_as_b(self, gf16):
        alpha11 = gf16.exp(11)
        mat = nb_from_rows(1, 2, [[(1, alpha11)]], "DELTA", gf16, EX1)
        buf = io.StringIO()
        write_matrix(mat, buf)
        assert buf.getvalue().splitlines()[-1] == "r0: 1:b"

    def test_header_line(self, gf16):
        buf = io.StringIO()
        write_matrix(make_code(seed=2).gamma, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "NBQC 1"
        assert lines[1] == "p=4 poly=0x3 J=2 L=6 P=7 sigma=2 tau=3 role=GAMMA"
        assert lines[2] == "M=14 N=42"

    @pytest.mark.parametrize("mangle,line_no", [
        (lambda t: t.replace("NBQC 1", "NBQC 2"), 1),
        (lambda t: t.replace(" role=GAMMA", ""), 2),
        (lambda t: t.replace("M=14 N=42", "M=14"), 3),
        (lambda t: t.replace("r0:", "q0:"), 4),
        (lambda t: t.replace("r3: ", "r3: 40:0 "), 7),
        pytest.param(lambda t: t.replace("M=14 N=42", "M=-1 N=42"), 3, id="negative-M"),
        pytest.param(lambda t: t.replace("M=14 N=42", "M=14 N=-42"), 3, id="negative-N"),
        pytest.param(lambda t: "\n".join(t.splitlines()[:2] + ["M=0 N=-5", ""]), 3,
                     id="negative-N-no-rows"),
    ])
    def test_parse_errors_carry_line_numbers(self, mangle, line_no):
        buf = io.StringIO()
        write_matrix(make_code(seed=2).gamma, buf)
        with pytest.raises(ParseError) as err:
            read_matrix(io.StringIO(mangle(buf.getvalue())))
        assert err.value.line_no == line_no

    def test_columns_must_ascend(self):
        buf = io.StringIO()
        write_matrix(make_code(seed=2).gamma, buf)
        text = buf.getvalue().replace("r0: 1:", "r0: 45:", 1)
        with pytest.raises(ParseError):
            read_matrix(io.StringIO(text))

    def test_field_mismatch(self, gf16):
        buf = io.StringIO()
        write_matrix(make_code(seed=2).gamma, buf)
        with pytest.raises(FieldMismatch):
            read_matrix(io.StringIO(buf.getvalue()), expected_field=make_field(8))
        with pytest.raises(FieldMismatch):
            read_matrix(io.StringIO(buf.getvalue()),
                        expected_field=make_field(4, 0b1001))


class TestGoldenPair:
    """Cross-validation against a pair this codebase did not generate."""

    def test_loads_and_expands(self):
        code = load_pair(DATA / "golden_gf16.gamma.nbqc",
                         DATA / "golden_gf16.delta.nbqc")
        assert (code.M, code.N) == (14, 42)
        assert code.field.p == 4 and code.field.poly == 0b0011

    def test_orthogonal_both_levels(self):
        code = load_pair(DATA / "golden_gf16.gamma.nbqc",
                         DATA / "golden_gf16.delta.nbqc")
        assert verify_orthogonal(code.gamma, code.delta)
        assert not dense_mod2_product(code.hc, code.hd).any()

    def test_supports_match_construction(self, pair):
        code = load_pair(DATA / "golden_gf16.gamma.nbqc",
                         DATA / "golden_gf16.delta.nbqc")
        assert rows_of(code.gamma.support()) == rows_of(pair.expand_c())
        assert rows_of(code.delta.support()) == rows_of(pair.expand_d())

    def test_round_trips_byte_identical(self):
        for name in ("golden_gf16.gamma.nbqc", "golden_gf16.delta.nbqc"):
            text = (DATA / name).read_text()
            back = read_matrix(io.StringIO(text))
            buf = io.StringIO()
            write_matrix(back, buf)
            assert buf.getvalue() == text

    def test_role_swap_rejected(self):
        with pytest.raises(ValueError, match="role"):
            load_pair(DATA / "golden_gf16.delta.nbqc",
                      DATA / "golden_gf16.gamma.nbqc")

    def test_bad_field_parameters_are_parse_errors(self):
        text = (DATA / "golden_gf16.gamma.nbqc").read_text()
        for mangled in (text.replace("p=4", "p=99"),
                        text.replace("poly=0x3", "poly=0x5")):
            with pytest.raises(ParseError):
                read_matrix(io.StringIO(mangled))

    @given(pos=st.integers(0, 400), ch=st.sampled_from(list("0o:=x r\nZ9")))
    @settings(max_examples=200, deadline=None)
    def test_single_character_fuzz_never_crashes(self, pos, ch):
        # any one-character corruption either still parses or raises the
        # format's own error types, never a bare internal exception
        text = (DATA / "golden_gf16.gamma.nbqc").read_text()
        pos = min(pos, len(text) - 1)
        mutated = text[:pos] + ch + text[pos + 1:]
        try:
            read_matrix(io.StringIO(mutated))
        except (ParseError, FieldMismatch):
            pass


@given(p=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_expansion_preserves_orthogonality_property(p, seed):
    pair = build_pair(EX1)
    field = make_field(p)
    gamma, delta = lift(pair, field, np.random.default_rng(seed))
    code = expand_pair(gamma, delta)    # raises OrthogonalityBroken on failure
    assert binary_orthogonal(code.hc, code.hd)
