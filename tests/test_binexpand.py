"""Code pair and NBQC format tests.

The binary expansion is built entry by entry by `oracles.expand_binary`
(the library never builds it), and the dense GF(2) matrix product is
its orthogonality oracle.  The tests/data fixtures are an externally
constructed GF(16) pair on the (2, 6, 7) template, used to
cross-validate the reader and every structural invariant against data
this codebase did not generate.
"""

import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (binary_orthogonal, col_supports, dense, dense_mod2_product,
                     expand_binary, field_exp, field_log, nb_from_rows, read_rows, rows_of,
                     support, write_rows)
from nbqc.binexpand import (CssCodePair, FieldMismatch, ParseError, expand_pair,
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


def binary_pair(code: CssCodePair):
    """(Hc, Hd): the first matrix's images and the second's transposed images."""
    return expand_binary(code.gamma, False), expand_binary(code.delta, True)


class TestExpandPair:
    def test_dims_and_rates(self):
        code = make_code()
        hc, hd = binary_pair(code)
        assert (hc.m, hc.n) == (56, 168)
        assert (hd.m, hd.n) == (56, 168)
        assert code.n_qubits == 168
        assert code.rate_c == pytest.approx(2 / 3)
        assert code.rate_q == pytest.approx(1 / 3)
        assert code.rate_q == pytest.approx(2 * code.rate_c - 1)

    def test_binary_orthogonality_dense_oracle(self):
        code = make_code()
        assert not dense_mod2_product(*binary_pair(code)).any()

    def test_all_ones_expansion_is_identity_blocks(self, pair, gf16):
        hc = pair.expand_c()
        hd = pair.expand_d()
        ones_g = NBMatrix(m=14, n=42, role="GAMMA", field=gf16, params=EX1,
                          row=hc.row, col=hc.col, log=np.zeros_like(hc.col))
        ones_d = NBMatrix(m=14, n=42, role="DELTA", field=gf16, params=EX1,
                          row=hd.row, col=hd.col, log=np.zeros_like(hd.col))
        bin_c, bin_d = binary_pair(expand_pair(ones_g, ones_d))
        p = 4
        expect = np.kron(dense(hc), np.eye(p, dtype=np.uint8))
        assert np.array_equal(dense(bin_c), expect)
        expect_d = np.kron(dense(hd), np.eye(p, dtype=np.uint8))
        assert np.array_equal(dense(bin_d), expect_d)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_random_lifts_binary_orthogonal(self, p, pair):
        field = make_field(p)
        rng = np.random.default_rng(100 + p)
        hc, hd = binary_pair(expand_pair(*lift(pair, field, rng)))
        assert not dense_mod2_product(hc, hd).any()
        assert binary_orthogonal(hc, hd)

    def test_non_orthogonal_input_rejected(self, pair, gf16):
        rng = np.random.default_rng(9)
        gamma, delta = lift(pair, gf16, rng)
        v0 = field_exp(gf16, delta.log[0])      # row 0's first entry
        delta.log[0] = field_log(gf16, v0 ^ 3 if v0 ^ 3 else 2)
        with pytest.raises(ValueError):
            expand_pair(gamma, delta)

    def test_binary_expansion_has_4cycles_symbol_level_does_not(self):
        code = make_code()
        assert not has_4cycle(support(code.gamma))
        assert not has_4cycle(support(code.delta))
        hc, hd = binary_pair(code)
        assert has_4cycle(hc)
        assert has_4cycle(hd)

    def test_sparsity_bounds(self):
        code = make_code()
        p, J, L, P = 4, EX1.J, EX1.L, EX1.P
        hc, _ = binary_pair(code)
        assert hc.nnz() <= J * L * P * p * p
        col_weights = [len(c) for c in col_supports(hc)]
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
        alpha11 = field_exp(gf16, 11)
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
        pytest.param(lambda t: t.replace("p=4 ", "p=+4 "), 2, id="plus-sign"),
        pytest.param(lambda t: t.replace(" P=7 ", " P=0_7 "), 2, id="underscore"),
        pytest.param(lambda t: t.replace("poly=0x3", "poly=0X3"), 2, id="upper-case-0X"),
        pytest.param(lambda t: t.replace("poly=0x3", "poly=3"), 2, id="poly-without-0x"),
        pytest.param(lambda t: t.replace("tau=3", "tau=3 tau=3"), 2, id="repeated-key"),
        pytest.param(lambda t: t.replace("role=GAMMA", "role=GAMMA x=1"), 2, id="unknown-key"),
        pytest.param(lambda t: t.replace("p=4 poly=0x3", "poly=0x3 p=4"), 2, id="key-order"),
        pytest.param(lambda t: t.replace("p=4 ", "p=" + "4" * 5000 + " "), 2, id="long-int"),
        pytest.param(lambda t: t.replace("M=14", "M=+14"), 3, id="plus-sign-M"),
        pytest.param(lambda t: t.replace("N=42", "N=42 N=42"), 3, id="repeated-key-N"),
    ])
    def test_parse_errors_carry_line_numbers(self, mangle, line_no):
        buf = io.StringIO()
        write_matrix(make_code(seed=2).gamma, buf)
        with pytest.raises(ParseError) as err:
            read_matrix(io.StringIO(mangle(buf.getvalue())))
        assert err.value.line_no == line_no

    def test_header_grammar_accepts_negatives_and_tabs(self, gf16):
        params = QCParams(P=7, J=2, L=6, sigma=-5, tau=-4)
        mat = nb_from_rows(2, 3, [[(0, 1)], []], "DELTA", gf16, params)
        buf = io.StringIO()
        write_matrix(mat, buf)
        text = buf.getvalue()
        assert text.splitlines()[1] == "p=4 poly=0x3 J=2 L=6 P=7 sigma=-5 tau=-4 role=DELTA"
        lines = text.splitlines(keepends=True)
        tabbed = "".join(lines[:1] + [lines[1].replace(" ", "\t", 4),
                                      lines[2].replace(" ", " \t ")] + lines[3:])
        for spaced in (text, tabbed):
            back = read_matrix(io.StringIO(spaced))
            assert back.params == params and back.role == "DELTA" and (back.m, back.n) == (2, 3)

    @given(data=st.data(), p=st.sampled_from([2, 4, 8]), m=st.integers(0, 6),
           n=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_writer_matches_per_row_writer(self, data, p, m, n):
        # empty rows and uneven weights, so that the rows need several formats
        field = make_field(p)
        rows = [[(c, data.draw(st.integers(1, field.q - 1)))
                 for c in sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))]
                for _ in range(m)]
        params = QCParams(*data.draw(st.tuples(*[st.integers(-99, 99)] * 5)))
        mat = nb_from_rows(m, n, rows, data.draw(st.sampled_from(["GAMMA", "DELTA"])),
                           field, params)
        buf = io.StringIO()
        write_matrix(mat, buf)
        assert buf.getvalue() == write_rows(mat)

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
        assert not dense_mod2_product(*binary_pair(code)).any()

    def test_supports_match_construction(self, pair):
        code = load_pair(DATA / "golden_gf16.gamma.nbqc",
                         DATA / "golden_gf16.delta.nbqc")
        assert rows_of(support(code.gamma)) == rows_of(pair.expand_c())
        assert rows_of(support(code.delta)) == rows_of(pair.expand_d())

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

    @pytest.mark.parametrize("old, new", [
        ("\nM=14 N=42\n", "\nM=14 N=1000000000000\n"),
        (" P=7 ", " P=999999999999999 "),
        (" L=6 ", " L=8 "),
        ("\nr12: ", "\nr12: 1:1 "),
    ], ids=["huge-N", "huge-P", "other-L", "extra-entry"])
    def test_pair_not_of_its_headers_shape_rejected(self, tmp_path, old, new):
        # both headers agree, but the shape is not 2P x LP with LM entries;
        # a header number must not size any array before that is checked
        paths = []
        for role in ("gamma", "delta"):
            text = (DATA / f"golden_gf16.{role}.nbqc").read_text()
            assert old in text
            paths.append(tmp_path / f"bad.{role}.nbqc")
            paths[-1].write_text(text.replace(old, new, 1))
        with pytest.raises(ValueError, match="not 2P x LP"):
            load_pair(*paths)

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


def golden_text(role="gamma") -> str:
    return (DATA / f"golden_gf16.{role}.nbqc").read_text()


def with_row(text: str, r: int, edit) -> str:
    """`text` with the tokens of row line r (prefix included) replaced by edit(tokens)."""
    lines = text.splitlines()
    lines[3 + r] = " ".join(edit(lines[3 + r].split(" ")))
    return "\n".join(lines) + "\n"


def read_text(text: str):
    return read_matrix(io.StringIO(text))


class TestReaderErrors:
    """Every message family of the row reader, on the first, a middle and
    the last row line of the golden file (lines 4, 11 and 17)."""

    FAMILIES = {
        "bad-entry": (lambda t: t[:2] + ["x:1"] + t[3:], "bad entry 'x:1'"),
        "column-outside": (lambda t: t + ["42:0"], "column 42 outside [0, 42)"),
        "not-ascending": (lambda t: t + ["0:0"], "columns must strictly ascend"),
        "log-outside": (lambda t: t[:-1] + [t[-1].partition(":")[0] + ":f"],
                        "log 15 outside [0, 15)"),
        "prefix": (lambda t: [t[0].rstrip(":")] + t[1:], "expected row prefix 'r{r}:'"),
    }

    @pytest.mark.parametrize("r", [0, 7, 13])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_message_and_line(self, family, r):
        edit, message = self.FAMILIES[family]
        with pytest.raises(ParseError) as err:
            read_text(with_row(golden_text(), r, edit))
        assert err.value.line_no == 4 + r
        assert str(err.value) == f"line {4 + r}: " + message.format(r=r)

    def test_first_bad_line_wins(self):
        # a later line's error is not reported while an earlier line is bad
        text = with_row(golden_text(), 9, lambda t: t + ["0:0"])
        text = with_row(text, 3, lambda t: ["r3"] + t[1:])
        with pytest.raises(ParseError, match="line 7: expected row prefix 'r3:'"):
            read_text(text)

    def test_first_bad_token_of_a_line_wins(self):
        # a bad entry before a column outside the range, on the same line
        text = with_row(golden_text(), 5, lambda t: t[:2] + ["1:z", "99:0"] + t[2:])
        with pytest.raises(ParseError, match="line 9: bad entry '1:z'"):
            read_text(text)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda t: t + ["1" * 30 + ":0"], id="column"),
        pytest.param(lambda t: t[:-1] + [t[-1].partition(":")[0] + ":" + "1" * 30], id="log"),
        pytest.param(lambda t: t + ["9" * 19 + ":" + "f" * 16], id="both-past-int64"),
    ])
    def test_thirty_digit_numbers_are_bad_entries(self, edit):
        with pytest.raises(ParseError, match="line 8: bad entry"):
            read_text(with_row(golden_text(), 4, edit))

    def test_thirty_digit_row_prefix(self):
        with pytest.raises(ParseError, match="line 8: expected row prefix 'r4:'"):
            read_text(with_row(golden_text(), 4, lambda t: ["r" + "4" * 30 + ":"] + t[1:]))

    @pytest.mark.parametrize("token", [
        "+9:9", "9:+9", "-1:0", "9:-1", "9_0:9", "9:1_0", "0x9:1", "9:0x1f", "9:A", "9:Fb",
        "9:", ":9", "9", "9::9", "9:9:9", "\u0661:1", "9:\x1f", "9\u20039:9",
    ])
    def test_lenient_int_forms_are_bad_entries(self, token):
        # the grammar is a decimal column and a lower-case hex log, nothing
        # else that Python's int() would also read
        with pytest.raises(ParseError) as err:
            read_text(with_row(golden_text(), 0, lambda t: t[:1] + [token] + t[2:]))
        assert str(err.value) == f"line 4: bad entry {token!r}"

    @pytest.mark.parametrize("line", [
        "r0:1:4 9:9 18:a 24:2 34:b 40:8",      # prefix glued to the first entry
        " r0: 1:4 9:9 18:a 24:2 34:b 40:8",    # space before the prefix
        "r00: 1:4 9:9 18:a 24:2 34:b 40:8",    # leading zero in the row
        "r0 : 1:4 9:9 18:a 24:2 34:b 40:8",
        "",
    ])
    def test_row_prefix_is_a_token_of_its_own(self, line):
        lines = golden_text().splitlines()
        lines[3] = line
        with pytest.raises(ParseError, match="line 4: expected row prefix 'r0:'"):
            read_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("find, replace, line_no", [
        (b"r5: ", b"r5: \xe9", 9),
        (b"r13: 3:a", b"r13: 3:\xff", 17),
        (b"tau=3", b"tau=\xb3", 2),
    ])
    def test_non_ascii_byte_in_a_file(self, tmp_path, find, replace, line_no):
        path = tmp_path / "g.nbqc"
        path.write_bytes((DATA / "golden_gf16.gamma.nbqc").read_bytes().replace(find, replace, 1))
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line_no == line_no

    def test_accepted_spellings(self):
        # separators may be runs of spaces and tabs, and a column or log may
        # carry leading zeros; each reads as the canonical line
        want = read_text(golden_text())
        lines = golden_text().splitlines()
        lines[3] = "r0:\t001:04  9:9\t \t18:a 24:2 34:b 040:8 \t"
        got = read_text("\n".join(lines) + "\n")
        for name in ("row", "col", "log"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestReaderMatchesTokenReader:
    """The array reader against `oracles.read_rows`, which applies the same
    grammar one token at a time."""

    @pytest.mark.parametrize("role", ["gamma", "delta"])
    def test_golden_arrays(self, role):
        text = golden_text(role)
        mat = read_text(text)
        row, col, logs = read_rows(text, mat.n, mat.field.q)
        assert mat.row.tolist() == row and mat.col.tolist() == col
        assert mat.log.tolist() == logs
        assert mat.row.dtype == mat.col.dtype == np.int64

    @given(edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2),
                                    st.sampled_from(list("0123456789abfABF:r \t\n_+-x\x1f") +
                                                    ["\u2003", "\u0661", "99999999999999999"])),
                          min_size=1, max_size=3),
           role=st.sampled_from(["gamma", "delta"]))
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_on_corrupted_rows(self, edits, role):
        text = golden_text(role)
        body = len("\n".join(text.splitlines()[:3])) + 1     # edit the row lines only
        for pos, kind, ch in edits:
            pos = body + pos % (len(text) - body)
            text = (text[:pos] + ch + text[pos + 1:], text[:pos] + text[pos + 1:],
                    text[:pos] + ch + text[pos:])[kind]
        try:
            want = read_rows(text, 42, 16)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                read_text(text)
            assert (err.value.line_no, str(err.value)) == (exc.line_no, str(exc))
            return
        mat = read_text(text)
        assert (mat.row.tolist(), mat.col.tolist(), mat.log.tolist()) == want


@given(p=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_expansion_preserves_orthogonality_property(p, seed):
    pair = build_pair(EX1)
    field = make_field(p)
    gamma, delta = lift(pair, field, np.random.default_rng(seed))
    assert binary_orthogonal(*binary_pair(expand_pair(gamma, delta)))
