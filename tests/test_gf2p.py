"""Field arithmetic and companion-map tests.

The independent oracle here is naive polynomial arithmetic over GF(2):
shift-and-XOR multiplication reduced by the modulus, with no tables.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbqc.gf2p import (DEFAULT_POLY, DegreeOutOfRange, FieldSpec,
                       NonPrimitivePolynomial, make_field)
from oracles import (companion, companion_transpose, field_add, field_exp, field_inv, field_log,
                     field_mul, field_pow, log_table, mul_index_table, transpose_index_table,
                     x_has_full_order)


def naive_mul(a: int, b: int, p: int, poly_mask: int) -> int:
    """Carry-less multiply mod the degree-p polynomial; table-free oracle."""
    full = (1 << p) | poly_mask
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    for bit in range(acc.bit_length() - 1, p - 1, -1):
        if acc >> bit & 1:
            acc ^= full << (bit - p)
    return acc


@pytest.fixture(scope="module")
def gf16() -> FieldSpec:
    return make_field(4)


@pytest.fixture(scope="module")
def gf256() -> FieldSpec:
    return make_field(8)


class TestMakeField:
    def test_default_p4_satisfies_alpha4_eq_alpha_plus_1(self, gf16):
        # alpha^4 = alpha + 1, i.e. 0b0011
        assert gf16.poly == 0b0011
        assert field_exp(gf16, 4) == 3

    def test_explicit_full_polynomial_accepted(self):
        assert make_field(4, 0b10011).poly == 0b0011

    def test_reducible_polynomial_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        with pytest.raises(NonPrimitivePolynomial):
            make_field(4, 0b0101)

    def test_irreducible_but_imprimitive_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1, so ord(x) = 5 < 15
        with pytest.raises(NonPrimitivePolynomial):
            make_field(4, 0b1111)

    @pytest.mark.parametrize("p", [1, 0, 17, 20])
    def test_degree_out_of_range(self, p):
        with pytest.raises(DegreeOutOfRange):
            make_field(p)

    @pytest.mark.parametrize("p", sorted(DEFAULT_POLY))
    def test_all_defaults_are_primitive(self, p):
        field = make_field(p)
        assert field.q == 1 << p
        assert np.array_equal(log_table(field)[field.exp_table], np.arange(field.q - 1))

    @pytest.mark.parametrize("p", range(2, 9))
    def test_accepts_exactly_when_x_has_full_order(self, p):
        # every mask: make_field's power walk must agree with the order
        # found from the prime factors of q - 1, and there are
        # phi(q - 1) / p primitive polynomials of degree p
        accepted = 0
        for mask in range(1 << p):
            try:
                make_field(p, mask)
            except NonPrimitivePolynomial:
                assert not x_has_full_order(p, mask), mask
            else:
                assert x_has_full_order(p, mask), mask
                accepted += 1
        q = 1 << p
        assert accepted * p == sum(math.gcd(k, q - 1) == 1 for k in range(1, q))

    def test_exp_table_matches_naive_powers(self, gf16):
        v = 1
        for i in range(15):
            assert field_exp(gf16, i) == v
            v = naive_mul(v, 2, 4, gf16.poly)
        assert v == 1


class TestElementOps:
    def test_mul_alpha4_times_alpha11(self, gf16):
        # 3 = alpha^4 and 14 = alpha^11, so the product is alpha^15 = 1
        assert field_log(gf16, 3) == 4 and field_log(gf16, 14) == 11
        assert field_mul(gf16, 3, 14) == 1

    def test_mul_matches_naive_oracle_exhaustive(self, gf16):
        for a in range(16):
            for b in range(16):
                assert field_mul(gf16, a, b) == naive_mul(a, b, 4, gf16.poly)

    def test_add_self_inverse_and_identity(self, gf16):
        for x in range(16):
            assert field_add(gf16, x, x) == 0
            assert field_mul(gf16, 1, x) == x

    def test_inv(self, gf16):
        for x in range(1, 16):
            assert field_mul(gf16, x, field_inv(gf16, x)) == 1
        with pytest.raises(ZeroDivisionError):
            field_inv(gf16, 0)

    def test_log_exp_bijection(self, gf16):
        logs = {field_log(gf16, v) for v in range(1, 16)}
        assert logs == set(range(15))
        for k in range(15):
            assert field_log(gf16, field_exp(gf16, k)) == k
        with pytest.raises(ZeroDivisionError):
            field_log(gf16, 0)

    def test_pow(self, gf16):
        assert field_pow(gf16, 0, 0) == 1
        assert field_pow(gf16, 0, 5) == 0
        for x in range(1, 16):
            assert field_pow(gf16, x, 0) == 1
            acc = 1
            for k in range(1, 6):
                acc = field_mul(gf16, acc, x)
                assert field_pow(gf16, x, k) == acc
            assert field_mul(gf16, field_pow(gf16, x, -1), x) == 1

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_gf256_mul_matches_naive(self, gf256, a, b):
        assert field_mul(gf256, a, b) == naive_mul(a, b, 8, gf256.poly)

    @given(p=st.sampled_from([2, 3, 5, 6]), data=st.data())
    @settings(max_examples=40)
    def test_field_axioms_random_degrees(self, p, data):
        field = make_field(p)
        q = field.q
        a = data.draw(st.integers(0, q - 1))
        b = data.draw(st.integers(0, q - 1))
        c = data.draw(st.integers(0, q - 1))
        assert field_mul(field, a, b) == field_mul(field, b, a)
        assert field_mul(field, a, field_mul(field, b, c)) == field_mul(field, field_mul(field, a, b), c)
        assert field_mul(field, a, field_add(field, b, c)) == field_add(field, field_mul(field, a, b), field_mul(field, a, c))


class TestCompanionMap:
    def test_zero_and_one(self, gf16):
        assert not companion(gf16, 0).any()
        assert np.array_equal(companion(gf16, 1), np.eye(4, dtype=np.uint8))
        assert not companion_transpose(gf16, 0).any()
        assert np.array_equal(companion_transpose(gf16, 1), np.eye(4, dtype=np.uint8))

    def test_companion_alpha_shape(self, gf16):
        # subdiagonal of ones, last column = polynomial coefficients (1,1,0,0)
        expected = np.array([[0, 0, 0, 1],
                             [1, 0, 0, 1],
                             [0, 1, 0, 0],
                             [0, 0, 1, 0]], dtype=np.uint8)
        assert np.array_equal(companion(gf16, 2), expected)

    def test_action_on_alpha3(self, gf16):
        # companion(alpha) applied to v(alpha^3) gives v(alpha^4) = (1,1,0,0)
        v3 = np.array([0, 0, 0, 1], dtype=np.uint8)
        out = companion(gf16, 2) @ v3 & 1
        assert np.array_equal(out, np.array([1, 1, 0, 0], dtype=np.uint8))

    def test_multiplicativity_exhaustive_gf16(self, gf16):
        comps = [companion(gf16, x) for x in range(16)]
        for x in range(16):
            for y in range(16):
                lhs = comps[x] @ comps[y] & 1
                assert np.array_equal(lhs, comps[field_mul(gf16, x, y)])

    def test_additivity_exhaustive_gf16(self, gf16):
        comps = [companion(gf16, x) for x in range(16)]
        for x in range(16):
            for y in range(16):
                assert np.array_equal(comps[x] ^ comps[y], comps[x ^ y])

    def test_action_exhaustive_gf16(self, gf16):
        for x in range(16):
            cx = companion(gf16, x)
            for y in range(16):
                vy = (y >> np.arange(4)) & 1
                out_bits = cx @ vy & 1
                out = int(out_bits @ (1 << np.arange(4)))
                assert out == field_mul(gf16, x, y)

    def test_randomized_gf256(self, gf256):
        rng = np.random.default_rng(2024)
        xs = rng.integers(0, 256, size=10_000)
        ys = rng.integers(0, 256, size=10_000)
        cache = {}

        def comp(v):
            if v not in cache:
                cache[v] = companion(gf256, int(v))
            return cache[v]

        for x, y in zip(xs, ys):
            assert np.array_equal(comp(x) @ comp(y) & 1, comp(field_mul(gf256, x, y)))
            assert np.array_equal(comp(x) ^ comp(y), comp(x ^ y))

    def test_transpose_involution_and_multiplicativity(self, gf16):
        for x in range(16):
            assert np.array_equal(companion_transpose(gf16, x).T, companion(gf16, x))
        for x in range(16):
            tx = companion_transpose(gf16, x)
            for y in range(16):
                ty = companion_transpose(gf16, y)
                assert np.array_equal(tx @ ty & 1, companion_transpose(gf16, field_mul(gf16, x, y)))


class TestIndexTables:
    def test_mul_table_is_field_multiplication(self, gf16):
        for x in range(1, 16):
            perm = mul_index_table(gf16, x)
            for e in range(16):
                assert perm[e] == field_mul(gf16, x, e)

    def test_transpose_table_matches_matrix_action(self, gf16):
        for x in range(1, 16):
            perm = transpose_index_table(gf16, x)
            tx = companion_transpose(gf16, x)
            for e in range(16):
                bits = (e >> np.arange(4)) & 1
                expect = int((tx @ bits & 1) @ (1 << np.arange(4)))
                assert perm[e] == expect

    def test_tables_are_permutations(self, gf256):
        rng = np.random.default_rng(5)
        for x in rng.integers(1, 256, size=20):
            for perm in (mul_index_table(gf256, int(x)),
                         transpose_index_table(gf256, int(x))):
                assert np.array_equal(np.sort(perm), np.arange(256))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_symbol_maps_match_matrix_action(self, gf256, transpose):
        values = np.random.default_rng(6).integers(1, 256, size=12)
        maps = gf256.symbol_maps(log_table(gf256)[values], transpose=transpose)
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1          # (q, p)
        for x, row in zip(values, maps):
            mat = companion_transpose(gf256, int(x)) if transpose else companion(gf256, int(x))
            expect = (bits @ mat.T.astype(np.int64) & 1) @ (1 << np.arange(8))
            assert np.array_equal(row, expect)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_unit_images_are_matrix_columns(self, gf16, transpose):
        # every nonzero element, taken by its log
        images = gf16.unit_images(log_table(gf16)[1:], transpose=transpose)
        for x in range(1, 16):
            mat = companion_transpose(gf16, x) if transpose else companion(gf16, x)
            expect = (1 << np.arange(4)) @ mat.astype(np.int64)      # column j as a symbol
            assert np.array_equal(images[x - 1], expect)

    @pytest.mark.parametrize("p", range(2, 17))
    def test_transposed_images_are_rows(self, p):
        # the transposed image of row i, bit j = bit i of column j, from the
        # (n, p, p) bit array: every log for p <= 12, 3000 random logs above
        field = make_field(p)
        logs = (np.arange(field.q - 1) if p <= 12
                else np.random.default_rng(p).integers(0, field.q - 1, size=3000))
        columns = field.unit_images(logs)
        bits = (columns[:, None, :] >> np.arange(p)[:, None]) & 1   # [k, i, j]: bit i of column j
        expect = (bits << np.arange(p)).sum(axis=2)
        got = field.unit_images(logs, transpose=True)
        assert got.dtype == np.int64 and np.array_equal(got, expect)

    def test_zero_rejected(self, gf16):
        with pytest.raises(ZeroDivisionError):
            mul_index_table(gf16, 0)
        with pytest.raises(ZeroDivisionError):
            transpose_index_table(gf16, 0)
