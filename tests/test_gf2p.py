"""Field arithmetic and companion-map tests.

The independent oracle here is naive polynomial arithmetic over GF(2):
shift-and-XOR multiplication reduced by the modulus, with no tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbqc.gf2p import (DEFAULT_POLY, DegreeOutOfRange, FieldSpec,
                       NonPrimitivePolynomial, make_field)
from oracles import field_pow


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
        assert gf16.exp(4) == 3

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

    def test_exp_table_matches_naive_powers(self, gf16):
        v = 1
        for i in range(15):
            assert gf16.exp(i) == v
            v = naive_mul(v, 2, 4, gf16.poly)
        assert v == 1


class TestElementOps:
    def test_mul_alpha4_times_alpha11(self, gf16):
        # 3 = alpha^4 and 14 = alpha^11, so the product is alpha^15 = 1
        assert gf16.log(3) == 4 and gf16.log(14) == 11
        assert gf16.mul(3, 14) == 1

    def test_mul_matches_naive_oracle_exhaustive(self, gf16):
        for a in range(16):
            for b in range(16):
                assert gf16.mul(a, b) == naive_mul(a, b, 4, gf16.poly)

    def test_add_self_inverse_and_identity(self, gf16):
        for x in range(16):
            assert gf16.add(x, x) == 0
            assert gf16.mul(1, x) == x

    def test_inv(self, gf16):
        for x in range(1, 16):
            assert gf16.mul(x, gf16.inv(x)) == 1
        with pytest.raises(ZeroDivisionError):
            gf16.inv(0)

    def test_log_exp_bijection(self, gf16):
        logs = {gf16.log(v) for v in range(1, 16)}
        assert logs == set(range(15))
        for k in range(15):
            assert gf16.log(gf16.exp(k)) == k
        with pytest.raises(ZeroDivisionError):
            gf16.log(0)

    def test_pow(self, gf16):
        assert field_pow(gf16, 0, 0) == 1
        assert field_pow(gf16, 0, 5) == 0
        for x in range(1, 16):
            assert field_pow(gf16, x, 0) == 1
            acc = 1
            for k in range(1, 6):
                acc = gf16.mul(acc, x)
                assert field_pow(gf16, x, k) == acc
            assert gf16.mul(field_pow(gf16, x, -1), x) == 1

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_gf256_mul_matches_naive(self, gf256, a, b):
        assert gf256.mul(a, b) == naive_mul(a, b, 8, gf256.poly)

    @given(p=st.sampled_from([2, 3, 5, 6]), data=st.data())
    @settings(max_examples=40)
    def test_field_axioms_random_degrees(self, p, data):
        field = make_field(p)
        q = field.q
        a = data.draw(st.integers(0, q - 1))
        b = data.draw(st.integers(0, q - 1))
        c = data.draw(st.integers(0, q - 1))
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


class TestCompanionMap:
    def test_zero_and_one(self, gf16):
        assert not gf16.companion(0).any()
        assert np.array_equal(gf16.companion(1), np.eye(4, dtype=np.uint8))
        assert not gf16.companion_transpose(0).any()
        assert np.array_equal(gf16.companion_transpose(1), np.eye(4, dtype=np.uint8))

    def test_companion_alpha_shape(self, gf16):
        # subdiagonal of ones, last column = polynomial coefficients (1,1,0,0)
        expected = np.array([[0, 0, 0, 1],
                             [1, 0, 0, 1],
                             [0, 1, 0, 0],
                             [0, 0, 1, 0]], dtype=np.uint8)
        assert np.array_equal(gf16.companion(2), expected)

    def test_action_on_alpha3(self, gf16):
        # companion(alpha) applied to v(alpha^3) gives v(alpha^4) = (1,1,0,0)
        v3 = np.array([0, 0, 0, 1], dtype=np.uint8)
        out = gf16.companion(2) @ v3 & 1
        assert np.array_equal(out, np.array([1, 1, 0, 0], dtype=np.uint8))

    def test_multiplicativity_exhaustive_gf16(self, gf16):
        comps = [gf16.companion(x) for x in range(16)]
        for x in range(16):
            for y in range(16):
                lhs = comps[x] @ comps[y] & 1
                assert np.array_equal(lhs, comps[gf16.mul(x, y)])

    def test_additivity_exhaustive_gf16(self, gf16):
        comps = [gf16.companion(x) for x in range(16)]
        for x in range(16):
            for y in range(16):
                assert np.array_equal(comps[x] ^ comps[y], comps[x ^ y])

    def test_action_exhaustive_gf16(self, gf16):
        for x in range(16):
            cx = gf16.companion(x)
            for y in range(16):
                vy = (y >> np.arange(4)) & 1
                out_bits = cx @ vy & 1
                out = int(out_bits @ (1 << np.arange(4)))
                assert out == gf16.mul(x, y)

    def test_randomized_gf256(self, gf256):
        rng = np.random.default_rng(2024)
        xs = rng.integers(0, 256, size=10_000)
        ys = rng.integers(0, 256, size=10_000)
        cache = {}

        def comp(v):
            if v not in cache:
                cache[v] = gf256.companion(int(v))
            return cache[v]

        for x, y in zip(xs, ys):
            assert np.array_equal(comp(x) @ comp(y) & 1, comp(gf256.mul(x, y)))
            assert np.array_equal(comp(x) ^ comp(y), comp(x ^ y))

    def test_transpose_involution_and_multiplicativity(self, gf16):
        for x in range(16):
            assert np.array_equal(gf16.companion_transpose(x).T, gf16.companion(x))
        for x in range(16):
            tx = gf16.companion_transpose(x)
            for y in range(16):
                ty = gf16.companion_transpose(y)
                assert np.array_equal(tx @ ty & 1, gf16.companion_transpose(gf16.mul(x, y)))


class TestIndexTables:
    def test_mul_table_is_field_multiplication(self, gf16):
        for x in range(1, 16):
            perm = gf16.mul_index_table(x)
            for e in range(16):
                assert perm[e] == gf16.mul(x, e)

    def test_transpose_table_matches_matrix_action(self, gf16):
        for x in range(1, 16):
            perm = gf16.transpose_index_table(x)
            tx = gf16.companion_transpose(x)
            for e in range(16):
                bits = (e >> np.arange(4)) & 1
                expect = int((tx @ bits & 1) @ (1 << np.arange(4)))
                assert perm[e] == expect

    def test_tables_are_permutations(self, gf256):
        rng = np.random.default_rng(5)
        for x in rng.integers(1, 256, size=20):
            for perm in (gf256.mul_index_table(int(x)),
                         gf256.transpose_index_table(int(x))):
                assert np.array_equal(np.sort(perm), np.arange(256))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_symbol_maps_match_matrix_action(self, gf256, transpose):
        values = np.random.default_rng(6).integers(1, 256, size=12)
        maps = gf256.symbol_maps(values, transpose=transpose)
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1          # (q, p)
        for x, row in zip(values, maps):
            mat = gf256.companion_transpose(int(x)) if transpose else gf256.companion(int(x))
            expect = (bits @ mat.T.astype(np.int64) & 1) @ (1 << np.arange(8))
            assert np.array_equal(row, expect)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_unit_images_are_matrix_columns(self, gf16, transpose):
        # zero included: its image is the zero matrix
        images = gf16.unit_images(np.arange(16), transpose=transpose)
        for x in range(16):
            mat = gf16.companion_transpose(x) if transpose else gf16.companion(x)
            expect = (1 << np.arange(4)) @ mat.astype(np.int64)      # column j as a symbol
            assert np.array_equal(images[x], expect)

    def test_zero_rejected(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.mul_index_table(0)
        with pytest.raises(ZeroDivisionError):
            gf16.transpose_index_table(0)
        with pytest.raises(ZeroDivisionError):
            gf16.symbol_maps([3, 0, 5])
