"""Non-binary lift tests.

Oracles: brute-force enumeration of the restricted support positions,
the per-row cycle walk and the closed-form cycles, dense matrix
products over GF(2^p), direct evaluation of the cycle determinant
products, and the field recurrence for the second matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (CycleStructure, closed_form_cycle, cycle_products, field_log, field_mul,
                     from_rows, mod_system, nb_from_rows, pair_walk, recurrence_delta, rows_of,
                     satisfies, walk_cycle, walk_cycles)
from nbqc.gf2p import make_field
from nbqc.nblift import (ClosureViolation, DimensionMismatch, NBMatrix, NotACycle,
                         assemble_constraints, cycle_structure, lift, lift_gamma, solve_delta,
                         verify_orthogonal)
from nbqc.qcpair import QCParams, build_pair, find_params

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
LIFT_PARAMS = [params for L in (4, 6, 8, 10) for params in find_params(L, range(3, 32))]


@pytest.fixture(scope="module")
def pair():
    return build_pair(EX1)


@pytest.fixture(scope="module")
def gf16():
    return make_field(4)


def brute_force_positions(hc, hd, m_prime):
    """All first-matrix nonzeros in the support columns of row m_prime."""
    support = set(rows_of(hd)[m_prime])
    return {(m, n) for m, row in enumerate(rows_of(hc)) for n in row if n in support}


def array_rows(hc, hd):
    """The rows of the array walk as per-row CycleStructures."""
    cycles = cycle_structure(hc, hd)
    return [CycleStructure.from_arrays(cycles, m_prime) for m_prime in range(hd.m)]


def scan_params():
    """find_params for L in {4, 6, 8, 10} and P < 80, the first 5 tau of each sigma."""
    taus = {}
    for L in (4, 6, 8, 10):
        for params in find_params(L, range(3, 80)):
            taus.setdefault((L, params.P, params.sigma), []).append(params)
    return [params for group in taus.values() for params in group[:5]]


class TestCycleStructure:
    def test_arrays(self, pair):
        m_seq, n_seq = cycle_structure(pair.expand_c(), pair.expand_d())
        for a in (m_seq, n_seq):
            assert a.shape == (2 * EX1.P, EX1.L) and a.dtype == np.int64

    def test_reference_row5_orders(self, pair):
        cyc = array_rows(pair.expand_c(), pair.expand_d())[5]
        assert cyc.n_seq == [2, 25, 7, 38, 20, 29]
        assert cyc.m_seq == [1, 13, 5, 11, 2, 12]

    def test_reference_row5_position_set(self, pair):
        cyc = array_rows(pair.expand_c(), pair.expand_d())[5]
        expected = {(1, 2), (5, 7), (2, 20), (1, 25), (2, 29), (5, 38),
                    (12, 2), (13, 7), (11, 20), (13, 25), (12, 29), (11, 38)}
        assert set(cyc.e1()) | set(cyc.e2()) == expected
        assert set(cyc.e1()) & set(cyc.e2()) == set()
        assert len(cyc.e1()) == len(cyc.e2()) == 6

    def test_all_rows_match_brute_force(self, pair):
        hc, hd = pair.expand_c(), pair.expand_d()
        for m_prime, cyc in enumerate(array_rows(hc, hd)):
            assert set(cyc.e1()) | set(cyc.e2()) == brute_force_positions(hc, hd, m_prime)
            assert len(set(cyc.n_seq)) == len(cyc.n_seq) == EX1.L
            assert len(set(cyc.m_seq)) == len(cyc.m_seq) == EX1.L

    def test_back_and_forth_structure(self, pair):
        P, half_n = EX1.P, EX1.L * EX1.P // 2
        for cyc in array_rows(pair.expand_c(), pair.expand_d()):
            for i in range(EX1.L):
                if i % 2 == 0:
                    assert cyc.m_seq[i] < P and cyc.n_seq[i] < half_n
                else:
                    assert cyc.m_seq[i] >= P and cyc.n_seq[i] >= half_n

    def test_even_odd_distinctness(self, pair):
        for cyc in array_rows(pair.expand_c(), pair.expand_d()):
            evens = cyc.m_seq[0::2]
            odds = cyc.m_seq[1::2]
            assert len(set(evens)) == len(evens)
            assert len(set(odds)) == len(odds)

    def test_closed_forms_match_walk_upper_half(self, pair):
        walks = array_rows(pair.expand_c(), pair.expand_d())
        for m_prime in range(EX1.P):
            closed = closed_form_cycle(EX1, m_prime)
            assert walks[m_prime].n_seq == closed.n_seq, m_prime
            assert walks[m_prime].m_seq == closed.m_seq, m_prime

    def test_closed_forms_other_instances(self):
        for params in find_params(8, [13])[:4] + find_params(6, [13])[:4]:
            inst = build_pair(params)
            walks = array_rows(inst.expand_c(), inst.expand_d())
            for m_prime in range(params.P):
                closed = closed_form_cycle(params, m_prime)
                assert walks[m_prime].n_seq == closed.n_seq
                assert walks[m_prime].m_seq == closed.m_seq

    def test_every_row_matches_oracle_walk_and_closed_forms(self):
        sets = scan_params()
        assert {params.L for params in sets} == {4, 6, 8, 10}
        for params in sets:
            inst = build_pair(params)
            hc, hd = inst.expand_c(), inst.expand_d()
            walks = array_rows(hc, hd)
            assert walks == walk_cycles(hc, hd), params
            for m_prime in range(params.P):
                assert walks[m_prime] == closed_form_cycle(params, m_prime), (params, m_prime)

    def test_not_a_cycle_on_broken_input(self, pair):
        hc = pair.expand_c()
        hd = pair.expand_d()
        rows = rows_of(hc)
        rows[1] = [c for c in rows[1] if c != 25]
        broken = from_rows(hc.m, hc.n, rows)
        with pytest.raises(NotACycle):
            walk_cycle(broken, hd, 5)
        with pytest.raises(NotACycle, match="2 check neighbours"):
            cycle_structure(broken, hd)

    def test_not_a_cycle_on_weight3_column(self, pair):
        hc, hd = pair.expand_c(), pair.expand_d()
        rows = rows_of(hc)
        rows[0] = sorted(rows[0] + [25])     # column 25 now has 3 checks
        heavy = from_rows(hc.m, hc.n, rows)
        with pytest.raises(NotACycle):
            walk_cycle(heavy, hd, 5)
        with pytest.raises(NotACycle, match="a support column does not have 2"):
            cycle_structure(heavy, hd)

    def test_not_a_cycle_on_split_support(self):
        # two disjoint 4-cycles in the support of one row: the restricted
        # graph is 2-regular on 4 checks, but the walk closes after 2 columns
        hc = from_rows(4, 4, [[0, 1], [2, 3], [0, 1], [2, 3]])
        hd = from_rows(4, 4, [[0, 1, 2, 3]] * 4)
        with pytest.raises(NotACycle, match="closed after 2 of 4"):
            walk_cycle(hc, hd, 0)
        with pytest.raises(NotACycle, match="row 0: walk does not close after exactly 4"):
            cycle_structure(hc, hd)

    def test_not_a_cycle_without_unique_top_neighbour(self):
        # one 8-cycle, but the first column's checks are both in the top half
        hc = from_rows(4, 4, [[0, 3], [0, 1], [1, 2], [2, 3]])
        hd = from_rows(4, 4, [[0, 1, 2, 3]] * 4)
        with pytest.raises(NotACycle, match="top-half"):
            walk_cycle(hc, hd, 0)
        with pytest.raises(NotACycle, match="top-half"):
            cycle_structure(hc, hd)

    def test_not_a_cycle_on_irregular_restriction(self):
        # check 0 meets three support columns
        hc = from_rows(4, 4, [[0, 1, 2], [0, 3], [1, 3], [2]])
        hd = from_rows(4, 4, [[0, 1, 2, 3]] * 4)
        with pytest.raises(NotACycle):
            walk_cycle(hc, hd, 0)
        with pytest.raises(NotACycle):
            cycle_structure(hc, hd)

    def test_not_a_cycle_messages(self, pair):
        # the full message names the first bad row, for each bad input above
        hc, hd = pair.expand_c(), pair.expand_d()
        rows = rows_of(hc)
        rows[1] = [c for c in rows[1] if c != 25]
        heavy = rows_of(hc)
        heavy[0] = sorted(heavy[0] + [25])
        square = from_rows(4, 4, [[0, 1, 2, 3]] * 4)
        cases = [
            (from_rows(hc.m, hc.n, rows), hd,
             "row 5: a support column does not have 2 check neighbours"),
            (from_rows(hc.m, hc.n, heavy), hd,
             "row 5: a support column does not have 2 check neighbours"),
            (from_rows(4, 4, [[0, 1], [2, 3], [0, 1], [2, 3]]), square,
             "row 0: walk does not close after exactly 4 columns"),
            (from_rows(4, 4, [[0, 3], [0, 1], [1, 2], [2, 3]]), square,
             "row 0: the first column lacks a unique top-half neighbour"),
            (from_rows(4, 4, [[0, 1, 2], [0, 3], [1, 3], [2]]), square,
             "row 0: restricted graph is not 2-regular on 4 checks"),
        ]
        for first, second, message in cases:
            with pytest.raises(NotACycle) as err:
                cycle_structure(first, second)
            assert str(err.value) == message

    def test_bad_row_index(self, pair):
        with pytest.raises(IndexError):
            walk_cycle(pair.expand_c(), pair.expand_d(), 99)
        m_seq, _ = cycle_structure(pair.expand_c(), pair.expand_d())
        with pytest.raises(IndexError):
            m_seq[99]


class TestConstraints:
    def test_counts(self, pair):
        system = assemble_constraints(*pair_walk(pair), 15)
        assert system.n_equations == 14
        assert system.n_vars == 84

    def test_row5_equation_content(self, pair):
        hc, cycles = pair_walk(pair)
        system = assemble_constraints(hc, cycles, 15)
        plus = {(1, 2), (13, 25), (5, 7), (11, 38), (2, 20), (12, 29)}
        minus = {(1, 25), (13, 7), (5, 38), (11, 20), (2, 29), (12, 2)}
        positions = list(zip(hc.row.tolist(), hc.col.tolist()))
        terms = list(zip(system.var[system.eq == 5].tolist(), system.coef[system.eq == 5].tolist()))
        assert {positions[idx] for idx, coef in terms if coef == 1} == plus
        assert {positions[idx] for idx, coef in terms if coef == -1} == minus

    def test_all_zero_satisfies(self, pair):
        system = assemble_constraints(*pair_walk(pair), 15)
        assert satisfies(system, np.zeros(84, dtype=np.int64))

    def test_constant_assignment_satisfies(self, pair):
        system = assemble_constraints(*pair_walk(pair), 15)
        assert satisfies(system, np.full(84, 11, dtype=np.int64))

    def test_equations_match_oracle_walk(self):
        for params in scan_params()[::5]:
            assert_terms_match_oracle_walk(params, 15)

    @given(params=st.sampled_from(LIFT_PARAMS), p=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_term_arrays_match_oracle_walk(self, params, p):
        assert_terms_match_oracle_walk(params, 2 ** p - 1)


def assert_terms_match_oracle_walk(params: QCParams, modulus: int) -> None:
    """`assemble_constraints` equals the system built term by term from
    the per-row walk: row r holds its E1 variables with +1, then its E2
    variables with -1, in walk order."""
    inst = build_pair(params)
    hc, cycles = pair_walk(inst)
    system = assemble_constraints(hc, cycles, modulus)
    # a variable's index is the row-major rank of its position
    var_index = {pos: k for k, pos in enumerate(
        (m, c) for m, row in enumerate(rows_of(hc)) for c in row)}
    want = mod_system(modulus, len(var_index), [
        [(var_index[pos], 1) for pos in cyc.e1()] + [(var_index[pos], -1) for pos in cyc.e2()]
        for cyc in walk_cycles(hc, inst.expand_d())])
    assert (system.modulus, system.n_vars, system.n_equations) == \
        (want.modulus, want.n_vars, want.n_equations), params
    for got, exp in ((system.eq, want.eq), (system.var, want.var), (system.coef, want.coef)):
        assert got.dtype == np.int64 and np.array_equal(got, exp), params


def dense_nb_product(gamma: NBMatrix, delta: NBMatrix) -> np.ndarray:
    """Dense orthogonality oracle over GF(2^p)."""
    field = gamma.field
    g = gamma.to_dense()
    d = delta.to_dense()
    out = np.zeros((gamma.m, delta.m), dtype=np.int64)
    for i in range(gamma.m):
        for j in range(delta.m):
            acc = 0
            for k in range(gamma.n):
                acc ^= field_mul(field, int(g[i, k]), int(d[j, k]))
            out[i, j] = acc
    return out


def all_ones_lift(pair, field) -> NBMatrix:
    hc = pair.expand_c()
    return NBMatrix(m=hc.m, n=hc.n, role="GAMMA", field=field, params=pair.params,
                    row=hc.row, col=hc.col, val=np.ones_like(hc.col))


class TestLift:
    def test_all_ones_gamma_gives_all_ones_delta(self, pair, gf16):
        gamma = all_ones_lift(pair, gf16)
        delta = solve_delta(gamma, cycle_structure(pair.expand_c(), pair.expand_d()))
        assert all(v == 1 for row in rows_of(delta) for _, v in row)
        assert verify_orthogonal(gamma, delta)

    def test_lift_satisfies_determinant_condition(self, pair, gf16):
        rng = np.random.default_rng(12)
        gamma = lift_gamma(*pair_walk(pair), gf16, pair.params, rng)
        for cyc in array_rows(pair.expand_c(), pair.expand_d()):
            p1, p2 = cycle_products(gamma, cyc)
            assert p1 == p2

    def test_lift_support_and_weights(self, pair, gf16):
        gamma = lift_gamma(*pair_walk(pair), gf16, pair.params, np.random.default_rng(5))
        assert rows_of(gamma.support()) == rows_of(pair.expand_c())
        assert all(v != 0 for row in rows_of(gamma) for _, v in row)

    def test_lift_deterministic(self, pair, gf16):
        a = lift(pair, gf16, np.random.default_rng(77))
        b = lift(pair, gf16, np.random.default_rng(77))
        assert [rows_of(m) for m in a] == [rows_of(m) for m in b]

    def test_lift_composes_its_stages(self, pair, gf16):
        hc, cycles = pair_walk(pair)
        gamma = lift_gamma(hc, cycles, gf16, pair.params, np.random.default_rng(9), True)
        got = lift(pair, gf16, np.random.default_rng(9), reject_trivial=True)
        for a, b in zip(got, (gamma, solve_delta(gamma, cycles))):
            assert (a.m, a.n, a.role, a.params) == (b.m, b.n, b.role, b.params)
            assert rows_of(a) == rows_of(b)

    def test_lift_requires_column_weight_2(self, gf16):
        with pytest.raises(DimensionMismatch, match="J=2"):
            lift(build_pair(QCParams(P=7, J=3, L=6, sigma=2, tau=3)),
                 gf16, np.random.default_rng(0))

    def test_reject_trivial(self, pair, gf16):
        rng = np.random.default_rng(8)
        gamma = lift_gamma(*pair_walk(pair), gf16, pair.params, rng, reject_trivial=True)
        logs = [field_log(gf16, v) for row in rows_of(gamma) for _, v in row]
        assert any(lg != 0 for lg in logs)

    def test_pair_orthogonal_dense_oracle(self, pair, gf16):
        gamma, delta = lift(pair, gf16, np.random.default_rng(21))
        assert not dense_nb_product(gamma, delta).any()
        assert verify_orthogonal(gamma, delta)

    def test_delta_row_scaling_preserves_orthogonality(self, pair, gf16):
        gamma, delta = lift(pair, gf16, np.random.default_rng(31))
        rows = rows_of(delta)
        rows[3] = [(c, field_mul(gf16, v, 7)) for c, v in rows[3]]
        delta = nb_from_rows(delta.m, delta.n, rows, "DELTA", gf16, pair.params)
        assert verify_orthogonal(gamma, delta)

    def test_perturbed_delta_breaks_orthogonality(self, pair, gf16):
        gamma, delta = lift(pair, gf16, np.random.default_rng(41))
        k = np.flatnonzero(delta.row == 2)[3]
        v0 = int(delta.val[k])
        delta.val[k] = v0 ^ 1 if v0 ^ 1 else 3
        assert not verify_orthogonal(gamma, delta)

    def test_closure_violation_detected(self, pair, gf16):
        gamma = all_ones_lift(pair, gf16)
        # corrupt one entry of a cycle so the wrap-around product is off
        gamma.val[0] = 5        # row 0's first entry
        with pytest.raises(ClosureViolation):
            solve_delta(gamma, cycle_structure(pair.expand_c(), pair.expand_d()))

    def test_closure_violation_on_zero_entry(self, pair, gf16):
        gamma = all_ones_lift(pair, gf16)
        rows = rows_of(gamma)
        rows[0] = rows[0][1:]     # a zero on the two cycles through it
        gamma = nb_from_rows(gamma.m, gamma.n, rows, "GAMMA", gf16, pair.params)
        with pytest.raises(ClosureViolation):
            solve_delta(gamma, cycle_structure(pair.expand_c(), pair.expand_d()))

    def test_delta_matches_field_recurrence(self):
        for params in scan_params()[::20]:
            inst = build_pair(params)
            walks = walk_cycles(inst.expand_c(), inst.expand_d())
            for p in (2, 3, 4, 8):
                field = make_field(p)
                gamma, delta = lift(inst, field, np.random.default_rng(p))
                assert rows_of(delta) == recurrence_delta(gamma, walks), (params, p)
                assert (delta.m, delta.n) == (inst.expand_d().m, inst.expand_d().n)

    def test_entry_takes_index_arrays(self, pair, gf16):
        gamma = lift_gamma(*pair_walk(pair), gf16, pair.params, np.random.default_rng(3))
        dense = gamma.to_dense()
        i, j = np.indices(dense.shape)
        got = gamma.entry(i, j)
        assert got.dtype == np.int64 and np.array_equal(got, dense)
        col, value = rows_of(gamma)[4][2]
        assert gamma.entry(4, col) == value and type(gamma.entry(4, col)) is int
        assert gamma.entry(4, col + 1) == 0
        assert gamma.entry(1, -1) == 0 and gamma.entry(0, gamma.n) == 0

    def test_zero_dim_orthogonal(self, gf16):
        empty = nb_from_rows(0, 0, [], "GAMMA", gf16, EX1)
        assert verify_orthogonal(empty, empty)

    @given(seed=st.integers(0, 2 ** 31), p=st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=25, deadline=None)
    def test_random_lifts_orthogonal(self, seed, p):
        params = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
        pair = build_pair(params)
        field = make_field(p)
        gamma, delta = lift(pair, field, np.random.default_rng(seed))
        assert verify_orthogonal(gamma, delta)
        assert rows_of(gamma.support()) == rows_of(pair.expand_c())
        assert rows_of(delta.support()) == rows_of(pair.expand_d())
