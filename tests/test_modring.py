"""Balance-graph solver tests.

The oracles are substitution (every sample must satisfy every equation),
the Howell-form solver in `oracles`, which handles any homogeneous
system over Z_m, and, for small systems, exhaustive enumeration of
Z_m^n.  `TestSolveMod` and most of `TestSampling` exercise the Howell
oracle itself on general systems; `TestGraphSolver` holds the library
solver to it on balance graphs, whose term arrays `oracles.terms_of`
lists.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (ModSystem, dense_rows, howell_sample, howell_solve, mod_system, pair_walk,
                     satisfies, terms_of)
from nbqc.gf2p import make_field
from nbqc.modring import BalanceGraph, NotBalancedGraph, sample_solution, solve_mod
from nbqc.nblift import assemble_constraints
from nbqc.qcpair import QCParams, build_pair, find_params

EX1 = QCParams(P=7, J=2, L=6, sigma=2, tau=3)
LIFT_PARAMS = [params for L in (4, 6, 8, 10) for params in find_params(L, range(3, 32))]


def brute_force_solutions(system: ModSystem) -> set:
    """All of Z_m^n filtered by substitution, vectorised."""
    m, n = system.modulus, system.n_vars
    grids = np.meshgrid(*[np.arange(m, dtype=np.int16)] * n, indexing="ij")
    xs = np.stack([g.reshape(-1) for g in grids], axis=1)
    rows = dense_rows(system)
    ok = ~np.any(xs.astype(np.int64) @ rows.T % m, axis=1)
    return {tuple(map(int, x)) for x in xs[ok]}


def single_equation_system() -> ModSystem:
    return mod_system(15, 4, [[(0, 1), (1, 1), (2, -1), (3, -1)]])


class TestSolveMod:
    def test_zero_always_solves(self):
        space = howell_solve(single_equation_system())
        zero = np.zeros(4, dtype=np.int64)
        assert satisfies(single_equation_system(), zero)
        assert any((s == 0).all() for s in space.enumerate())

    def test_arithmetic_identity_solution(self):
        assert satisfies(single_equation_system(), np.array([1, 2, 3, 0]))

    def test_empty_system_all_free(self):
        space = howell_solve(mod_system(15, 3))
        assert space.free_cols == [0, 1, 2]
        assert space.count() == 15 ** 3

    def test_single_equation_space_size(self):
        space = howell_solve(single_equation_system())
        # one unit-pivot constraint: 15^3 solutions
        assert space.count() == 15 ** 3

    @pytest.mark.parametrize("modulus", [2, 6, 15])
    def test_brute_force_agreement_small(self, modulus):
        system = mod_system(modulus, 3, [[(0, 1), (1, 2), (2, -1)], [(0, 3), (2, 3)]])
        space = howell_solve(system)
        assert {tuple(map(int, s)) for s in space.enumerate()} == brute_force_solutions(system)

    def test_brute_force_agreement_zero_divisor_pivots(self):
        # all coefficients share factors with 15: forces gcd pivoting
        system = mod_system(15, 3, [[(0, 3), (1, 5)], [(1, 6), (2, 10)]])
        space = howell_solve(system)
        assert {tuple(map(int, s)) for s in space.enumerate()} == brute_force_solutions(system)

    def test_brute_force_agreement_six_vars_mod_15(self):
        system = mod_system(15, 6, [[(0, 1), (1, 1), (2, -1), (3, -1)],
                                    [(2, 1), (3, 1), (4, -1), (5, -1)],
                                    [(0, 5), (4, 10)]])
        space = howell_solve(system)
        got = {tuple(map(int, s)) for s in space.enumerate()}
        assert got == brute_force_solutions(system)

    def test_howell_idempotent(self):
        system = terms_of(assemble_constraints(*pair_walk(build_pair(EX1)), 15))
        space = howell_solve(system)
        again = mod_system(15, system.n_vars, [[(int(c), int(v)) for c, v in enumerate(row) if v]
                                               for row in space.pivot_rows])
        space2 = howell_solve(again)
        assert space.pivot_cols == space2.pivot_cols
        assert space.pivot_vals == space2.pivot_vals
        assert np.array_equal(space.pivot_rows, space2.pivot_rows)

    def test_modulus_one(self):
        system = mod_system(1, 2, [[(0, 1), (1, 1)]])
        space = howell_solve(system)
        rng = np.random.default_rng(0)
        assert np.array_equal(howell_sample(space, rng), np.zeros(2, dtype=np.int64))

    @given(modulus=st.integers(2, 30), n_vars=st.integers(1, 5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_systems_samples_satisfy(self, modulus, n_vars, data):
        n_eq = data.draw(st.integers(0, 4))
        system = mod_system(modulus, n_vars, [data.draw(st.lists(
            st.tuples(st.integers(0, n_vars - 1), st.integers(-10, 10)),
            min_size=1, max_size=6)) for _ in range(n_eq)])
        space = howell_solve(system)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        for _ in range(5):
            x = howell_sample(space, rng)
            assert satisfies(system, x)
            assert not np.any(dense_rows(system) @ x % modulus)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        space = howell_solve(single_equation_system())
        a = howell_sample(space, np.random.default_rng(99))
        b = howell_sample(space, np.random.default_rng(99))
        assert np.array_equal(a, b)
        graph = solve_mod(assemble_constraints(*pair_walk(build_pair(EX1)), 15))
        a = sample_solution(graph, np.random.default_rng(99))
        b = sample_solution(graph, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_all_free_uniformity_chi2(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        space = howell_solve(mod_system(15, 1))
        rng = np.random.default_rng(7)
        draws = np.array([howell_sample(space, rng)[0] for _ in range(10_000)])
        counts = np.bincount(draws, minlength=15)
        chi2 = ((counts - 10_000 / 15) ** 2 / (10_000 / 15)).sum()
        assert chi2 < scipy_stats.chi2.ppf(0.999, df=14)

    def test_uniform_over_constrained_space(self):
        # 3x = 0 mod 15 has solutions {0, 5, 10}; each should appear ~1/3
        system = mod_system(15, 1, [[(0, 3)]])
        space = howell_solve(system)
        rng = np.random.default_rng(11)
        draws = np.array([howell_sample(space, rng)[0] for _ in range(3000)])
        assert set(np.unique(draws)) == {0, 5, 10}
        counts = np.bincount(draws, minlength=15)[[0, 5, 10]]
        assert (np.abs(counts - 1000) < 150).all()

    def test_example_construction_system(self):
        hc, cycles = pair_walk(build_pair(EX1))
        graph = assemble_constraints(hc, cycles, 15)
        system = terms_of(graph)
        assert system.n_equations == 14
        assert system.n_vars == 84 == hc.nnz()
        for e in range(14):
            coefs = system.coef[system.eq == e]
            assert len(coefs) == 12
            assert np.count_nonzero(coefs == 1) == 6
            assert np.count_nonzero(coefs == -1) == 6
        space = solve_mod(graph)
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert satisfies(system, sample_solution(space, rng))

    def test_gf256_modulus_system(self):
        # composite 255 = 3 * 5 * 17
        field = make_field(8)
        graph = assemble_constraints(*pair_walk(build_pair(EX1)), field.q - 1)
        space = solve_mod(graph)
        rng = np.random.default_rng(4)
        assert satisfies(terms_of(graph), sample_solution(space, rng))

    @pytest.mark.parametrize("modulus", [63, 4095])
    def test_square_factor_moduli(self, modulus):
        # 2^6-1 and 2^12-1 carry the square factor 9; pivots can be 3, 9, 21
        rng = np.random.default_rng(modulus)
        for trial in range(30):
            system = mod_system(modulus, 5, [[(int(v), int(c)) for v, c in zip(
                rng.integers(0, 5, size=4),
                rng.choice([3, 9, 21, 63, 1, -1, 5, 7], size=4))]
                for _ in range(int(rng.integers(1, 5)))])
            space = howell_solve(system)
            for _ in range(8):
                assert satisfies(system, howell_sample(space, rng))

    def test_square_factor_brute_force_agreement(self):
        # modulus 9: pivot normalisation must land on divisors {1, 3, 9}
        system = mod_system(9, 3, [[(0, 3), (1, 6), (2, 1)], [(0, 6), (1, 3)]])
        space = howell_solve(system)
        assert {tuple(map(int, s)) for s in space.enumerate()} == brute_force_solutions(system)


def balance_graph(modulus: int, n_equations: int, edges) -> BalanceGraph:
    """The balance graph whose variable v joins equations a and b with
    coefficients c and d, for edges[v] = ((a, c), (b, d))."""
    terms = np.array(edges, dtype=np.int64).reshape(-1, 2, 2)
    return BalanceGraph(modulus=modulus, n_equations=n_equations,
                        ends=terms[:, :, 0].copy(), coefs=terms[:, :, 1].copy())


@st.composite
def balanced_graphs(draw):
    """A random bipartite balance graph, equations shuffled.

    Each edge carries the same coefficient, +1 or -1, at both ends, as
    the lift's variables do; some equations are then negated, which
    keeps every cycle balanced.  Each edge lists its equations
    ascending, as `assemble_constraints` does.
    """
    modulus = draw(st.sampled_from([3, 7, 15, 63, 255]))
    top, bottom = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    edges = draw(st.lists(st.tuples(st.integers(0, top - 1), st.integers(0, bottom - 1),
                                    st.sampled_from([1, -1])), max_size=14))
    nodes = top + bottom
    negate = draw(st.lists(st.booleans(), min_size=nodes, max_size=nodes))
    slot = draw(st.permutations(range(nodes)))
    return balance_graph(modulus, nodes, [sorted((slot[node], -c if negate[node] else c)
                                                 for node in (a, top + b)) for a, b, c in edges])


def assert_matches_oracle(graph: BalanceGraph, seed: int) -> None:
    system = terms_of(graph)
    space, howell = solve_mod(graph), howell_solve(system)
    assert space.pivot_cols == howell.pivot_cols
    assert space.free_cols == howell.free_cols
    assert set(howell.pivot_vals) <= {1}
    x = sample_solution(space, np.random.default_rng(seed))
    assert np.array_equal(x, howell_sample(howell, np.random.default_rng(seed)))
    assert satisfies(system, x)


class TestGraphSolver:
    @given(graph=balanced_graphs(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_balanced_graphs_match_howell(self, graph, seed):
        assert_matches_oracle(graph, seed)

    @given(params=st.sampled_from(LIFT_PARAMS), p=st.sampled_from([2, 3, 4, 8]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lift_systems_match_howell(self, params, p, seed):
        graph = assemble_constraints(*pair_walk(build_pair(params)), 2 ** p - 1)
        assert_matches_oracle(graph, seed)

    def test_resampling_consumes_the_same_stream(self):
        graph = assemble_constraints(*pair_walk(build_pair(EX1)), 3)
        space, howell = solve_mod(graph), howell_solve(terms_of(graph))
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            assert np.array_equal(sample_solution(space, rng_a), howell_sample(howell, rng_b))

    @given(graph=balanced_graphs(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_unbalanced_cycle_raises(self, graph, data):
        free = solve_mod(graph).free_cols
        assume(free)
        v = data.draw(st.sampled_from(free))
        graph.coefs[v, 0] *= -1         # at the lower of its two equations
        with pytest.raises(NotBalancedGraph, match=f"variable {v} closes an unbalanced cycle"):
            solve_mod(graph)
        # the elimination finds an extra pivot: the cycle pins its edges
        assert len(howell_solve(terms_of(graph)).free_cols) < len(free)

    @pytest.mark.parametrize("edges, n_equations, modulus, message", [
        ([((0, 2), (1, -2))], 2, 15, "coefficient 2, not"),
        ([((0, 1), (1, 1))], 1, 15, "outside"),
        ([((-1, 1), (0, 1))], 2, 15, "outside"),
        ([((1, 1), (1, -1))], 2, 15, "variable 0 is a self-loop"),
        ([((0, 1), (1, 1)), ((0, 1), (0, 1))], 2, 15, "variable 1 is a self-loop"),
    ], ids=["coefficient-2", "equation-above-range", "equation-below-range", "self-loop",
            "second-edge-self-loop"])
    def test_malformed_systems_raise(self, edges, n_equations, modulus, message):
        with pytest.raises(NotBalancedGraph, match=message):
            solve_mod(balance_graph(modulus, n_equations, edges))

    def test_equation_index_outside_raises(self):
        system = balance_graph(15, 2, [((0, 1), (1, -1))])
        system.ends[0, 1] = 2
        with pytest.raises(NotBalancedGraph, match="equation index outside"):
            solve_mod(system)

    def test_coefficients_reduce_mod_m(self):
        # 16 = -14 = 1 mod 15: two parallel edges, both (+1, +1)
        system = balance_graph(15, 2, [((0, 1), (1, 16)), ((0, 1), (1, -14))])
        space = solve_mod(system)
        assert (space.pivot_cols, space.free_cols) == ([0], [1])
        x = sample_solution(space, np.random.default_rng(1))
        assert satisfies(terms_of(system), x) and x[0] == (15 - x[1]) % 15

    @pytest.mark.parametrize("modulus", [0, 1])
    def test_modulus_below_two_rejected(self, modulus):
        with pytest.raises(ValueError, match="modulus"):
            solve_mod(balance_graph(modulus, 0, []))

    def test_check_needs_no_dense_matrix(self):
        # 5 * 10^4 equations over 10^5 variables: a dense int64 matrix
        # would take 40 GB
        n = 50_000
        system = mod_system(15, 2 * n, [[(2 * i, 1), (2 * i + 1, -1)] for i in range(n)])
        x = np.repeat(np.arange(n) % 15, 2)
        assert satisfies(system, x)
        x[-1] += 1
        assert not satisfies(system, x)
