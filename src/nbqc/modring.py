"""Cycle-balance systems over the residue ring Z_m, solved on their graph.

The lift constraints are balance equations on discrete logs, taken mod
m = 2^p - 1, one per row of the second QC matrix.  Every variable (a
nonzero of the first matrix) lies on exactly two of the row cycles, one
from each half of the second matrix, with the same coefficient in both:
+1 and +1, or -1 and -1.  Negating the equations of one half does not
change the row module, and it turns the system into the signed
incidence matrix of a bipartite graph: nodes are the equations, edges
are the variables.  `solve_mod` finds such a signing itself, so it
accepts any system in which every variable has exactly two
coefficients, each +-1, and every cycle is balanced; anything else
raises `NotBalancedGraph`.

Why the greedy forest is the Howell form.  m is composite for most p
(15 = 3 * 5), so field-style elimination is unsound in general: pivots
can be zero divisors.  An incidence matrix, however, is totally
unimodular, so a Howell-form reduction of it has only unit pivots.
Taking columns in variable order, a column is a pivot exactly when it
is independent of the columns before it, that is, when its edge joins
two components of the earlier edges.  The pivot columns are therefore
the spanning forest that union-find grows in variable order, and the
free columns are the remaining edges.

Why the draw is unchanged.  For given free values the solution is
unique: adding up the signed equations of the subtree below a forest
edge cancels every edge inside the subtree and leaves that edge against
the free edges that leave it.  Peeling the forest from its leaves thus
gives exactly what back-substitution gives.  Sampling draws the free
variables uniformly from Z_m with one `rng.integers(0, m, size=#free)`
call and nothing else, as the Howell sampler did (a unit pivot draws
nothing), so the same generator yields the same solution.  The Howell
reduction itself is kept in the test suite as the reference.

Costs: O(terms) to build the graph, near-linear union-find, and one
pass over the forest per sample.  No array has one cell per
(equation, variable) pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class NotBalancedGraph(ValueError):
    """The system is not the signed incidence matrix of a balanced graph."""


@dataclass
class ModSystem:
    """Homogeneous system over Z_modulus.

    Each equation is a list of (variable index, coefficient) terms;
    repeated variables accumulate.  The right-hand side is zero.
    """

    modulus: int
    n_vars: int
    equations: list = field(default_factory=list)

    def add_equation(self, terms: list[tuple[int, int]]) -> None:
        self.equations.append(list(terms))

    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(equation, variable, coefficient) arrays of every term."""
        lengths = np.fromiter(map(len, self.equations), dtype=np.int64,
                              count=len(self.equations))
        flat = np.array(list(itertools.chain.from_iterable(self.equations)),
                        dtype=np.int64).reshape(-1, 2)
        return np.repeat(np.arange(len(self.equations)), lengths), flat[:, 0], flat[:, 1]

    def check(self, assignment: np.ndarray) -> bool:
        """True iff the assignment satisfies every equation mod modulus."""
        x = np.asarray(assignment, dtype=np.int64)
        eqs, var, coef = self.terms()
        sums = np.zeros(len(self.equations), dtype=np.int64)
        np.add.at(sums, eqs, coef * x[var])
        return not np.any(sums % self.modulus)


@dataclass
class SolutionSpace:
    """The spanning forest of a balanced system and its peeling order.

    pivot_cols are the forest edges in variable order, free_cols the
    other variables.  free_ends/free_coefs hold the two equations of
    each free variable and its signed coefficient in each.  The peel
    lists the forest edges from the leaves inwards: edge peel_edges[k]
    is solved from the subtree below peel_child[k], whose signed total
    then joins that of peel_parent[k]; peel_coefs[k] is the edge's
    signed coefficient at the child.
    """

    modulus: int
    n_vars: int
    pivot_cols: list
    free_cols: list
    free_ends: np.ndarray         # (#free, 2) equation indices
    free_coefs: np.ndarray        # (#free, 2) signed coefficients, +-1 mod m
    peel_edges: list
    peel_child: list
    peel_parent: list
    peel_coefs: np.ndarray        # (#pivots,) signed coefficients, +-1 mod m
    n_equations: int


def _incidence(system: ModSystem) -> tuple[np.ndarray, np.ndarray]:
    """The two equations of every variable and its coefficient in each.

    Returns (n_vars, 2) arrays, equations ascending within a row.
    Raises NotBalancedGraph unless every variable has exactly two
    nonzero coefficients mod m and each is +-1.
    """
    m, n = system.modulus, system.n_vars
    eqs, var, coef = system.terms()
    if len(var) and (var.min() < 0 or var.max() >= n):
        raise NotBalancedGraph(f"variable index outside [0, {n})")
    n_eqs = max(len(system.equations), 1)
    keys, where = np.unique(var * n_eqs + eqs, return_inverse=True)
    totals = np.zeros(len(keys), dtype=np.int64)
    np.add.at(totals, where, coef)
    totals %= m
    keys, totals = keys[totals != 0], totals[totals != 0]
    counts = np.bincount(keys // n_eqs, minlength=n)
    if (counts != 2).any():
        v = int(np.flatnonzero(counts != 2)[0])
        raise NotBalancedGraph(f"variable {v} is in {counts[v]} equations, not 2")
    bad = (totals != 1) & (totals != m - 1)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise NotBalancedGraph(f"variable {keys[k] // n_eqs} has coefficient "
                               f"{totals[k]}, not +-1 mod {m}")
    return (keys % n_eqs).reshape(n, 2), totals.reshape(n, 2)


def solve_mod(system: ModSystem) -> SolutionSpace:
    """Pivot and free columns of a cycle-balance system, plus its peel.

    The pivots are the spanning forest grown by union-find in variable
    order; each node's sign relative to its tree root is fixed along
    the forest, and every free edge must then cancel under those signs.
    Raises NotBalancedGraph for a system that is not a graph (see
    `_incidence`) or has a free edge that closes an unbalanced cycle.
    """
    m, n = system.modulus, system.n_vars
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    ends, coefs = _incidence(system)
    n_eqs = len(system.equations)

    root = list(range(n_eqs))
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n_eqs)]
    pivots = []
    for e, (a, b) in enumerate(ends.tolist()):
        ra, rb = a, b
        while root[ra] != ra:
            root[ra] = ra = root[root[ra]]
        while root[rb] != rb:
            root[rb] = rb = root[root[rb]]
        if ra != rb:
            root[ra] = rb
            pivots.append(e)
            adjacent[a].append((e, 0))
            adjacent[b].append((e, 1))

    # root each tree at its lowest equation; sign[k] * coef cancels across every forest edge
    c, far = coefs.tolist(), ends.tolist()
    sign = [0] * n_eqs
    edges, children, parents, peel_coefs = [], [], [], []
    for r in range(n_eqs):
        if sign[r]:
            continue
        sign[r] = 1
        queue = [r]
        for node in queue:
            for e, side in adjacent[node]:
                child = far[e][1 - side]
                if not sign[child]:
                    sign[child] = -sign[node] * c[e][side] * c[e][1 - side] % m
                    edges.append(e)
                    children.append(child)
                    parents.append(node)
                    peel_coefs.append(sign[child] * c[e][1 - side] % m)
                    queue.append(child)

    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    free_coefs = np.array(sign, dtype=np.int64)[ends[free]] * coefs[free] % m
    unbalanced = np.flatnonzero(free_coefs.sum(axis=1) % m)
    if len(unbalanced):
        raise NotBalancedGraph(
            f"variable {free[unbalanced[0]]} closes an unbalanced cycle mod {m}")
    # breadth-first order reversed: every subtree is peeled before its root
    return SolutionSpace(m, n, pivots, free.tolist(), ends[free], free_coefs,
                         edges[::-1], children[::-1], parents[::-1],
                         np.array(peel_coefs[::-1], dtype=np.int64), n_eqs)


def sample_solution(space: SolutionSpace, rng: np.random.Generator) -> np.ndarray:
    """Draw one solution, uniformly over the full solution set.

    Free variables are uniform on Z_m; each forest edge then follows
    from the signed total of the subtree below it, leaves first.
    """
    m = space.modulus
    x = np.zeros(space.n_vars, dtype=np.int64)
    if space.free_cols:
        x[space.free_cols] = rng.integers(0, m, size=len(space.free_cols))
    totals = np.zeros(space.n_equations, dtype=np.int64)
    np.add.at(totals, space.free_ends, space.free_coefs * x[space.free_cols][:, None])
    totals = totals.tolist()
    for child, parent in zip(space.peel_child, space.peel_parent):
        totals[parent] += totals[child]
    subtree = np.array(totals, dtype=np.int64)[space.peel_child]
    x[space.peel_edges] = -space.peel_coefs * subtree % m
    return x
