"""Exact affine fixpoint solver."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from graphings.linsolve import prune, solve_affine, strongly_connected


def test_scc_ordering_is_dependencies_first():
    # 0 depends on 1, 1 and 2 form a cycle
    comps = strongly_connected(3, [[1], [2], [1]])
    assert sorted(map(sorted, comps)) == [[0], [1, 2]]
    order = {min(c): i for i, c in enumerate(comps)}
    assert order[1] < order[0]


def test_single_geometric_loop():
    # x = 1/2 + (1/2) x  =>  x = 1
    [x] = solve_affine([[(0, F(1, 2))]], [F(1, 2)])
    assert x == 1


def test_chain_with_cycle():
    # x0 = x1, x1 = 1/3 + (1/3) x0  =>  x1 = 1/2
    x = solve_affine([[(1, F(1))], [(0, F(1, 3))]], [F(0), F(1, 3)])
    assert x == [F(1, 2), F(1, 2)]


def test_repeated_entries_accumulate():
    # x = 1/4 + (1/4 + 1/4) x => x = 1/2
    [x] = solve_affine([[(0, F(1, 4)), (0, F(1, 4))]], [F(1, 4)])
    assert x == F(1, 2)


def test_singular_system_raises():
    with pytest.raises(ArithmeticError):
        solve_affine([[(0, F(1))]], [F(1)])  # x = 1 + x


def test_singular_component_raises():
    # x0 = x1, x1 = x0: a two-node loop of mass one has no unique solution
    with pytest.raises(ArithmeticError):
        solve_affine([[(1, F(1))], [(0, F(1))]], [F(1), F(0)])


@pytest.mark.parametrize("rows, b", [
    # every diagonal of I - T is zero, so the first pivot needs a row swap
    ([[(0, F(1)), (1, F(1, 2))], [(0, F(1, 3)), (1, F(1))]], [F(1), F(1)]),
    # I - T = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]: the middle pivot cancels to
    # zero during elimination
    ([[(1, F(-1))], [(0, F(-1)), (2, F(-1))], [(1, F(-1))]],
     [F(1), F(2), F(3)]),
])
def test_zero_pivot_is_swapped(rows, b):
    assert len(strongly_connected(len(rows), [[j for j, _ in r] for r in rows])) == 1
    x = solve_affine(rows, b)
    for i, row in enumerate(rows):
        assert x[i] == b[i] + sum((c * x[j] for j, c in row), F(0))


def test_prune_drops_a_loop_that_never_exits():
    # 0 -> 1 and 0 -> 2 by halves; 1 loops on itself with mass one, 2 exits
    succ = [[(1, F(1, 2)), (2, F(1, 2))], [(1, F(1))], []]
    with pytest.raises(ArithmeticError):
        solve_affine(succ, [F(0), F(0), F(1)])
    kept, rows = prune(succ, [2])
    assert kept == [0, 2]
    assert rows == [[(1, F(1, 2))], []]
    assert solve_affine(rows, [F(0), F(1)]) == [F(1, 2), F(1)]


def test_mutual_recursion_solved_exactly():
    rows = [[(1, F(1, 2))], [(0, F(2, 3))]]
    b = [F(1, 2), F(1, 3)]
    x = solve_affine(rows, b)
    assert x[0] == b[0] + F(1, 2) * x[1]
    assert x[1] == b[1] + F(2, 3) * x[0]


@given(st.lists(st.lists(st.tuples(st.integers(0, 4),
                                   st.fractions(0, F(1, 5))),
                         max_size=3),
                min_size=5, max_size=5))
def test_solution_satisfies_the_system(rows):
    rows = [[(j % 5, c) for j, c in row] for row in rows]
    b = [F(1, k + 2) for k in range(5)]
    try:
        x = solve_affine(rows, b)
    except ArithmeticError:
        return
    for i, row in enumerate(rows):
        assert x[i] == b[i] + sum((c * x[j] for j, c in row), F(0))


@st.composite
def ring_systems(draw):
    """One strongly connected component: a ring plus random chords."""
    n = draw(st.integers(10, 40))
    weights = [[((i + 1) % n, draw(st.integers(1, 9)))] for i in range(n)]
    for i, j, w in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(1, 9)),
                                 max_size=2 * n)):
        weights[i].append((j, w))
    rows = []
    for row in weights:
        total = sum(w for _, w in row) + draw(st.integers(1, 5))  # row sum < 1
        rows.append([(j, F(w, total)) for j, w in row])
    b = [F(draw(st.integers(0, 4)), 4) for _ in range(n)]
    return rows, b


@given(ring_systems())
def test_large_component_satisfies_the_system(system):
    rows, b = system
    assert len(strongly_connected(len(rows), [[j for j, _ in r] for r in rows])) == 1
    x = solve_affine(rows, b)
    for i, row in enumerate(rows):
        assert x[i] == b[i] + sum((c * x[j] for j, c in row), F(0))


def dense_reference(rows, b):
    """Gauss-Jordan on the dense ``I - T``; ``None`` when it is singular."""
    n = len(rows)
    a = [[F(int(i == k)) for k in range(n)] + [F(b[i])] for i in range(n)]
    for i, row in enumerate(rows):
        for j, c in row:
            a[i][j] -= c
    for col in range(n):
        r = next((r for r in range(col, n) if a[r][col]), None)
        if r is None:
            return None
        a[col], a[r] = a[r], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# small numerators of either sign over pairwise coprime denominators, so the
# lcm that scales a row to integers meets several distinct primes
_COEFFS = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 7, 11, 13]))


@st.composite
def mixed_systems(draw):
    """Several components: self-loops, repeated and negative entries."""
    n = draw(st.integers(1, 8))
    rows = [[] for _ in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1), _COEFFS),
                                 max_size=3 * n)):
        rows[i].append((j, c))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        if rows[i]:
            rows[i].append(rows[i][0])  # a repeated entry
    b = draw(st.lists(_COEFFS, min_size=n, max_size=n))
    return rows, b


@given(mixed_systems())
def test_solve_matches_a_dense_reference(system):
    rows, b = system
    want = dense_reference(rows, b)
    if want is None:
        with pytest.raises(ArithmeticError):
            solve_affine(rows, b)
        return
    got = solve_affine(rows, b)
    assert got == want
    assert all(type(v) is F for v in got)


def test_repeated_self_entries_summing_to_one_raise():
    # x = 1/4 + (1/7 + 2/7 + 4/7) x: the self-loop has mass exactly one
    with pytest.raises(ArithmeticError):
        solve_affine([[(0, F(1, 7)), (0, F(2, 7)), (0, F(4, 7))]], [F(1, 4)])


def test_forty_node_ring_with_chords_matches_the_reference():
    n = 40
    rows = [[((i + 1) % n, F(1, 7)), ((7 * i + 3) % n, F(2, 11)),
             ((3 * i + 5) % n, F(3, 13)), (i, F(-1, 13))] for i in range(n)]
    b = [F(i % 5, 11) for i in range(n)]
    assert len(strongly_connected(n, [[j for j, _ in r] for r in rows])) == 1
    x = solve_affine(rows, b)
    assert x == dense_reference(rows, b)
    assert all(type(v) is F and gcd(v.numerator, v.denominator) == 1 for v in x)
