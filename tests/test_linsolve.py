"""Exact affine fixpoint solver."""

from fractions import Fraction as F

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
