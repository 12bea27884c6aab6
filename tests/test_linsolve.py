"""Exact affine fixpoint solver."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from graphings.linsolve import prune, solve_affine, strongly_connected


def over_one_den(rows, b):
    """A rational system ``x = b + T x`` as ints over the lcm of its
    denominators: the arguments ``solve_affine`` takes."""
    den = lcm(*(F(c).denominator for row in rows for _, c in row),
              *(F(v).denominator for v in b))
    return ([[(j, int(c * den)) for j, c in row] for row in rows],
            [int(v * den) for v in b], den)


def solve(rows, b):
    """``solve_affine`` on a rational system, its pairs read back as
    ``Fraction``s once each is checked to be ints in lowest terms over a
    positive denominator."""
    nums, dens = solve_affine(*over_one_den(rows, b))
    assert len(nums) == len(dens) == len(rows)
    assert all(type(v) is int for v in nums + dens)
    assert all(d > 0 and gcd(n, d) == 1 for n, d in zip(nums, dens))
    return [F(n, d) for n, d in zip(nums, dens)]


def test_scc_ordering_is_dependencies_first():
    # 0 depends on 1, 1 and 2 form a cycle
    comps = strongly_connected(3, [[(1, F(1))], [(2, F(1))], [(1, F(1))]])
    assert sorted(map(sorted, comps)) == [[0], [1, 2]]
    order = {min(c): i for i, c in enumerate(comps)}
    assert order[1] < order[0]


def test_single_geometric_loop():
    # x = (1 + x) / 2  =>  x = 1, as the pair 1 / 1
    assert solve_affine([[(0, 1)]], [1], 2) == ([1], [1])


def test_chain_with_cycle():
    # x0 = 3 x1 / 3, x1 = (1 + x0) / 3  =>  x1 = 1/2
    assert solve_affine([[(1, 3)], [(0, 1)]], [0, 1], 3) == ([1, 1], [2, 2])


def test_repeated_entries_accumulate():
    # x = (1 + x + x) / 4 => x = 1/2
    assert solve_affine([[(0, 1), (0, 1)]], [1], 4) == ([1], [2])


def test_singular_system_raises():
    with pytest.raises(ArithmeticError):
        solve_affine([[(0, 1)]], [1], 1)  # x = 1 + x


def test_singular_component_raises():
    # x0 = x1, x1 = x0: a two-node loop of mass one has no unique solution
    with pytest.raises(ArithmeticError):
        solve_affine([[(1, 1)], [(0, 1)]], [1, 0], 1)


@pytest.mark.parametrize("den", [0, -2])
def test_denominator_must_be_positive(den):
    with pytest.raises(ValueError, match="denominator must be positive"):
        solve_affine([[]], [1], den)


@pytest.mark.parametrize("rows, b", [
    # every diagonal of I - T is zero, so the first pivot needs a row swap
    ([[(0, F(1)), (1, F(1, 2))], [(0, F(1, 3)), (1, F(1))]], [F(1), F(1)]),
    # I - T = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]: the middle pivot cancels to
    # zero during elimination
    ([[(1, F(-1))], [(0, F(-1)), (2, F(-1))], [(1, F(-1))]],
     [F(1), F(2), F(3)]),
])
def test_zero_pivot_is_swapped(rows, b):
    assert len(strongly_connected(len(rows), rows)) == 1
    x = solve(rows, b)
    for i, row in enumerate(rows):
        assert x[i] == b[i] + sum((c * x[j] for j, c in row), F(0))


def test_prune_drops_a_loop_that_never_exits():
    # 0 -> 1 and 0 -> 2 by halves; 1 loops on itself with mass one, 2 exits.
    # preds[i] lists the moves into i, so the rows give the mass arriving
    # at each node from a seed of one at 0, all over the denominator 2.
    preds = [[], [(0, 1), (1, 2)], [(0, 1)]]
    with pytest.raises(ArithmeticError):
        solve_affine(preds, [2, 0, 0], 2)
    kept, rows = prune(preds, [2])
    assert kept == [0, 2]
    assert rows == [[], [(0, 1)]]
    assert solve_affine(rows, [2, 0], 2) == ([1, 1], [1, 2])


def test_mutual_recursion_solved_exactly():
    rows = [[(1, F(1, 2))], [(0, F(2, 3))]]
    b = [F(1, 2), F(1, 3)]
    assert over_one_den(rows, b) == ([[(1, 3)], [(0, 4)]], [3, 2], 6)
    x = solve(rows, b)
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
        x = solve(rows, b)
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
    assert len(strongly_connected(len(rows), rows)) == 1
    x = solve(rows, b)
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
            solve(rows, b)
        return
    assert solve(rows, b) == want


def test_repeated_self_entries_summing_to_one_raise():
    # x = 1/4 + (1/7 + 2/7 + 4/7) x, over 28: the self-loop has mass one
    with pytest.raises(ArithmeticError):
        solve_affine([[(0, 4), (0, 8), (0, 16)]], [7], 28)


def test_forty_node_ring_with_chords_matches_the_reference():
    n = 40
    rows = [[((i + 1) % n, F(1, 7)), ((7 * i + 3) % n, F(2, 11)),
             ((3 * i + 5) % n, F(3, 13)), (i, F(-1, 13))] for i in range(n)]
    b = [F(i % 5, 11) for i in range(n)]
    assert len(strongly_connected(n, rows)) == 1
    assert solve(rows, b) == dense_reference(rows, b)


# --- the solver before column indexing, as a reference ---------------------------


def _reference_gather(row, b_i, x):
    num, den = b_i.numerator, b_i.denominator
    unsolved = []
    for j, c in row:
        v = x[j]
        if v is None:
            unsolved.append((j, c))
            continue
        d = c.denominator * v.denominator
        g = gcd(den, d)
        num = num * (d // g) + c.numerator * v.numerator * (den // g)
        den = den // g * d
    return num, den, unsolved


def _reference_component(rows, b, x, comp):
    """Diagonal pivots, a swap only on a zero, every later row probed, and
    back-substitution over one common denominator."""
    order = {node: k for k, node in enumerate(comp)}
    system, rhs = [], []
    for k, node in enumerate(comp):
        num, den, inner = _reference_gather(rows[node], b[node], x)
        scale = lcm(den, *(c.denominator for _, c in inner))
        row = {k: scale}
        for j, c in inner:
            local = order[j]
            row[local] = row.get(local, 0) - c.numerator * (scale // c.denominator)
        system.append({c: v for c, v in row.items() if v})
        rhs.append(num * (scale // den))
    m = len(comp)
    pivots = []
    for col in range(m):
        r = next((r for r in range(col, m) if system[r].get(col)), None)
        if r is None:
            raise ArithmeticError("singular linear system")
        system[col], system[r] = system[r], system[col]
        rhs[col], rhs[r] = rhs[r], rhs[col]
        pivot = system[col]
        p = pivot.pop(col)
        pivots.append(p)
        for r in range(col + 1, m):
            row = system[r]
            f = row.pop(col, 0)
            if f:
                for c in row:
                    row[c] *= p
                for c, v in pivot.items():
                    row[c] = row.get(c, 0) - f * v
                rhs[r] = p * rhs[r] - f * rhs[col]
                g = gcd(rhs[r], *row.values()) or 1
                system[r] = {c: v // g for c, v in row.items() if v}
                rhs[r] //= g
    num, den = [0] * m, 1
    for k in range(m - 1, -1, -1):
        s = rhs[k] * den - sum(v * num[c] for c, v in system[k].items())
        d = pivots[k] * den
        if d < 0:
            s, d = -s, -d
        g = gcd(s, d)
        s, d = s // g, d // g
        grow = d // gcd(d, den)
        if grow > 1:
            num = [v * grow for v in num]
            den *= grow
        num[k] = s * (den // d)
    return [F(v, den) for v in num]


def reference_solve(rows, b):
    """The solve with the reference components and the one-node closed form."""
    x = [None] * len(rows)
    for comp in strongly_connected(len(rows), rows):
        if len(comp) > 1:
            for node, value in zip(comp, _reference_component(rows, b, x, comp)):
                x[node] = value
            continue
        node = comp[0]
        num, den, loops = _reference_gather(rows[node], b[node], x)
        acc = F(num, den)
        if loops:
            loop = sum(c for _, c in loops)
            if loop == 1:
                raise ArithmeticError("singular linear system")
            acc /= 1 - loop
        x[node] = acc
    return x


_SPLITS = st.sampled_from([(F(1, 5), F(4, 5)), (F(1, 2), F(1, 2)),
                           (F(2, 3), F(1, 3)), (F(1, 7), F(5, 7))])


@st.composite
def birth_death_chains(draw):
    """Pushdown-like chains: three states per stack height, each stepping up
    or down a level with a drawn split; the top and bottom levels leak."""
    levels = draw(st.integers(4, 20))
    n = 3 * levels
    rows = [[] for _ in range(n)]
    for level in range(levels):
        for s in range(3):
            up, down = draw(_SPLITS)
            i = 3 * level + s
            if level + 1 < levels:
                rows[i].append((3 * (level + 1) + draw(st.integers(0, 2)), up))
            if level:
                rows[i].append((3 * (level - 1) + draw(st.integers(0, 2)), down))
    b = [F(int(i < 3)) for i in range(n)]
    return rows, b


@st.composite
def pure_rings(draw):
    """A plain cycle of 2-6 nodes; weights of one make it singular."""
    n = draw(st.integers(2, 6))
    weights = st.sampled_from([F(1), F(1, 2), F(1, 3), F(4, 5), F(-2, 3)])
    rows = [[((i + 1) % n, draw(weights))] for i in range(n)]
    b = [F(draw(st.integers(0, 3)), 3) for _ in range(n)]
    return rows, b


@st.composite
def far_swaps(draw):
    """A ring whose drawn rows have a self-entry of one, so their diagonal in
    ``I - T`` is zero and the pivot comes from a row far below."""
    n = draw(st.integers(8, 30))
    rows = [[((i + 1) % n, F(1, 3))] for i in range(n)]
    for i in draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=3,
                           unique=True)):
        rows[i].append((i, F(1)))
    rows[n - 1].append((draw(st.integers(0, n // 3)), F(1, 2)))
    b = [F(draw(st.integers(0, 4)), 4) for _ in range(n)]
    return rows, b


@given(st.one_of(birth_death_chains(), pure_rings(), far_swaps(),
                 ring_systems(), mixed_systems()))
def test_solve_matches_the_solver_before_column_indexing(system):
    rows, b = system
    try:
        want = reference_solve(rows, b)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            solve(rows, b)
        return
    assert solve(rows, b) == want


# numerators of either sign over denominators drawn entry by entry, so the
# one denominator of a system is the lcm of several unrelated ones
_RATIONALS = st.builds(F, st.integers(-5, 5), st.integers(1, 30))


@st.composite
def rational_systems(draw, singular=False):
    """Sparse systems over unrelated denominators; with ``singular``, one
    drawn node reads ``x = b + x``, a zero row of ``I - T``."""
    n = draw(st.integers(1, 12))
    rows = [draw(st.lists(st.tuples(st.integers(0, n - 1), _RATIONALS),
                          max_size=4)) for _ in range(n)]
    b = draw(st.lists(_RATIONALS, min_size=n, max_size=n))
    if singular:
        k = draw(st.integers(0, n - 1))
        rows[k] = [(k, F(1))]
    return rows, b


@given(st.one_of(rational_systems(), rational_systems(singular=True),
                 pure_rings(), birth_death_chains()))
def test_int_solve_matches_the_fraction_reference(system):
    rows, b = system
    singular = any(row == [(i, F(1))] for i, row in enumerate(rows))
    args = over_one_den(rows, b)
    try:
        want = reference_solve(rows, b)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            solve_affine(*args)
        return
    assert not singular
    nums, dens = solve_affine(*args)
    assert all(type(v) is int for v in nums + dens)
    assert all(d > 0 and gcd(n, d) == 1 for n, d in zip(nums, dens))
    assert [F(n, d) for n, d in zip(nums, dens)] == want


@pytest.mark.parametrize("n", [46, 2000])
@pytest.mark.parametrize("reverse", [False, True], ids=["up", "down"])
def test_gamblers_ruin_has_its_closed_form(n, reverse):
    # states 1..n-1 step up by 1/5 and down by 4/5; 0 and n absorb, and
    # reaching n from k has probability (4^k - 1) / (4^n - 1)
    def node(k):
        return n - 1 - k if reverse else k - 1

    succ = [[] for _ in range(n - 1)]
    for k in range(1, n):
        if k + 1 < n:
            succ[node(k)].append((node(k + 1), F(1, 5)))
        if k > 1:
            succ[node(k)].append((node(k - 1), F(4, 5)))
    top = node(n - 1)
    b = [F(0)] * (n - 1)
    b[top] = F(1, 5)
    want = [F(4 ** k - 1, 4 ** n - 1) for k in range(1, n)]
    x = solve(succ, b)
    assert [x[node(k)] for k in range(1, n)] == want
    # the same walk as mass arriving from a start at k: its rows are the
    # moves into each state, and the mass leaving through n is 1/5 of the
    # mass arriving at n - 1
    k = n // 2
    preds = [[] for _ in range(n - 1)]
    for i, row in enumerate(succ):
        for j, p in row:
            preds[j].append((i, p))
    seed = [F(0)] * (n - 1)
    seed[node(k)] = F(1)
    assert solve(preds, seed)[top] * F(1, 5) == want[k - 1]
