"""Exact solver for the affine fixpoint ``x = b + T x`` over the rationals.

Path sums around cycles are geometric series; with finitely many nodes they
are the unique solution of a sparse affine system.  The solver decomposes the
dependency graph into strongly connected components (iterative Tarjan, safe
for deep graphs) and walks them so that every dependency is solved first.  A
component of one node is solved in closed form.  A larger one is scaled to
integers row by row and eliminated fraction-free over sparse dict rows, in the
style of Bareiss (*Math. Comp.* 22, 1968) but dividing each updated row by its
gcd, so no ``Fraction`` is built until the exact, normalised values come out.
``prune`` is the reachability cut every caller applies first.

Raises ``ArithmeticError`` when a component's system is singular, which the
callers translate into their own domain errors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# configurations a walk may intern before its solve: the one budget of the
# oracle, the path sum and plug, read when each walk runs
MAX_NODES = 500_000


def strongly_connected(n: int, adj) -> list[list[int]]:
    """Tarjan's algorithm, iteratively; components come out dependencies-first.

    ``adj[i]`` lists the nodes that ``i`` depends on, so every component is
    emitted after all the components it can reach.
    """
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 1
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, iter(adj[root]))]
        visited[root] = True
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if not visited[child]:
                    visited[child] = True
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(adj[child])))
                    advanced = True
                    break
                if on_stack[child]:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack[v] = False
                    comp.append(v)
                    if v == node:
                        break
                out.append(comp)
    return out


def prune(succ, targets):
    """Keep the nodes that reach a target; renumber them; return ``(kept, rows)``.

    ``succ[i]`` lists the ``(j, weight)`` edges out of node ``i``.  ``kept``
    is the sorted list of nodes that reach some node of ``targets``, and
    ``rows[s]`` lists the edges of ``kept[s]`` into kept nodes, renumbered.
    A node that reaches no target has value zero, so dropping it keeps
    probability-one loops that never exit out of the solve; the predecessors
    of kept nodes are all kept, so mass arriving at kept nodes is unchanged.
    """
    preds = [[] for _ in succ]
    for i, row in enumerate(succ):
        for j, _ in row:
            preds[j].append(i)
    live = set(targets)
    frontier = list(live)
    while frontier:
        for i in preds[frontier.pop()]:
            if i not in live:
                live.add(i)
                frontier.append(i)
    kept = sorted(live)
    remap = {i: s for s, i in enumerate(kept)}
    return kept, [[(remap[j], p) for j, p in succ[i] if j in remap] for i in kept]


def _gather(row, b_i, x):
    """Split ``b_i + sum(c * x[j] for (j, c) in row)`` into known and unknown.

    The terms whose ``x[j]`` is already solved are summed exactly as
    ``num / den``, ``den`` the lcm of their denominators; the entries whose
    ``x[j]`` is still ``None`` are returned as they are.
    """
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


def _solve_component(rows, b, x, comp) -> list[Fraction]:
    """Solve one strongly connected component of two or more nodes exactly.

    Each row of ``I - T`` and its right-hand side (``b`` plus the already
    solved dependencies) is scaled to integers by the lcm of its denominators.
    Column by column the diagonal is the pivot; a later row is swapped in only
    when it is zero.  Rows below are cleared fraction-free,
    ``row = p * row - f * pivot_row``, and divided by the gcd of their entries
    and right-hand side, so the integers stay small.  Back-substitution over
    the finished rows keeps one common denominator, and each value becomes a
    ``Fraction`` once, at the end.
    """
    order = {node: k for k, node in enumerate(comp)}
    system, rhs = [], []
    for k, node in enumerate(comp):
        num, den, inner = _gather(rows[node], b[node], x)
        scale = lcm(den, *(c.denominator for _, c in inner))
        row = {k: scale}  # the coefficients of x - T x, times scale
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
    # back-substitute over the integers: y[c] == num[c] / den for the solved
    # c, with den the lcm of their denominators
    num, den = [0] * m, 1
    for k in range(m - 1, -1, -1):
        s = rhs[k] * den - sum(v * num[c] for c, v in system[k].items())
        d = pivots[k] * den
        if d < 0:
            s, d = -s, -d
        g = gcd(s, d)
        s, d = s // g, d // g  # y[k] == s / d in lowest terms
        grow = d // gcd(d, den)
        if grow > 1:
            num = [v * grow for v in num]
            den *= grow
        num[k] = s * (den // d)
    return [Fraction(v, den) for v in num]


def solve_affine(rows, b) -> list[Fraction]:
    """Solve ``x[i] = b[i] + sum(coeff * x[j] for (j, coeff) in rows[i])``.

    ``rows`` may contain repeated ``j`` entries; coefficients add up.  A node
    that is its own component is solved in closed form,
    ``x = (b + sum(c * x_j)) / (1 - loop)`` with ``loop`` its self-entries.
    """
    n = len(rows)
    x: list[Fraction | None] = [None] * n
    for comp in strongly_connected(n, [[j for j, _ in row] for row in rows]):
        if len(comp) > 1:
            for node, value in zip(comp, _solve_component(rows, b, x, comp)):
                x[node] = value
            continue
        node = comp[0]
        num, den, loops = _gather(rows[node], b[node], x)
        acc = Fraction(num, den)
        if loops:
            loop = sum(c for _, c in loops)
            if loop == 1:
                raise ArithmeticError("singular linear system")
            acc /= 1 - loop
        x[node] = acc
    return x
