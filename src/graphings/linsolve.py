"""Exact solver for the affine fixpoint ``x = b + T x`` over the rationals.

Path sums around cycles are geometric series; with finitely many nodes they
are the unique solution of a sparse affine system.  The solver decomposes the
dependency graph into strongly connected components (iterative Tarjan, safe
for deep graphs), walks them so that every dependency is solved first, and
runs fraction-exact Gaussian elimination over sparse dict rows inside each
component.  ``prune`` is the reachability cut every caller applies first.

Raises ``ArithmeticError`` when a component's system is singular, which the
callers translate into their own domain errors.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
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


def _eliminate(rows: list[dict], rhs: list[Fraction]) -> list[Fraction]:
    """Solve the sparse system ``sum(rows[k][c] * y[c]) == rhs[k]`` exactly.

    Column by column the diagonal is the pivot; a later row is swapped in
    only when it is zero.  The pivot row is scaled to a unit pivot and
    cleared out of the rows below it, so fill-in stays right of the pivot
    column, and back-substitution over the finished rows gives ``y``.
    Consumes ``rows`` and ``rhs``.
    """
    m = len(rows)
    for col in range(m):
        r = next((r for r in range(col, m) if rows[r].get(col)), None)
        if r is None:
            raise ArithmeticError("singular linear system")
        rows[col], rows[r] = rows[r], rows[col]
        rhs[col], rhs[r] = rhs[r], rhs[col]
        row = rows[col]
        inv = ONE / row.pop(col)
        pivot = rows[col] = {c: v * inv for c, v in row.items() if v}
        rhs[col] *= inv
        for r in range(col + 1, m):
            row = rows[r]
            f = row.pop(col, None)
            if f:
                for c, v in pivot.items():
                    if c in row:
                        row[c] -= f * v
                    else:
                        row[c] = -f * v
                rhs[r] -= f * rhs[col]
    for k in range(m - 1, -1, -1):
        acc = rhs[k]
        for c, v in rows[k].items():
            acc -= v * rhs[c]
        rhs[k] = acc
    return rhs


def solve_affine(rows, b) -> list[Fraction]:
    """Solve ``x[i] = b[i] + sum(coeff * x[j] for (j, coeff) in rows[i])``.

    ``rows`` may contain repeated ``j`` entries; coefficients add up.
    """
    n = len(rows)
    x: list[Fraction | None] = [None] * n
    for comp in strongly_connected(n, [[j for j, _ in row] for row in rows]):
        order = {node: k for k, node in enumerate(comp)}
        system, rhs = [], []
        for k, node in enumerate(comp):
            row = {k: ONE}  # the coefficients of x - T x
            acc = b[node]
            for j, c in rows[node]:
                local = order.get(j)
                if local is None:
                    acc += c * x[j]  # already solved: dependencies-first order
                else:
                    row[local] = row.get(local, ZERO) - c
            system.append(row)
            rhs.append(acc)
        for node, value in zip(comp, _eliminate(system, rhs)):
            x[node] = value
    return x
