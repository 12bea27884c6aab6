"""Exact solver for the affine fixpoint ``x = (b + T x) / den`` in integers.

Path sums around cycles are geometric series; with finitely many nodes they
are the unique solution of a sparse affine system.  Every caller states its
system over one denominator: the entries of ``T`` and ``b`` are ints, and
``den`` is a common denominator of every weight the walk recorded, so no
row takes an lcm and no entry carries a denominator of its own.  The solver decomposes
the dependency graph into strongly connected components (iterative Tarjan
over the rows themselves, safe for deep graphs) and walks them so that every
dependency is solved first.  A component of one node is solved in closed
form.  A larger one is eliminated fraction-free over sparse dict rows, in
the style of Bareiss (*Math. Comp.* 22, 1968) but dividing each updated row
by its gcd.  A column index lists the rows holding each column, so
elimination visits only the rows it clears, and back-substitution solves
each value on its own denominator: the work follows the entries of the
system, not its square.  Every value comes out as a ``(num, den)`` pair of
ints in lowest terms; the callers build the ``Fraction``s they answer with.

``prune`` is the reachability cut every caller applies first.  It takes the
rows as predecessor lists, the moves into each node, and walks them back
from the nodes where mass leaves.

Raises ``ArithmeticError`` when a component's system is singular, which the
callers translate into their own domain errors.
"""

from __future__ import annotations

from math import gcd

# configurations a walk may intern before its solve: the one budget of the
# oracle, the path sum and plug, read when each walk runs
MAX_NODES = 500_000


def strongly_connected(n: int, rows) -> list[list[int]]:
    """Tarjan's algorithm, iteratively; components come out dependencies-first.

    ``rows[i]`` lists the ``(j, coeff)`` entries of node ``i``, so ``i``
    depends on every such ``j``, and every component is emitted after all the
    components it can reach.  ``index[v]`` is 0 until ``v`` is visited and
    past every ``low`` once its component is out, so no on-stack flag is kept.
    """
    index = [0] * n
    low = [0] * n
    done = n + 1
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 1
    for root in range(n):
        if index[root]:
            continue
        work = [(root, iter(rows[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        while work:
            node, it = work[-1]
            for child, _ in it:
                seen = index[child]
                if not seen:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    work.append((child, iter(rows[child])))
                    break
                if seen < low[node]:
                    low[node] = seen
            else:
                work.pop()
                lo = low[node]
                if work:
                    parent = work[-1][0]
                    if lo < low[parent]:
                        low[parent] = lo
                if lo == index[node]:
                    comp = []
                    while True:
                        v = stack.pop()
                        index[v] = done
                        comp.append(v)
                        if v == node:
                            break
                    out.append(comp)
    return out


def prune(preds, targets):
    """Keep the ancestors of the targets; renumber them; return ``(kept, rows)``.

    ``preds[i]`` lists the ``(j, weight)`` entries of node ``i``: mass moves
    from ``j`` into ``i``.  ``kept`` is the sorted list of nodes that reach
    some node of ``targets``, found by walking these lists back from the
    targets, and ``rows[s]`` is the list of ``kept[s]``, renumbered.  A node
    that reaches no target carries no mass to one, so dropping it keeps
    probability-one loops that never exit out of the solve; every predecessor
    of a kept node is kept, so no entry is dropped and mass arriving at kept
    nodes is unchanged.
    """
    live = [False] * len(preds)
    frontier = list(targets)
    for t in frontier:
        live[t] = True
    while frontier:
        for j, _ in preds[frontier.pop()]:
            if not live[j]:
                live[j] = True
                frontier.append(j)
    kept = [i for i, k in enumerate(live) if k]
    for s, i in enumerate(kept):
        live[i] = s  # now the new number of each kept node
    return kept, [[(live[j], p) for j, p in preds[i]] for i in kept]


def _solve_component(rows, b, den, nums, dens, comp) -> None:
    """Solve one strongly connected component of two or more nodes exactly.

    Row ``k`` of ``den * I - T`` is ``{k: den, j: -c}`` over the component's
    own entries, and its right-hand side is ``b`` plus the already solved
    dependencies, summed as ``num / d``; a row with ``d > 1`` is scaled by
    ``d``, so every row is integral with no lcm taken.  ``cols[c]`` lists
    the rows that hold an entry in column ``c``; a row is added when
    elimination fills that column in.  Column by column the diagonal row is
    the pivot, or, when it is zero or already used, another row of that
    column.  Only the other rows of the column are cleared, fraction-free,
    ``row = p * row - f * pivot_row`` with ``p`` and ``f`` divided by their
    gcd, and each cleared row is divided by the gcd of its entries and
    right-hand side, so the integers stay small.  Any pivot order gives the
    same exact values.  Back-substitution, last column first, writes each
    value into ``nums`` and ``dens`` in lowest terms, on its own
    denominator; nothing is rescaled to a common one.
    """
    order = {node: k for k, node in enumerate(comp)}
    m = len(comp)
    system, rhs = [], []
    cols: list[list[int]] = [[k] for k in range(m)]
    for k, node in enumerate(comp):
        num, d = b[node], 1
        row = {k: den}
        for j, c in rows[node]:
            local = order.get(j)
            if local is None:
                xd = dens[j]
                g = gcd(d, xd)
                num = num * (xd // g) + c * nums[j] * (d // g)
                d = d // g * xd
                continue
            w = row.get(local)
            if w is None:
                row[local] = -c
                cols[local].append(k)
            elif w != c:
                row[local] = w - c
            else:
                del row[local]
        if d != 1:
            for c in row:
                row[c] *= d
        system.append(row)
        rhs.append(num)
    used = [False] * m
    pivot_rows = []
    for col in range(m):
        r = col
        if used[col] or not system[col].get(col):
            r = next((i for i in cols[col] if not used[i] and system[i].get(col)),
                     None)
            if r is None:
                raise ArithmeticError("singular linear system")
        used[r] = True
        pivot_rows.append(r)
        pivot = system[r]
        p = pivot[col]
        t = rhs[r]
        for i in cols[col]:
            if used[i]:
                continue
            row = system[i]
            f = row.pop(col, 0)
            if not f:
                continue  # the entry cancelled out earlier
            g = gcd(p, f)
            q, f = p // g, f // g
            if q != 1:
                for c in row:
                    row[c] *= q
            for c, v in pivot.items():
                if c == col:
                    continue
                w = row.get(c)
                if w is None:
                    row[c] = -f * v
                    cols[c].append(i)
                elif w == f * v:
                    del row[c]
                else:
                    row[c] = w - f * v
            s = q * rhs[i] - f * t
            g = gcd(s, *row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
                s //= g
            rhs[i] = s
    for col in range(m - 1, -1, -1):
        row = system[pivot_rows[col]]
        s, d = rhs[pivot_rows[col]], 1
        for c, v in row.items():
            if c != col:
                j = comp[c]
                xd = dens[j]
                g = gcd(d, xd)
                s = s * (xd // g) - v * nums[j] * (d // g)
                d = d // g * xd
        d *= row[col]
        if d < 0:
            s, d = -s, -d
        g = gcd(s, d)
        node = comp[col]
        nums[node], dens[node] = s // g, d // g


def solve_affine(rows, b, den: int) -> tuple[list[int], list[int]]:
    """Solve ``x[i] = (b[i] + sum(c * x[j] for (j, c) in rows[i])) / den``.

    Every coefficient ``c`` and right-hand side ``b[i]`` is an int, and
    ``den`` is the one positive denominator they share.  Returns
    ``(nums, dens)``: ``x[i] = nums[i] / dens[i]`` in lowest terms, with
    ``dens[i] > 0``.  ``rows`` may contain repeated ``j`` entries;
    coefficients add up.  A node that is its own component is solved in
    closed form, ``x = (b + sum(c * x_j)) / (den - loop)`` with ``loop``
    its self-entries; with an empty row it is ``b / den``.
    """
    if den < 1:
        raise ValueError(f"the denominator must be positive, got {den}")
    n = len(rows)
    nums, dens = [0] * n, [1] * n
    for comp in strongly_connected(n, rows):
        if len(comp) > 1:
            _solve_component(rows, b, den, nums, dens, comp)
            continue
        node = comp[0]
        # b plus the solved dependencies, summed exactly as num / d over the
        # lcm of their denominators; the self-entries come off den
        num, d, q = b[node], 1, den
        for j, c in rows[node]:
            if j == node:
                q -= c
                continue
            xd = dens[j]
            g = gcd(d, xd)
            num = num * (xd // g) + c * nums[j] * (d // g)
            d = d // g * xd
        if not q:
            raise ArithmeticError("singular linear system")
        if q < 0:
            num, q = -num, -q
        d *= q
        g = gcd(num, d)
        nums[node], dens[node] = num // g, d // g
    return nums, dens
