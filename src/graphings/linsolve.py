"""Exact solver for the affine fixpoint ``x = b + T x`` over the rationals.

Path sums around cycles are geometric series; with finitely many nodes they
are the unique solution of a sparse affine system.  The solver decomposes the
dependency graph into strongly connected components (iterative Tarjan over
the rows themselves, safe for deep graphs) and walks them so that every
dependency is solved first.  A component of one node is solved in closed
form.  A larger one is scaled to integers row by row and eliminated
fraction-free over sparse dict rows, in the style of Bareiss (*Math. Comp.*
22, 1968) but dividing each updated row by its gcd.  A column index lists the
rows holding each column, so elimination visits only the rows it clears, and
back-substitution solves each value on its own denominator: the work follows
the entries of the system, not its square.  No ``Fraction`` is built until
the exact, normalised values come out.

``prune`` is the reachability cut every caller applies first.  It takes the
rows as predecessor lists, the moves into each node, and walks them back
from the nodes where mass leaves.

Raises ``ArithmeticError`` when a component's system is singular, which the
callers translate into their own domain errors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _solve_component(rows, b, x, comp) -> list[Fraction]:
    """Solve one strongly connected component of two or more nodes exactly.

    Each row of ``I - T`` and its right-hand side (``b`` plus the already
    solved dependencies) is scaled to integers by the lcm of its denominators.
    ``cols[c]`` lists the rows that hold an entry in column ``c``; a row is
    added when elimination fills that column in.  Column by column the
    diagonal row is the pivot, or, when it is zero or already used, another
    row of that column.  Only the other rows of the column are cleared,
    fraction-free, ``row = p * row - f * pivot_row`` with ``p`` and ``f``
    divided by their gcd, and each cleared row is divided by the gcd of its
    entries and right-hand side, so the integers stay small.  Any pivot order
    gives the same exact values.  Back-substitution, last column first, makes
    each value a ``Fraction`` in lowest terms and reads it back as its own
    ``num / den``; nothing is rescaled to a common denominator.
    """
    order = {node: k for k, node in enumerate(comp)}
    m = len(comp)
    system, rhs = [], []
    cols: list[list[int]] = [[k] for k in range(m)]
    for k, node in enumerate(comp):
        # b plus the solved dependencies as num / den; the entries inside
        # the component as integer numerators over their own denominators
        b_k = b[node]
        num, den = b_k.numerator, b_k.denominator
        inner = []
        scale = 1
        for j, c in rows[node]:
            local = order.get(j)
            if local is None:
                v = x[j]
                d = c.denominator * v.denominator
                g = gcd(den, d)
                num = num * (d // g) + c.numerator * v.numerator * (den // g)
                den = den // g * d
            else:
                d = c.denominator
                inner.append((local, c.numerator, d))
                if scale % d:
                    scale = lcm(scale, d)
        if scale % den:
            scale = lcm(scale, den)
        row = {k: scale}  # the coefficients of x - T x, times scale
        for local, n, d in inner:
            v = n * (scale // d)
            w = row.get(local)
            if w is None:
                row[local] = -v
                cols[local].append(k)
            elif w != v:
                row[local] = w - v
            else:
                del row[local]
        system.append(row)
        rhs.append(num * (scale // den))
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
    y: list = [None] * m
    for col in range(m - 1, -1, -1):
        r = pivot_rows[col]
        s, d = rhs[r], 1
        for c, v in system[r].items():
            if c != col:
                e = y[c].denominator
                g = gcd(d, e)
                s = s * (e // g) - v * y[c].numerator * (d // g)
                d = d // g * e
        y[col] = Fraction(s, d * system[r][col])
    return y


def solve_affine(rows, b) -> list[Fraction]:
    """Solve ``x[i] = b[i] + sum(coeff * x[j] for (j, coeff) in rows[i])``.

    ``rows`` may contain repeated ``j`` entries; coefficients add up.  A node
    that is its own component is solved in closed form,
    ``x = (b + sum(c * x_j)) / (1 - loop)`` with ``loop`` its self-entries;
    with an empty row it is ``b`` itself.
    """
    n = len(rows)
    x: list[Fraction | None] = [None] * n
    for comp in strongly_connected(n, rows):
        if len(comp) > 1:
            for node, value in zip(comp, _solve_component(rows, b, x, comp)):
                x[node] = value
            continue
        node = comp[0]
        row = rows[node]
        if not row:
            v = b[node]
            x[node] = v if type(v) is Fraction else Fraction(v)
            continue
        # b plus the solved dependencies, summed exactly as num / den over
        # the lcm of their denominators; the self-entries add up to loop
        b_i = b[node]
        num, den, loop = b_i.numerator, b_i.denominator, 0
        for j, c in row:
            if j == node:
                loop += c
                continue
            v = x[j]
            d = c.denominator * v.denominator
            g = gcd(den, d)
            num = num * (d // g) + c.numerator * v.numerator * (den // g)
            den = den // g * d
        acc = Fraction(num, den)
        if loop:
            if loop == 1:
                raise ArithmeticError("singular linear system")
            acc /= 1 - loop
        x[node] = acc
    return x
