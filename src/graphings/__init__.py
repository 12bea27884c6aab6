"""Measurable graphings for multihead probabilistic machines.

The package builds graph-shaped measurable dynamics over a product space
(symbol tape, unit cube, ternary cylinder coordinates), compiles multihead
machines with an optional stack into them, and checks machine behaviour two
independent ways: an exact configuration-level probability solver, and a
dialogue semantics where the compiled graphing is executed against a word
representation and judged through orthogonality tests.
"""
