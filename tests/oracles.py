"""Reference constructions that tests check the package against."""

from typing import Sequence

from flagzeta.cells import FlagBundle, Grassmannian, SchemeExpr


def flag_as_grassmannian_tower(child: SchemeExpr, parts: Sequence[int]) -> SchemeExpr:
    """The flag bundle rebuilt as an iterated Grassmannian tower.

    Choosing the flag one step at a time, W_1 inside the full bundle, then
    the next block inside the quotient, multiplies the cell polynomials;
    this is kept as an independent construction path for cross-checking
    cells_of.
    """
    parts = FlagBundle(child, parts).parts  # validates the flag type
    expr = child
    remaining = sum(parts)
    for p in parts[:-1]:
        expr = Grassmannian(expr, p, remaining)
        remaining -= p
    return expr
