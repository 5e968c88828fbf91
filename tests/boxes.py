"""Plane partitions, counted box by box: a combinatorial oracle that
imports nothing from ``localvertex``.

A plane partition is a finite stack of unit boxes in the corner of the
positive octant, given by its heights: rows (h(i, 0), h(i, 1), ...) of
positive integers, non-increasing along each row and down each column.
Box (i, j, k) sits at height k over the cell (i, j), so k runs along the
axis the heights stand on.  The same heights, bounded below by two legs,
count the 3D partitions of the two-leg vertex.
"""

import functools


def _rows(bound, budget):
    """Every non-empty row of positive heights, non-increasing, with
    h(j) <= bound[j] and at most ``budget`` boxes."""
    stack = [()]
    while stack:
        row = stack.pop()
        j = len(row)
        if j == len(bound):
            continue
        cap = min(bound[j], budget - sum(row), row[-1] if row else budget)
        for h in range(1, cap + 1):
            yield row + (h,)
            stack.append(row + (h,))


def plane_partitions(max_boxes):
    """Every plane partition with at most ``max_boxes`` boxes, the empty one
    included, once each, as a tuple of its non-empty rows."""

    def stack_on(rows, bound, budget):
        yield rows
        for row in _rows(bound, budget):
            yield from stack_on(rows + (row,), row, budget - sum(row))

    return stack_on((), (max_boxes,) * max_boxes, max_boxes)


def boxes(rows):
    """The boxes (i, j, k) of the plane partition with these rows."""
    for i, row in enumerate(rows):
        for j, height in enumerate(row):
            for k in range(height):
                yield i, j, k


def _rows_between(low, high, budget):
    """Every non-increasing row r with low[j] <= r[j] <= high[j] and
    sum(r - low) <= budget; ``high`` None bounds only by the budget."""

    def extend(row, budget):
        j = len(row)
        if j == len(low):
            yield row
            return
        top = low[j] + budget if high is None else min(high[j], low[j] + budget)
        for h in range(low[j], min(top, row[-1]) + 1 if row else top + 1):
            yield from extend(row + (h,), budget - (h - low[j]))

    return extend((), budget)


def two_leg_vertex(lam, mu, excess):
    """The 3D partitions with two legs, counted by renormalised volume:
    {volume: count} over those with at most ``excess`` boxes outside the legs.

    A 3D partition here is a height function h(i, j) >= max(lam[j], mu[i]),
    non-increasing in i and in j: the leg along the i-axis has
    cross-section lam, the one along the j-axis mu.  Its volume is
    sum(h - max(lam[j], mu[i])) - sum(min(lam[j], mu[i])), the boxes
    outside the legs less those the legs share.  Cells with j >= len(lam)
    + excess hold no box outside a leg, so a row is kept to that width,
    and row by row the heights fall to lam, after which every row is lam.
    """
    width = len(lam) + excess
    shared = sum(min(a, b) for a in lam for b in mu)

    def floor(i):
        return tuple(max(lam[j] if j < len(lam) else 0, mu[i] if i < len(mu) else 0)
                     for j in range(width))

    @functools.lru_cache(maxsize=None)
    def below(i, above, budget):
        """Counts by excess of rows i, i + 1, ... under row ``above``."""
        low = floor(i)
        counts = [0] * (budget + 1)
        for row in _rows_between(low, above, budget):
            spent = sum(row) - sum(low)
            if spent == 0 and i >= len(mu):
                counts[0] += 1
                continue
            for k, c in enumerate(below(i + 1, row, budget - spent)):
                counts[spent + k] += c
        return counts

    return {k - shared: c for k, c in enumerate(below(0, None, excess))}
