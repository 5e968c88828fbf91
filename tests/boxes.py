"""Plane partitions, counted box by box: a combinatorial oracle that
imports nothing from ``localvertex``.

A plane partition is a finite stack of unit boxes in the corner of the
positive octant, given by its heights: rows (h(i, 0), h(i, 1), ...) of
positive integers, non-increasing along each row and down each column.
Box (i, j, k) sits at height k over the cell (i, j), so k runs along the
axis the heights stand on.
"""


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
