"""3D partitions, counted row by row with coloured boxes: a combinatorial
oracle that imports only the standard library.

A 3D partition here is a height function h(i, j) >= 0, non-increasing in i
and in j.  Box (i, j, k) sits at height k over the cell (i, j), so k runs
along the axis the heights stand on.  With no legs the heights are a plane
partition; a leg along the i-axis with cross-section lam and one along the
j-axis with cross-section mu bound them below by max(lam[j], mu[i]).
"""

import functools


def count_boxes(budget, lam=(), mu=(), colour=lambda i, j: 0, colours=1):
    """{(boxes of colour 0, ..., boxes of colour colours - 1): count} over the
    3D partitions with at most ``budget`` boxes outside the legs lam and mu,
    counting only those boxes; every box over cell (i, j) has colour
    colour(i, j).

    Cells with j >= len(lam) + budget hold no box outside a leg, so a row is
    kept to that width, and row by row the heights fall to lam, after which
    every row is lam.
    """
    width = len(lam) + budget

    def floor(i):
        return tuple(max(lam[j] if j < len(lam) else 0, mu[i] if i < len(mu) else 0)
                     for j in range(width))

    @functools.lru_cache(maxsize=None)
    def below(i, above, budget):
        """The counts of rows i, i + 1, ... under row ``above``."""
        low = floor(i)
        counts = {}
        for row in _rows_between(low, above, budget):
            spent = [0] * colours
            for j, (h, l) in enumerate(zip(row, low)):
                spent[colour(i, j)] += h - l
            if i >= len(mu) and row == low:
                rest = {(0,) * colours: 1}  # every row below is lam
            else:
                rest = below(i + 1, row, budget - sum(spent))
            for boxes, c in rest.items():
                key = tuple(map(int.__add__, spent, boxes))
                counts[key] = counts.get(key, 0) + c
        return counts

    return below(0, None, budget)


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
