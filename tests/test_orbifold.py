"""The A1 orbifold side of the paper's statement, by counting coloured boxes.

Contracting the fibres of local F_r leaves a curve of A1 singularities,
locally [C^2/Z_2] x C.  Its DT series counts Z_2-coloured plane
partitions: box (i, j, k), of height k along the fixed axis, has colour
(i + j) mod 2 and weight q_0 or q_1.  With no legs the count is
M(1, q)^2 M(q_1, q) M(1/q_1, q), where q = q_0 q_1 and
M(x, q) = prod_k (1 - x q^k)^(-k): the fibre factor comes once at q_1 and
once at 1/q_1, the Weyl reflection in its smallest case.
"""

from collections import Counter
from math import comb

from boxes import boxes, plane_partitions

# total degree, in q_0 and q_1 together, through which both sides are compared
BOXES = 12


def coloured_count(colour):
    """{(boxes of colour 0, boxes of colour 1): plane partitions} over the
    plane partitions with at most BOXES boxes."""
    counts = Counter()
    for rows in plane_partitions(BOXES):
        weight = [0, 0]
        for box in boxes(rows):
            weight[colour(*box)] += 1
        counts[tuple(weight)] += 1
    return counts


def times(f, g):
    """The product of two series {(deg q_0, deg q_1): coefficient} through
    total degree BOXES."""
    out = Counter()
    for (a, b), c in f.items():
        for (a2, b2), d in g.items():
            if a + a2 + b + b2 <= BOXES:
                out[a + a2, b + b2] += c * d
    return out


def macmahon(e):
    """M(q_1^e, q) with q = q_0 q_1, through total degree BOXES: the factor
    (1 - y)^(-k) of y = q_1^e q^k is sum_n C(n + k - 1, n) y^n."""
    series = {(0, 0): 1}
    k = 1
    while 2 * k + e <= BOXES:
        series = times(series, {
            (n * k, n * (k + e)): comb(n + k - 1, n) for n in range(BOXES // (2 * k + e) + 1)
        })
        k += 1
    return series


def test_coloured_plane_partitions_give_the_macmahon_product():
    """The count by colours (i + j) mod 2 is the product in every bidegree
    with at most BOXES boxes; colouring by i mod 2 is not."""
    product = times(times(macmahon(0), macmahon(0)), times(macmahon(1), macmahon(-1)))
    product = {degree: c for degree, c in product.items() if c}
    counts = coloured_count(lambda i, j, k: (i + j) % 2)
    assert sum(counts.values()) == 3462  # plane partitions of 0, ..., 12
    assert len(product) == 61
    assert counts == product
    by_rows = coloured_count(lambda i, j, k: i % 2)
    assert sum(by_rows[degree] != c for degree, c in product.items()) == 59
