"""AGL_1(F_p) fibres by brute force.  The representation variety of a
knot over F_p at m = a^sign is cut out by q_out = m q_in + (1 - m) q_over
at every crossing; counting its points over all of F_p^n checks the Fox
rows, the Smith route and the Burau route against arithmetic that shares
no code with any of them."""
import random

import numpy as np

from alexkit.alexander import alexander_matrix, knot_delta
from alexkit.burau import closure_alexander
from alexkit.codes import BraidWord, braid_closure, catalog_lookup

PRIMES = (2, 3, 5, 7)
MAX_POINTS = 20000


def _count_points(d, p, a):
    """Number of q in F_p^n satisfying every crossing's affine equation."""
    q = np.indices((p,) * d.arc_count).reshape(d.arc_count, -1)
    ok = np.ones(q.shape[1], dtype=bool)
    for c in d.crossings:
        m = pow(a, c.sign, p)
        rhs = m * q[c.under_in - 1] + (1 - m) * q[c.over - 1]
        ok &= (q[c.under_out - 1] - rhs) % p == 0
    return int(ok.sum())


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _value_mod_p(poly, a, p):
    return sum(c * pow(a, e, p) for e, c in poly.coeffs.items()) % p


def _checker(d, b):
    """check(p, a) for one knot: asserts the point count against the Fox
    rank and the two routes' Delta(a), and returns True when the fibre
    over a jumps above the p constant solutions."""
    rows = alexander_matrix(d).univariate_rows()
    deltas = {"fox": knot_delta(d), "burau": closure_alexander(b)}

    def check(p, a):
        count = _count_points(d, p, a)
        rank = _rank_mod_p([[_value_mod_p(e, a, p) for e in row]
                            for row in rows], p)
        assert count == p ** (d.arc_count - rank), (d.render(), p, a)
        for route, delta in deltas.items():
            assert (count > p) == (_value_mod_p(delta, a, p) == 0), \
                (route, b.render(), p, a)
        return count > p
    return check


def _triples(d):
    for p in PRIMES:
        if p ** d.arc_count <= MAX_POINTS:
            yield from ((p, a) for a in range(1, p))


def test_named_jumps():
    """Delta(2) = 3 for the trefoil and Delta(4) = -5 for the figure-eight."""
    for name, p, a in (("trefoil", 3, 2), ("figure8", 5, 4)):
        entry = catalog_lookup(name)
        check = _checker(entry.crossing_list, entry.braid)
        assert check(p, a)
        assert not check(p, 1)


def test_brute_force_fibre_counts():
    rng = random.Random(71)
    checked = jumps = 0
    while checked < 1000:
        n = rng.randint(2, 4)
        b = BraidWord(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                          for _ in range(rng.randint(3, 14))])
        if b.component_count() != 1:
            continue
        d = braid_closure(b)
        check = _checker(d, b)
        for p, a in _triples(d):
            jumps += check(p, a)
            checked += 1
    assert jumps >= 30
