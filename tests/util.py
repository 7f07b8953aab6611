"""Shared helpers for the test suite: seeded random braids, random
Laurent polynomials, random crossing lists, the word-based Fox rows, and
random well-typed tangle expressions."""
from alexkit import BraidWord
from alexkit.codes import Crossing, CrossingList
from alexkit.fox import fox_derivative_abelianized, reduce_word
from alexkit.laurent import LaurentPoly, MultiLaurentPoly
from alexkit.tangles import Compose, Gen, Tensor


def random_braid(rng, max_strands=4, max_len=8, min_strands=2):
    n = rng.randint(min_strands, max_strands)
    length = rng.randint(0, max_len)
    letters = [rng.choice([1, -1]) * rng.randint(1, n - 1)
               for _ in range(length)]
    return BraidWord(n, letters)


def random_poly(rng, max_deg=2, min_exp=0, max_coeff=3, allow_zero=True):
    coeffs = {}
    for e in range(min_exp, max_deg + 1):
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            coeffs[e] = c
    p = LaurentPoly(coeffs)
    if p.is_zero and not allow_zero:
        return LaurentPoly.monomial(rng.randint(min_exp, max_deg))
    return p


def random_crossing_list(rng, max_arcs=7):
    """A closed diagram on 1..max_arcs arcs, some of them free loops; half
    of the crossings are kinks, whose over arc is their own under-in or
    under-out arc."""
    n = rng.randint(1, max_arcs)
    ins = rng.sample(range(1, n + 1), rng.randint(0, n))
    outs = rng.sample(ins, len(ins))
    crossings = []
    for i, k in zip(ins, outs):
        if rng.random() < 0.5:
            j = rng.choice((i, k))
        else:
            j = rng.randint(1, n)
        crossings.append(Crossing(i, j, k, rng.choice((1, -1))))
    return CrossingList(n, crossings)


def wirtinger_fox_rows(d, weights):
    """Reference Fox rows: each crossing's Wirtinger relator
    x_j^s x_i x_j^-s x_k^-1, freely reduced and differentiated letter by
    letter with fox_derivative_abelianized; the last crossing dropped."""
    zero = MultiLaurentPoly.zero(weights.nvars)
    rows = []
    for c in d.crossings[:-1]:
        j, i, k, s = c.over, c.under_in, c.under_out, c.sign
        w = reduce_word([(j, s), (i, 1), (j, -s), (k, -1)])
        row = [zero] * d.arc_count
        for arc in {g for g, _ in w.letters}:
            row[arc - 1] = fox_derivative_abelianized(w, arc, weights)
        rows.append(tuple(row))
    return rows


def _tensor_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = Tensor(out, f)
    return out


def random_tangle_expr(rng, max_gens=12):
    """A well-typed DSL expression built layer by layer over random sign
    sequences; always type-checks by construction."""
    cur = tuple(rng.choice("+-") for _ in range(rng.randint(0, 3)))
    expr = None
    gens = 0
    while gens < max_gens:
        factors = []
        pos = 0
        while pos < len(cur):
            roll = rng.random()
            pair = cur[pos:pos + 2]
            if roll < 0.15:
                factors.append(Gen(rng.choice(("coev+-", "coev-+"))))
                continue
            if pair == ("+", "+") and roll < 0.55:
                factors.append(Gen(rng.choice(("xp", "xm"))))
                pos += 2
                continue
            if pair in (("+", "-"), ("-", "+")) and roll < 0.55:
                factors.append(Gen("ev+-" if pair == ("+", "-") else "ev-+"))
                pos += 2
                continue
            factors.append(Gen("id+" if cur[pos] == "+" else "id-"))
            pos += 1
        if not factors:
            if rng.random() < 0.5 or expr is None:
                factors.append(Gen(rng.choice(("coev+-", "coev-+"))))
            else:
                break
        layer = _tensor_chain(factors)
        expr = layer if expr is None else Compose(expr, layer)
        cur = layer.target
        gens += len(factors)
        if rng.random() < 0.2:
            break
    assert expr is not None
    return expr
