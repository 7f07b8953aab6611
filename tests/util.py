"""Shared helpers for the test suite: seeded random braids, random
Laurent polynomials, and random well-typed tangle expressions."""
from alexkit import BraidWord
from alexkit.laurent import LaurentPoly
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
