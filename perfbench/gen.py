"""Seeded input generators for the four benchmark workloads.

Standard library only: the generators never import mirigs, so the program
under test sees nothing but the generated words, expression text and
thicket text.  The same (workload, seed) always gives byte-identical
inputs (`encode` sorts keys and fixes separators).  On words and arith the
seed only renames letters or generators (see gen_words and ARITH_N), so
every seed asks for the same work.

Every answer is known by construction:

* word pairs are equal when both words come from one base word by square
  insertions (x -> xx) and sandwich insertions (p -> p u p with
  alpha(u) inside alpha(p)); they differ when one word then gains a new
  first or last letter, since the first and the last letter of a word are
  invariants of the congruence;
* expression rewrites use only rig laws that hold in every mirig
  (commutativity and associativity of +, associativity of *, both
  distributive laws, units, and x*x = x);
* thicket pairs are equal when the second adds x u v y + x v u y to a first
  that holds x u y and x v y (one expansion move).
"""

from __future__ import annotations

import json
import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# -- words -----------------------------------------------------------------

WORD_LENGTH = 1000
RANDOM_KS = (4, 8, 12, 16)
ZIMIN_ORDERS = (8, 9, 10, 11, 12)
# (k, m): de Bruijn order m is the least with k**m >= WORD_LENGTH, so a
# window of WORD_LENGTH letters holds WORD_LENGTH - m + 1 distinct m-infixes.
DEBRUIJN = ((4, 5), (8, 4), (12, 3), (16, 3))
# One round visits every word family once, so every round costs the same
# mix and the median and tail fall inside fixed families.
WORD_FAMILIES = (
    [f"random-k{k}" for k in RANDOM_KS]
    + [f"zimin-{n}" for n in ZIMIN_ORDERS]
    + [f"debruijn-k{k}" for k, _ in DEBRUIJN]
)
# Four rounds give every family each pair kind once: 52 pairs, the same in
# every run.
WORD_ROUNDS = 4


def zimin(order: int) -> list[int]:
    """Z_1 = x1, Z_n = Z_{n-1} x_n Z_{n-1}: length 2**order - 1."""
    w = [0]
    for i in range(1, order):
        w = w + [i] + w
    return w


def debruijn(k: int, m: int) -> list[int]:
    """The lexicographically least cyclic de Bruijn sequence B(k, m)."""
    a = [0] * (k * m + 1)
    seq: list[int] = []

    def db(t: int, p: int) -> None:
        if t > m:
            if m % p == 0:
                seq.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        db(t + 1, p)
        for j in range(a[t - p] + 1, k):
            a[t] = j
            db(t + 1, t)

    db(1, 1)
    return seq


def _relabel(rng: random.Random, w: list[int], k: int) -> list[int]:
    """Map the letters 0..k-1 of w injectively onto random letters a..z."""
    image = rng.sample(range(len(LETTERS)), k)
    return [image[x] for x in w]


def base_word(rng: random.Random, family: str) -> list[int]:
    kind, _, param = family.partition("-")
    if kind == "random":
        k = int(param[1:])
        while True:
            w = [rng.randrange(k) for _ in range(WORD_LENGTH)]
            if len(set(w)) == k:
                return _relabel(rng, w, k)
    if kind == "zimin":
        order = int(param)
        return _relabel(rng, zimin(order), order)
    k = int(param[1:])
    m = dict(DEBRUIJN)[k]
    cyc = debruijn(k, m)
    while True:  # a window of the cyclic sequence that uses all k letters
        start = rng.randrange(len(cyc))
        window = [cyc[(start + i) % len(cyc)] for i in range(WORD_LENGTH)]
        if len(set(window)) == k:
            return _relabel(rng, window, k)


def equal_variant(rng: random.Random, w: list[int]) -> list[int]:
    """A word congruent to w: a few square and sandwich insertions.

    No insertion lands in front of the first letter or behind the last one,
    so both end letters are kept."""
    w = list(w)
    for _ in range(rng.randint(3, 8)):
        if rng.random() < 0.5:
            i = rng.randrange(len(w))
            size = rng.randint(1, min(8, len(w) - i))
            w[i + size : i + size] = w[i : i + size]
        else:
            i = rng.randrange(len(w))
            j = min(len(w), i + rng.randint(2, 30))
            piece = w[i:j]
            letters = sorted(set(piece))
            infix = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
            w[j:j] = infix + piece
    return w


# Pair kinds by round: a different pair can cost far more than an equal one
# (a new first letter changes the whole decomposition), so every family
# cycles through the same kinds instead of tossing a coin for each pair.
PAIR_KINDS = ("equal", "new-first", "equal", "new-last")


def word_pair(rng: random.Random, family: str, kind: str) -> dict:
    base = base_word(rng, family)
    u, v = equal_variant(rng, base), equal_variant(rng, base)
    if kind == "new-first":
        v = [rng.choice([x for x in set(base) if x != v[0]])] + v
    elif kind == "new-last":
        v = v + [rng.choice([x for x in set(base) if x != v[-1]])]
    return {"family": family, "u": u, "v": v, "equal": kind == "equal"}


def gen_words(rng: random.Random) -> dict:
    """The pairs are drawn from a fixed seed; --seed only renames the
    letters.  The word problem is symmetric under renaming, so every seed
    asks for the same work in different bytes."""
    fixed = random.Random("words-pairs")
    pairs = [
        [word_pair(fixed, f, PAIR_KINDS[(r + i) % len(PAIR_KINDS)]) for i, f in enumerate(WORD_FAMILIES)]
        for r in range(WORD_ROUNDS)
    ]
    letters = rng.sample(LETTERS, len(LETTERS))
    render = lambda w: "".join(letters[x] for x in w)  # noqa: E731
    rounds = [[{**p, "u": render(p["u"]), "v": render(p["v"])} for p in rnd] for rnd in pairs]
    return {"rounds": rounds}


# -- rig expressions -------------------------------------------------------
#
# An expression is a tuple tree: ("+", l, r), ("*", l, r), ("g", i), ("c", k).

PREC = {"+": 1, "*": 2}


def render_expr(e) -> str:
    op = e[0]
    if op == "g":
        return LETTERS[e[1]]
    if op == "c":
        return str(e[1])
    left, right = render_expr(e[1]), render_expr(e[2])
    if e[1][0] in PREC and PREC[e[1][0]] < PREC[op]:
        left = f"({left})"
    # Both operators associate to the left, so an equal-precedence right
    # operand keeps its parentheses and the parse gives back this exact tree.
    if e[2][0] in PREC and PREC[e[2][0]] <= PREC[op]:
        right = f"({right})"
    sep = " + " if op == "+" else "*"
    return f"{left}{sep}{right}"


def _fold(op: str, parts):
    out = parts[0]
    for p in parts[1:]:
        out = (op, out, p)
    return out


def _monomial(rng, n: int, degree):
    if degree == 0:
        return ("c", rng.randint(0, 3))
    return _fold("*", [("g", rng.randrange(n)) for _ in range(degree)])


def random_shape(rng, max_polys: int, max_terms: int, max_degree: int):
    """(joins, polys): polys[i] lists the degrees of its monomials, with 0
    for a constant; joins[i] is the operator in front of polys[i + 1]."""
    polys = [
        [0 if rng.random() < 0.1 else rng.randint(1, max_degree) for _ in range(rng.randint(1, max_terms))]
        for _ in range(rng.randint(1, max_polys))
    ]
    return [rng.choice("+*") for _ in polys[1:]], polys


def expression_of_shape(rng, n: int, shape):
    joins, polys = shape
    parts = [_fold("+", [_monomial(rng, n, d) for d in degrees]) for degrees in polys]
    out = parts[0]
    for op, p in zip(joins, parts[1:]):
        out = (op, out, p)
    return out


def random_expression(rng, n: int, max_polys: int = 3, max_terms: int = 4, max_degree: int = 4):
    return expression_of_shape(rng, n, random_shape(rng, max_polys, max_terms, max_degree))


def _subterms(e, path=()):
    yield path, e
    if e[0] in PREC:
        yield from _subterms(e[1], path + (1,))
        yield from _subterms(e[2], path + (2,))


def _replace(e, path, new):
    if not path:
        return new
    parts = list(e)
    parts[path[0]] = _replace(e[path[0]], path[1:], new)
    return tuple(parts)


def _rewrites(e):
    """Equal-by-law rewrites of the root of e."""
    out = [("+", e, ("c", 0)), ("*", ("c", 1), e), ("*", e, ("c", 1))]
    op = e[0]
    if op == "+":
        out.append(("+", e[2], e[1]))
    if op in PREC and e[1][0] == op:
        out.append((op, e[1][1], (op, e[1][2], e[2])))
    if op == "*" and e[1][0] == "+":
        out.append(("+", ("*", e[1][1], e[2]), ("*", e[1][2], e[2])))
    if op == "*" and e[2][0] == "+":
        out.append(("+", ("*", e[1], e[2][1]), ("*", e[1], e[2][2])))
    if op != "*" or e[1] != e[2]:
        out.append(("*", e, e))
    return out


def equal_rewrite(rng: random.Random, e):
    """e after one to three law applications at random positions."""
    for _ in range(rng.randint(1, 3)):
        path, sub = rng.choice(list(_subterms(e)))
        e = _replace(e, path, rng.choice(_rewrites(sub)))
    return e


ARITH_N = 3
# The shapes (operators, monomial counts and degrees) of one round are the
# same in every round; a fixed seed picks their letters and the rewrites.
# --seed only renames the generators: the free mirig is symmetric under
# renaming, so every seed asks for the same work in different bytes.  Every
# fifth operation is an `eq` against a rewrite.
ARITH_SHAPES = [random_shape(random.Random(f"arith-shape:{i}"), 3, 4, 4) for i in range(40)]
ARITH_ROUNDS = 5  # one timed pass (PASS_OPS in run.py)
ARITH_EQ_EVERY = 5


def rename(e, image: list[int]):
    """e with generator i renamed to image[i]."""
    if e[0] == "g":
        return ("g", image[e[1]])
    if e[0] == "c":
        return e
    return (e[0], rename(e[1], image), rename(e[2], image))


def gen_arith(rng: random.Random) -> dict:
    fixed = random.Random("arith-letters")
    image = rng.sample(range(ARITH_N), ARITH_N)
    ops = []
    for _ in range(ARITH_ROUNDS):
        for i, shape in enumerate(ARITH_SHAPES):
            e = expression_of_shape(fixed, ARITH_N, shape)
            op = {"expr": render_expr(rename(e, image)), "tree": rename(e, image)}
            if i % ARITH_EQ_EVERY == 0:
                op["rewrite"] = render_expr(rename(equal_rewrite(fixed, e), image))
            ops.append(op)
    return {"n": ARITH_N, "ops": ops, "round_size": len(ARITH_SHAPES)}


# -- censuses --------------------------------------------------------------

CENSUS_KINDS = (
    "free_mirig_grouped",
    "free_mirig_triples",
    "replete",
    "variant_11",
    "variant_21",
    "variant_12",
    "boolean_semiring",
)
CENSUS_ROUNDS = 40


def gen_census(rng: random.Random) -> dict:
    rounds = []
    for _ in range(CENSUS_ROUNDS):
        kinds = list(CENSUS_KINDS)
        rng.shuffle(kinds)
        rounds.append(kinds)
    return {"rounds": rounds}


# -- crosscheck at n = 2 ---------------------------------------------------

CROSS_N = 2
CROSS_PAIRS = 8000


def _random_word(rng: random.Random, n: int, max_len: int) -> str:
    return "".join(LETTERS[rng.randrange(n)] for _ in range(rng.randint(0, max_len))) or "1"


def random_thicket_terms(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.randint(1, 3)}*{_random_word(rng, n, 5)}" for _ in range(rng.randint(1, 6))]


def thicket_pair(rng: random.Random, n: int) -> dict:
    first = random_thicket_terms(rng, n)
    equal = rng.random() < 0.5
    if equal:
        x, u, v, y = (_random_word(rng, n, 2).replace("1", "") for _ in range(4))
        word = lambda s: s or "1"  # noqa: E731
        first += [f"1*{word(x + u + y)}", f"1*{word(x + v + y)}"]
        rng.shuffle(first)
        second = first + [f"1*{word(x + u + v + y)}", f"1*{word(x + v + u + y)}"]
        rng.shuffle(second)
    else:
        second = random_thicket_terms(rng, n)
    return {"kind": "thicket", "a": " + ".join(first), "b": " + ".join(second), "same": equal}


def expression_pair(rng: random.Random, n: int) -> dict:
    e = random_expression(rng, n, max_polys=2, max_terms=3, max_degree=3)
    equal = rng.random() < 0.5
    other = equal_rewrite(rng, e) if equal else random_expression(rng, n, 2, 3, 3)
    return {
        "kind": "expr", "a": render_expr(e), "b": render_expr(other), "same": equal,
        "trees": [e, other],
    }


def gen_crosscheck(rng: random.Random) -> dict:
    pairs = [
        thicket_pair(rng, CROSS_N) if i % 2 == 0 else expression_pair(rng, CROSS_N)
        for i in range(CROSS_PAIRS)
    ]
    return {"n": CROSS_N, "pairs": pairs}


GENERATORS = {
    "words": gen_words,
    "arith": gen_arith,
    "census": gen_census,
    "crosscheck": gen_crosscheck,
}


def generate(workload: str, seed: int) -> dict:
    """The inputs of one workload; a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return {"workload": workload, "seed": seed, **GENERATORS[workload](rng)}


def encode(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
