import pytest

from mirigs.monoid import parse_word, tree_of_word


def w(text):
    return parse_word(text)


def t(text):
    return tree_of_word(parse_word(text))


def random_expression(rng, n):
    """A product of one to three parenthesized sums of one to three
    monomials, each of one to three of the first n letters, now and then
    led by a constant from 0 to 3."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:n]

    def monomial():
        factors = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            factors.insert(0, str(rng.randint(0, 3)))
        return "*".join(factors)

    def polynomial():
        return "+".join(monomial() for _ in range(rng.randint(1, 3)))

    return "*".join(f"({polynomial()})" for _ in range(rng.randint(1, 3)))


@pytest.fixture(scope="session")
def c2_elements():
    """All 284 canonical forms over two generators."""
    from mirigs.triples import enumerate_triples

    return list(enumerate_triples(2))


@pytest.fixture(scope="session")
def c2_tables(c2_elements):
    """Addition and multiplication tables over the 284 elements."""
    from mirigs.triples import triple_add, triple_mul

    index = {c: i for i, c in enumerate(c2_elements)}
    add = [
        [index[triple_add(x, y)] for y in c2_elements] for x in c2_elements
    ]
    mul = [
        [index[triple_mul(x, y)] for y in c2_elements] for x in c2_elements
    ]
    return index, add, mul
