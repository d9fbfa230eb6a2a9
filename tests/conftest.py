import random

import pytest

from latred.errors import LatredError
from latred.lattice import Lattice
from latred.rationals import Q


def random_integer_lattice(rng: random.Random, n: int, limit: int = 3) -> Lattice:
    """Full-rank integer lattice with entries in [-limit, limit]."""
    while True:
        rows = tuple(
            tuple(Q(rng.randint(-limit, limit)) for _ in range(n)) for _ in range(n)
        )
        try:
            return Lattice(rows)
        except LatredError:
            continue


def minkowski_population(seed, count):
    """count lattices like the random-minkowski benchmark's: rank from
    {6, 7}, integer entries in [-4, 4], seeded."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((6, 7))
        rows = [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        try:
            out.append(Lattice(rows))
        except LatredError:
            pass
    return out


def random_unimodular(rng: random.Random, n: int, steps: int = 20):
    """Random unimodular integer matrix from elementary row operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        if not c:
            continue
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        rng.shuffle(rows)
    return tuple(tuple(Q(x) for x in row) for row in rows)


def mat_mul(a, b):
    """The matrix product of a and b, given as rows."""
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b))
        for row in a
    )


@pytest.fixture(scope="session")
def appendix42_report():
    """The serial 42-dimensional scan, run once for every test that reads it."""
    from latred.verification import check_shortest_vectors_42

    return check_shortest_vectors_42()


def count_calls(monkeypatch, *names):
    """Wrap the named functions ("module.function") wherever latred's
    modules bind them; returns {name: number of calls so far}."""
    from importlib import import_module

    modules = [
        import_module("latred." + m)
        for m in (
            "linalg",
            "lattice",
            "enumeration",
            "reduction",
            "constructions",
            "verification",
        )
    ]
    counts = dict.fromkeys(names, 0)
    for name in names:
        home, attr = name.split(".")
        fn = getattr(import_module("latred." + home), attr)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    monkeypatch.setattr(m, key, counted)
    return counts


def count_nodes(monkeypatch):
    """Count the enumeration nodes spent (enumeration._Budget.spend);
    returns a one-element list holding the count so far."""
    from latred.enumeration import _Budget

    spent = [0]
    spend = _Budget.spend

    def counted(self):
        spent[0] += 1
        spend(self)

    monkeypatch.setattr(_Budget, "spend", counted)
    return spent


def checked_puts(monkeypatch):
    """Wrap enumeration._put wherever latred binds it at import or call
    time, asserting that every IntGSO it returns, b, d, lam and den, is
    the one reference.dense_put returns; returns a one-element list
    holding the number of puts so far."""
    import reference
    from latred import enumeration, reduction

    put = enumeration._put
    seen = [0]

    def checked(gso, i, x):
        got = put(gso, i, x)
        assert got == reference.dense_put(gso, i, x), (i, x)
        seen[0] += 1
        return got

    for m in (enumeration, reduction):
        monkeypatch.setattr(m, "_put", checked)
    return seen
