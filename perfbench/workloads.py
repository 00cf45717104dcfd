"""Seeded input generators for the four benchmark workloads.

Every generator returns a :class:`Model`: plain Python data (names,
``Fraction`` penalties, ``None`` for infinity) describing the constraints
the solver receives, together with the interval terms the generator summed
to build them.  The terms are known by construction, so the reference
network in ``reference.py`` is built from them without calling the code
under test; no generator calls ``compile_to_intervals`` or a
``decompose_*`` function.

An instance is identified by ``(workload, seed, rep)``.  Rep 0 of seed 5
of ``sparse-tables`` is exactly the instance of acceptance criterion 10
(optimum 762, 3402 nodes).  Later reps are distinct instances of the same
shape, so repeated solves within one run never see the same tables twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

PATTERNS = ("xy", "yx", "xx", "yy")
WORKLOADS = ("sparse-tables", "dense-tables", "grid-text", "gi-flow")
DEFAULT_SEED = 5


@dataclass
class Model:
    """An instance as plain data.

    ``constraints`` holds ``("unary", v, values)``, ``("binary", v, w,
    rows)`` and ``("gi", v, w, a, b, rho)`` tuples, in solver order.
    ``terms`` holds ``(p, q, a, b, rho)``: rho is charged when
    ``t(p) >= a`` and ``t(q) <= b``.  Their sum equals the constraints'
    sum pointwise.  A penalty is a ``Fraction`` or ``None`` for infinity.
    """

    variables: tuple
    m: int
    constraints: list = field(default_factory=list)
    terms: list = field(default_factory=list)


def _rng(seed: int, rep: int) -> random.Random:
    return random.Random(seed) if rep == 0 else random.Random(f"{seed}/{rep}")


def _route(pattern, v, w, a, b, rho):
    """The term ``(pattern, a, b, rho)`` of a table on (v, w) as a gi term."""
    p, q = {"xy": (v, w), "yx": (w, v), "xx": (v, v), "yy": (w, w)}[pattern]
    return (p, q, a, b, rho)


def _random_submodular(rng, m, max_terms, inf_share):
    """A table summed from random interval terms, submodular by construction.

    Returns (rows, terms) with terms as (pattern, a, b, rho).  The draws
    match the test suite's generator, so seed 5 rebuilds criterion 10.
    """
    grid = [[Fraction(0)] * m for _ in range(m)]
    infinite_cells = [[False] * m for _ in range(m)]
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        pattern = rng.choice(PATTERNS)
        a, b = rng.randint(1, m), rng.randint(1, m)
        if pattern in ("xx", "yy") and a > b:
            continue
        infinite = rng.random() < inf_share
        rho = None if infinite else Fraction(rng.randint(1, 12),
                                             rng.choice((1, 2, 3)))
        if pattern == "xy":
            rows, cols = range(a - 1, m), range(0, b)
        elif pattern == "yx":
            rows, cols = range(0, b), range(a - 1, m)
        elif pattern == "xx":
            rows, cols = range(a - 1, b), range(0, m)
        else:
            rows, cols = range(0, m), range(a - 1, b)
        for i in rows:
            for j in cols:
                if infinite:
                    infinite_cells[i][j] = True
                else:
                    grid[i][j] += rho
        terms.append((pattern, a, b, rho))
    rows = [[None if infinite_cells[i][j] else grid[i][j] for j in range(m)]
            for i in range(m)]
    return rows, terms


def _unary_terms(v, values):
    return [(v, v, d, d, c) for d, c in enumerate(values, 1) if c != 0]


def sparse_tables(seed: int, rep: int = 0, n=200, m=16,
                  tables=1000) -> Model:
    """By default 200 variables and 1000 random submodular tables over
    1..16: acceptance criterion 10's shape."""
    rng = _rng(seed, rep)
    names = tuple(f"v{k}" for k in range(n))
    model = Model(names, m)
    for _ in range(tables):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        v, w = names[i], names[j]
        rows, terms = _random_submodular(rng, m, max_terms=5, inf_share=0.08)
        model.constraints.append(("binary", v, w, rows))
        model.terms.extend(_route(t[0], v, w, *t[1:]) for t in terms)
    return model


def dense_tables(seed: int, rep: int = 0, n=6, m=64) -> Model:
    """By default a 6-variable chain over 1..64 of distinct dense tables.

    Each link is M*M - x*y plus a random submodular perturbation; each
    variable has a random unary table.  M*M - x*y is the sum of the
    (M-1)**2 terms [x >= a][y <= b] for 2 <= a <= M, 1 <= b < M, plus the
    unary parts M*(M - x) and M - y.
    """
    rng = _rng(seed, rep)
    names = tuple(f"c{k}" for k in range(n))
    model = Model(names, m)
    for v in names:
        values = [Fraction(rng.randint(0, 4000), rng.choice((1, 2, 3)))
                  for _ in range(m)]
        model.constraints.append(("unary", v, values))
        model.terms.extend(_unary_terms(v, values))
    for v, w in zip(names, names[1:]):
        rows, terms = _random_submodular(rng, m, max_terms=12, inf_share=0.1)
        for x in range(1, m + 1):
            row = rows[x - 1]
            for y in range(1, m + 1):
                if row[y - 1] is not None:
                    row[y - 1] += m * m - x * y
        model.constraints.append(("binary", v, w, rows))
        model.terms.extend(_route(t[0], v, w, *t[1:]) for t in terms)
        model.terms.extend((v, w, a, b, Fraction(1))
                           for a in range(2, m + 1) for b in range(1, m))
        model.terms.extend(_unary_terms(v, [Fraction(m * (m - x))
                                            for x in range(1, m + 1)]))
        model.terms.extend(_unary_terms(w, [Fraction(m - y)
                                            for y in range(1, m + 1)]))
    return model


def _noisy_image(rng, side, m):
    """A diagonal ramp over 1..m with a fifth of the pixels replaced."""
    image = {}
    for r in range(side):
        for c in range(side):
            value = 1 + (r + c) * (m - 1) // (2 * side - 2)
            if rng.random() < 0.2:
                value = rng.randint(1, m)
            image[r, c] = value
    return image


def _grid_edges(side):
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                yield (r, c), (r, c + 1)
            if r + 1 < side:
                yield (r, c), (r + 1, c)


def _data_cost(d, observed):
    return Fraction(min((d - observed) ** 2, 25))


def _abs_diff_terms(v, w, m):
    """|t(v) - t(w)| as 2(M-1) unit gi terms."""
    terms = []
    for k in range(1, m):
        terms.append((v, w, k + 1, k, Fraction(1)))
        terms.append((w, v, k + 1, k, Fraction(1)))
    return terms


def grid_text(seed: int, rep: int = 0, side=20, m=16) -> Model:
    """By default a 20x20 denoising grid over 1..16: unary data tables and
    one |x - y| table repeated on all 760 grid edges."""
    rng = _rng(seed, rep)
    image = _noisy_image(rng, side, m)
    name = {rc: f"p{rc[0]}_{rc[1]}" for rc in image}
    model = Model(tuple(name[rc] for rc in sorted(image)), m)
    for rc in sorted(image):
        values = [_data_cost(d, image[rc]) for d in range(1, m + 1)]
        model.constraints.append(("unary", name[rc], values))
        model.terms.extend(_unary_terms(name[rc], values))
    smoothing = [[Fraction(abs(x - y)) for y in range(1, m + 1)]
                 for x in range(1, m + 1)]
    for s, t in _grid_edges(side):
        v, w = name[s], name[t]
        model.constraints.append(("binary", v, w, smoothing))
        model.terms.extend(_abs_diff_terms(v, w, m))
    return model


def gi_flow(seed: int, rep: int = 0, side=30, m=16,
            long_range=1000) -> Model:
    """By default a 30x30 grid over 1..16 written only as gi constraints,
    plus 1000 long-range terms whose denominators make the scale factor
    210."""
    rng = _rng(seed, rep)
    image = _noisy_image(rng, side, m)
    name = {rc: f"q{rc[0]}_{rc[1]}" for rc in image}
    names = tuple(name[rc] for rc in sorted(image))
    model = Model(names, m)
    for rc in sorted(image):
        v = name[rc]
        for d in range(1, m + 1):
            cost = _data_cost(d, image[rc])
            if cost:
                model.terms.append((v, v, d, d, cost))
    for s, t in _grid_edges(side):
        model.terms.extend(_abs_diff_terms(name[s], name[t], m))
    for k in range(long_range):
        v, w = rng.sample(names, 2)
        denominator = (1, 2, 3, 5, 7)[k % 5]
        numerator = rng.randint(1, 20)
        if denominator > 1 and numerator % denominator == 0:
            numerator += 1
        model.terms.append((v, w, rng.randint(1, m), rng.randint(1, m),
                            Fraction(numerator, denominator)))
    model.constraints = [("gi",) + t for t in model.terms]
    return model


GENERATORS = {
    "sparse-tables": sparse_tables,
    "dense-tables": dense_tables,
    "grid-text": grid_text,
    "gi-flow": gi_flow,
}


def generate(workload: str, seed: int, rep: int = 0, **sizes) -> Model:
    return GENERATORS[workload](seed, rep, **sizes)


def _token(value) -> str:
    return "inf" if value is None else str(value)


def to_text(model: Model) -> str:
    """The model in the ``scsp 1`` text format."""
    lines = ["scsp 1", f"domain {model.m}"]
    lines.extend(f"var {v}" for v in model.variables)
    for c in model.constraints:
        if c[0] == "unary":
            lines.append(f"unary {c[1]} " + " ".join(map(_token, c[2])))
        elif c[0] == "binary":
            body = " / ".join(" ".join(map(_token, row)) for row in c[3])
            lines.append(f"binary {c[1]} {c[2]} {body}")
        else:
            _, v, w, a, b, rho = c
            lines.append(f"gi {v} {w} {a} {b} {_token(rho)}")
    return "\n".join(lines) + "\n"


def to_instance(model: Model, scsp):
    """The model as an ``scsp.Instance``; ``scsp`` is the imported package."""
    evaluations = {}

    def ev(value):
        # Evaluations are immutable, so equal penalties share one object;
        # this keeps set-up cheap
        if value is None:
            return scsp.INF
        e = evaluations.get(value)
        if e is None:
            e = evaluations[value] = scsp.as_evaluation(value)
        return e

    constraints = []
    for c in model.constraints:
        if c[0] == "unary":
            f, scope = scsp.UnaryTable([ev(x) for x in c[2]]), (c[1],)
        elif c[0] == "binary":
            f = scsp.BinaryTable([[ev(x) for x in row] for row in c[3]])
            scope = (c[1], c[2])
        else:
            f, scope = scsp.IntervalFunction(c[3], c[4], ev(c[5])), (c[1], c[2])
        constraints.append(scsp.SoftConstraint(scope, f))
    return scsp.Instance(model.variables, model.m, tuple(constraints))
