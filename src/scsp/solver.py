"""End-to-end solving: decompose tables, cut the network, read the answer.

:func:`build_network` checks and decomposes each distinct table once and
routes its terms straight into the network's numbered edges, so
:func:`solve` builds no compiled instance on its way to the cut.
:func:`compile_to_intervals` and :func:`expansions` take the same memo,
numbering and guards to an instance of interval constraints instead, for
``scsp decompose`` and for callers that want the rewritten instance.

:func:`solve` is exact and deterministic: the same instance always yields
the same optimal assignment.  :func:`brute_force` enumerates assignments
in lexicographic variable order and serves as the independent oracle.

:func:`xor_gadget` is the counterpart construction: given any
non-submodular binary table, it wires six constraints into a pair of
two-valued variables whose projected penalty is an exclusive-or pattern,
the standard seed of NP-hardness proofs.  Its existence is what makes the
submodularity requirement of :func:`solve` tight rather than convenient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import cutgraph
from .cutgraph import FlowNetwork, _level_nodes, extract_assignment, min_cut
from .errors import (CutMismatch, GadgetMismatch, IsSubmodular,
                     NotSubmodular, TooLarge)
from .evaluation import INF, ZERO, Evaluation, exact_coefficient, frozen_slots
from .functions import BinaryTable, IntervalFunction, UnaryTable, check_type
from .model import Instance, SoftConstraint, evaluate
from .submodular import (decompose_binary, decompose_unary, find_violation,
                         find_violation_full)

BRUTE_FORCE_GUARD = 10 ** 7


@frozen_slots
@dataclass(frozen=True, slots=True)
class Solution:
    """An optimal assignment and its evaluation.  ``network`` is the flow
    network :func:`solve` cut; :func:`brute_force` leaves it None.  The
    assignment is a dict, so a Solution has no hash."""

    assignment: dict
    evaluation: Evaluation
    network: FlowNetwork | None = field(default=None, compare=False,
                                        repr=False)

    __hash__ = None


def check_submodular(instance: Instance) -> None:
    """Raise NotSubmodular, tagged with the index of its first holder, if
    a binary table over two distinct variables is not submodular: the one
    requirement :func:`solve` places on its input.  A table on a repeated
    scope only ever sees its diagonal; each distinct table is checked once.
    """
    check_type("instance", instance, Instance)
    checked = set()
    for index, c in enumerate(instance.constraints):
        f = c.function
        if (isinstance(f, BinaryTable) and c.scope[0] != c.scope[1]
                and f not in checked):
            checked.add(f)
            witness = find_violation(f)
            if witness is not None:
                raise NotSubmodular(witness, constraint_index=index)


def _terms(f, repeated: bool) -> tuple:
    """A table's interval terms, with patterns over its scope (v, w).
    ``repeated`` says that v == w, in which case a binary table is read on
    its diagonal only."""
    if isinstance(f, UnaryTable):
        return decompose_unary(f)
    if repeated:
        diagonal = UnaryTable([f.value_at(d, d) for d in range(1, f.m + 1)])
        return decompose_unary(diagonal)
    return decompose_binary(f).terms


def _decomposed(memo: dict, f, repeated: bool, index: int | None, form):
    """``form`` of the table's terms (see :func:`_terms`), kept in ``memo``
    under the table and whether its scope repeats a variable: a table seen
    before is neither checked nor decomposed again.  NotSubmodular is
    tagged with ``index``, the constraint that holds the table."""
    key = f, repeated
    done = memo.get(key)
    if done is None:
        try:
            terms = _terms(f, repeated)
        except NotSubmodular as err:
            raise NotSubmodular(err.witness, constraint_index=index) from None
        done = memo[key] = form(terms)
    return done


def _too_large(index: int | None) -> TooLarge:
    """The refusal of constraint ``index``, whose interval constraints
    would take the compiled instance past ``cutgraph.TERMS_GUARD``."""
    return TooLarge(f"constraint {index} takes the compiled instance "
                    f"past {cutgraph.TERMS_GUARD} interval constraints")


def _expand(constraint: SoftConstraint, index: int | None,
            memo: dict, room: int) -> tuple[SoftConstraint, ...]:
    """:func:`expand_constraint`, with each table's terms kept in ``memo``
    (see :func:`_decomposed`): a table seen before is only routed onto
    this constraint's scope.  Raises TooLarge, before routing, when the
    constraint would yield more than ``room`` interval constraints."""
    f = constraint.function
    v, w = constraint.scope[0], constraint.scope[-1]
    if isinstance(f, IntervalFunction):
        terms = () if f.penalty.is_zero else (constraint,)
    else:  # tuple() of the terms' tuple is that tuple
        terms = _decomposed(memo, f, v == w, index, tuple)
    if len(terms) > room:
        raise _too_large(index)
    if isinstance(f, IntervalFunction):
        return terms
    # "xy" on (v, w), "xx" on (v, v), and the "y" patterns the same with v
    # and w swapped: the terms share these four scope tuples
    scopes = {"xy": (v, w), "xx": (v, v), "yx": (w, v), "yy": (w, w)}
    return tuple(SoftConstraint(scopes[t.pattern], t.interval) for t in terms)


def expand_constraint(constraint: SoftConstraint,
                      index: int | None = None) -> tuple[SoftConstraint, ...]:
    """Rewrite one constraint as interval-function constraints.

    Table constraints are decomposed; interval constraints pass through
    (zero-penalty ones are dropped).  A binary table on a repeated scope
    only ever sees its diagonal, over the table's own 1..M, so it reduces
    to a unary table with no submodularity requirement.  Raises TooLarge
    when the rewriting would hold more than ``cutgraph.TERMS_GUARD``
    interval constraints.
    """
    check_type("constraint", constraint, SoftConstraint)
    return _expand(constraint, index, {}, cutgraph.TERMS_GUARD)


def expansions(instance: Instance):
    """Each constraint, in order, with its :func:`expand_constraint`
    rewriting; one memo serves the whole instance, so each distinct table
    is checked and decomposed once.  Raises TooLarge before routing the
    constraint that would take the rewritings past ``cutgraph.TERMS_GUARD``
    interval constraints in all."""
    memo: dict = {}
    routed = 0
    for index, c in enumerate(instance.constraints):
        parts = _expand(c, index, memo, cutgraph.TERMS_GUARD - routed)
        routed += len(parts)
        yield c, parts


def compile_to_intervals(instance: Instance) -> Instance:
    """An equivalent instance whose constraints are all interval functions.

    Pointwise equivalent: every assignment keeps its evaluation.  Raises
    NotSubmodular, tagged with the index of the first constraint that holds
    it, if a binary table over two distinct variables is not submodular,
    and TooLarge if it would hold more than ``cutgraph.TERMS_GUARD``
    interval constraints.  Each distinct table is checked and decomposed
    once per call.
    """
    check_type("instance", instance, Instance)
    constraints = tuple(part for _, parts in expansions(instance)
                        for part in parts)
    return Instance(instance.variables, instance.domain_size, constraints)


# the variable a term's argument reads: 0 for v, 1 for w of scope (v, w)
_END = {"x": 0, "y": 1}


def _route(terms) -> tuple:
    """A table's terms as arcs over any scope (v, w): per term, where its
    tail and its head lie, each as (0 for v or 1 for w, the level above
    that variable's level 0); and the terms' penalties."""
    tails = tuple((_END[t.pattern[1]], t.interval.y_max) for t in terms)
    heads = tuple((_END[t.pattern[0]], t.interval.x_min - 1) for t in terms)
    return tails, heads, tuple(t.interval.penalty for t in terms)


def build_network(instance: Instance) -> FlowNetwork:
    """The flow network of an instance, with no compiled instance between.

    Each interval constraint <(v, w), f> is an edge from (w, f.y_max) to
    (v, f.x_min - 1); each table constraint is checked and decomposed as
    :func:`expansions` does, once per distinct table and kind of scope,
    and each of its terms is such an edge, routed onto the constraint's
    scope.  Edges are numbered as the constraints of
    ``compile_to_intervals(instance)``, so the network equals
    ``build_network(compile_to_intervals(instance))``: a zero-penalty
    interval constraint takes no number and adds no edge, and parallel
    edges from duplicate constraints are kept separate.

    Raises TooLarge, before allocating anything, past
    ``cutgraph.NETWORK_GUARD`` level nodes; then NotSubmodular and TooLarge
    as :func:`compile_to_intervals` does.
    """
    check_type("instance", instance, Instance)
    m = instance.domain_size
    variables = instance.variables
    # every id is taken from this list, so the edges share its int objects
    node = list(range(2 + _level_nodes(variables, m)))
    # per variable: S -> (v, M), (v, 0) -> T, then (v, d) -> (v, d + 1)
    tails, heads = [], []
    level0 = {}  # variable -> the id of its level 0
    for i, v in enumerate(variables):
        base = level0[v] = 2 + i * (m + 1)
        tails += node[0], node[base]
        tails += node[base:base + m]
        heads += node[base + m], node[1]
        heads += node[base + 1:base + m + 1]
    capacities = [INF] * len(tails)
    constraints = [None] * len(tails)
    memo: dict = {}
    guard = cutgraph.TERMS_GUARD
    routed = 0  # the next compiled constraint's number
    for index, c in enumerate(instance.constraints):
        f = c.function
        if isinstance(f, IntervalFunction):
            if f.penalty.is_zero:
                continue
            if routed >= guard:
                raise _too_large(index)
            v, w = c.scope
            tails.append(node[level0[w] + f.y_max])
            heads.append(node[level0[v] + f.x_min - 1])
            capacities.append(f.penalty)
            constraints.append(routed)
            routed += 1
            continue
        v, w = c.scope[0], c.scope[-1]
        route_tails, route_heads, penalties = _decomposed(
            memo, f, v == w, index, _route)
        if len(penalties) > guard - routed:
            raise _too_large(index)
        ends = level0[v], level0[w]
        tails += [node[ends[s] + d] for s, d in route_tails]
        heads += [node[ends[s] + d] for s, d in route_heads]
        capacities += penalties
        constraints += range(routed, routed + len(penalties))
        routed += len(penalties)
    return FlowNetwork(variables, m, tails, heads, capacities, constraints)


def solve(instance: Instance) -> Solution:
    """An assignment of minimum evaluation, found through a minimum cut."""
    network = build_network(instance)
    cut = min_cut(network)
    assignment = extract_assignment(network, cut)
    value = evaluate(instance, assignment)
    if value != cut.value:
        raise CutMismatch(f"cut weight {cut.value} differs from the "
                          f"extracted assignment's evaluation {value}")
    return Solution(assignment, value, network)


def brute_force(instance: Instance) -> Solution:
    """Exhaustive minimum, keeping the lexicographically first optimum.
    Raises TooLarge past ``BRUTE_FORCE_GUARD`` assignments."""
    check_type("instance", instance, Instance)
    names = instance.variables
    m = instance.domain_size
    if m ** len(names) > BRUTE_FORCE_GUARD:
        raise TooLarge(f"{m}**{len(names)} assignments exceed the guard")
    best_assignment = None
    best_value = None
    for combo in itertools.product(range(1, m + 1), repeat=len(names)):
        assignment = dict(zip(names, combo))
        value = evaluate(instance, assignment)
        if best_value is None or value < best_value:
            best_assignment, best_value = assignment, value
    return Solution(best_assignment, best_value)


@frozen_slots
@dataclass(frozen=True, slots=True)
class GadgetResult:
    """The pieces of the exclusive-or simulation built on a violation.

    With psi(a, c) + psi(b, d) > psi(a, d) + psi(b, c), the simulation
    prices agreement of two two-valued variables at chi(1,1) = chi(2,2)
    = 2*(lam + mu) and disagreement at lam + mu + psi(a,d) + psi(b,c),
    strictly cheaper; every other cell is infinite.  ``projection`` is the
    penalty actually realized by minimizing out the four inner variables,
    and ``verified`` records that it matches ``chi`` cell by cell.
    """

    a: int
    b: int
    c: int
    d: int
    epsilon: Evaluation
    lam: Evaluation
    mu: Evaluation
    zeta: BinaryTable
    phi: BinaryTable
    chi: BinaryTable
    projection: BinaryTable
    verified: bool


def xor_gadget(psi: BinaryTable, epsilon=1) -> GadgetResult:
    """Simulate an exclusive-or penalty using a non-submodular table.

    Raises IsSubmodular when psi has no violation to build on, and
    GadgetMismatch if the projected penalty fails to reproduce chi (which
    would mean the construction itself is broken).
    """
    check_type("psi", psi, BinaryTable)
    eps = exact_coefficient("epsilon", epsilon)
    m = psi.m
    if m ** 6 > BRUTE_FORCE_GUARD:
        raise TooLarge(f"projecting out four variables over 1..{m} "
                       "exceeds the enumeration guard")
    witness = find_violation_full(psi)
    if witness is None:
        raise IsSubmodular("the table has no violating quadruple")
    a, c, b, d = witness.u, witness.v, witness.x, witness.y
    psi_ad = psi.value_at(a, d)
    psi_bc = psi.value_at(b, c)
    base = psi_ad + psi_bc  # finite, else the witness inequality could not hold
    lam = min(psi.value_at(a, c), base + eps)
    mu = min(psi.value_at(b, d), base + eps)

    def zeta_cell(x, t):
        if (x, t) == (1, a):
            return mu
        if (x, t) == (2, b):
            return lam
        return INF

    def phi_cell(v, y):
        if v == c:
            return ZERO if y == 1 else psi_ad + eps if y == 2 else INF
        if v == d:
            return psi_bc + eps if y == 1 else ZERO if y == 2 else INF
        return INF

    def chi_cell(x, y):
        if x in (1, 2) and y in (1, 2):
            return (lam + mu) + (lam + mu) if x == y else lam + mu + base
        return INF

    zeta = BinaryTable.from_function(m, zeta_cell)
    phi = BinaryTable.from_function(m, phi_cell)
    chi = BinaryTable.from_function(m, chi_cell)

    # The six constraints form two chains meeting only at x and y:
    #   zeta(x, t), psi(t, v), phi(v, y)   and   zeta(y, u), psi(u, w), phi(w, x)
    # so the projection splits into two independent minimizations.
    def chain(first, last):
        best = INF
        for t in range(1, m + 1):
            zt = zeta.value_at(first, t)
            if zt.is_infinite:
                continue
            for v in range(1, m + 1):
                candidate = zt + psi.value_at(t, v) + phi.value_at(v, last)
                if candidate < best:
                    best = candidate
        return best

    projection = BinaryTable.from_function(
        m, lambda x, y: chain(x, y) + chain(y, x))
    if projection != chi:
        raise GadgetMismatch("projection does not reproduce chi")
    return GadgetResult(a, b, c, d, eps, lam, mu, zeta, phi, chi,
                        projection, True)
