"""Integer hives: rhombus-constrained triangular arrays counting LR coefficients.

Vertex labels a[i][j] live on the triangle {0 <= i, j, i+j <= n}.  Boundary
labels are the partial sums of the three boundary partitions; every unit
rhombus (two unit triangles glued along an edge) must satisfy
shared-edge sum >= opposite-vertex sum.  Edge labels are vertex differences,
so the triangle and rhombus *equalities* hold by construction and only the
inequalities need checking.  Vertices have row-major ids, and each side's
inequalities are listed once, as id quadruples (_rhombus_inequalities): the
plans schedule them, the plan check counts them, and _holds checks a whole
hive against them, for enumeration's re-check and for is_valid_lr_hive.

Counting, enumeration and expansion walk the vertices in one order: rows
descending, each right to left, with the free nu side last when a walk has
one.  Enumeration sorts its hives into row-major order afterwards.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate, groupby, pairwise
from operator import itemgetter, sub

from .partitions import Partition


# The most steps in one walked row.  A compiled row nests one loop per step
# inside its loop over the frontier, and CPython rejects more than 20
# statically nested blocks.
_ROW_LIMIT = 16


class Hive(namedtuple("Hive", "n rows")):
    """Immutable triangular array of vertex labels; rows[i][j] is a_{i,j}."""

    __slots__ = ()

    def __new__(cls, n, rows):
        rows = tuple(tuple(r) for r in rows)
        if n < 0 or len(rows) != n + 1 or any(len(r) != n + 1 - i for i, r in enumerate(rows)):
            raise ValueError("rows must form a triangle of side n")
        return super().__new__(cls, n, rows)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    def diagonals(self):
        """Vertex labels grouped apex to base; row k lists a_{k,0} .. a_{0,k}."""
        return [[self.rows[k - t][t] for t in range(k + 1)] for k in range(self.n + 1)]


class HiveBoundary(namedtuple("HiveBoundary", "n lam mu nu")):
    """Boundary data (lam, mu, nu) padded onto a side-n triangle."""

    __slots__ = ()

    def __new__(cls, n, lam, mu, nu):
        if max(lam.length, mu.length, nu.length) > n:
            raise ValueError("partition lengths must not exceed n")
        if lam.weight != mu.weight + nu.weight:
            raise ValueError("|mu| + |nu| must equal |lambda|")
        return super().__new__(cls, n, lam, mu, nu)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    def vertex_labels(self):
        """Boundary assignments: {(i, j): label} on the three triangle sides."""
        labels = {}
        _fill_boundary(labels, _sides(self.n), self.lam, self.mu, self.nu)
        return labels


def _sides(n):
    """The vertices of the lam, nu and mu sides, each from its first label on.

    The lam side runs from (0, 0) to (n, 0), the nu side from (0, 0) to
    (0, n), and the mu side from (0, n) to (n, 0).
    """
    return (
        [(k, 0) for k in range(n + 1)],
        [(0, i) for i in range(n + 1)],
        [(j, n - j) for j in range(n + 1)],
    )


def _fill_boundary(vals, sides, lam, mu, nu):
    """Write the partial sums of lam and nu from 0, and of mu from |nu|, onto the sides."""
    n = len(sides[0]) - 1
    for side, p, start in zip(sides, (lam, nu, mu), (0, 0, nu.weight)):
        for v, label in zip(side, accumulate(p.padded(n), initial=start)):
            vals[v] = label


@lru_cache(maxsize=None)
def _vertex_ids(n):
    """{(i, j): id} on the side-n triangle, row-major: the order in which Hive.rows flattens."""
    return {p: k for k, p in enumerate((i, j) for i in range(n + 1) for j in range(n + 1 - i))}


@lru_cache(maxsize=None)
def _rhombus_inequalities(n):
    """All (p1, p2, m1, m2), as vertex ids, with constraint a[p1] + a[p2] >= a[m1] + a[m2]."""
    vid = _vertex_ids(n)
    ineqs = []
    for i in range(n - 1):
        for j in range(n - 1 - i):
            ineqs.append((vid[i, j + 1], vid[i + 1, j], vid[i, j], vid[i + 1, j + 1]))
            ineqs.append((vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1], vid[i + 2, j]))
            ineqs.append((vid[i, j + 1], vid[i + 1, j + 1], vid[i + 1, j], vid[i, j + 2]))
    return tuple(ineqs)


def _holds(n, labels):
    """True iff the flat, row-major labels satisfy every rhombus inequality of side n."""
    return all(labels[a] + labels[b] >= labels[c] + labels[d] for a, b, c, d in _rhombus_inequalities(n))


# lower_triples hold (x, y, z) with value >= vals[x] + vals[y] - vals[z],
# upper_triples those with value <= vals[x] + vals[y] - vals[z].
class _Step(namedtuple("_Step", "vid lower_singles upper_singles lower_triples upper_triples")):
    __slots__ = ()

    def reads(self):
        """Every vertex whose label bounds this step."""
        out = set(self.lower_singles) | set(self.upper_singles)
        for triple in self.lower_triples + self.upper_triples:
            out.update(triple)
        return out


# n is the side; sides holds the vertex ids of the lam, nu and mu sides, as
# _sides lists them; rows one (steps, key) pair per walked row: the row's
# steps, and the vertices whose labels identify a partial hive after it;
# walkers each row compiled by _compile_row, in order.
_Plan = namedtuple("_Plan", "free keep n sides boundary_checks rows walkers")


@lru_cache(maxsize=None)
def _plan(n, free, keep, /):
    """Precompute the search schedule for side n.

    Every plan walks the interior rows descending, from i = n - 2 down to 1,
    each right to left; with free, the inner vertices of the nu side (row 0)
    are walked too, as the last row.  For each walked vertex, collect every
    inequality of the side's table (_rhombus_inequalities, over the ids of
    _vertex_ids) whose other three vertices come earlier (fixed
    boundary vertices count as assigned), split into lower/upper bounds on
    the vertex, plus single-vertex bounds implied by the monotonicity of edge
    labels toward the boundary.  A row longer than _ROW_LIMIT is split into
    consecutive segments, each walked as a row of its own.

    Each row's key is the frontier, the labels later rows still read; from
    the free side on it is led by the free labels assigned so far, in side
    order, and with keep it is every label assigned so far, so nothing
    merges.  Every row's walk is built once, here, from a source that
    rows of one shape share (see _compile_row).
    """
    vid = _vertex_ids(n)
    free_side = _sides(n)[1][1:-1] if free else []
    walked = sorted([(i, j) for i in range(1, n) for j in range(1, n - i)] + free_side, reverse=True)
    pos = {vid[p]: t for t, p in enumerate(walked)}

    per_vertex_lower = {vid[p]: [] for p in walked}
    per_vertex_upper = {vid[p]: [] for p in walked}
    boundary_checks = []
    for p1, p2, m1, m2 in _rhombus_inequalities(n):
        members = [v for v in (p1, p2, m1, m2) if v in pos]
        if not members:
            boundary_checks.append((p1, p2, m1, m2))
            continue
        last = max(members, key=pos.__getitem__)
        if last == p1:
            per_vertex_lower[last].append((m1, m2, p2))
        elif last == p2:
            per_vertex_lower[last].append((m1, m2, p1))
        elif last == m1:
            per_vertex_upper[last].append((p1, p2, m2))
        else:
            per_vertex_upper[last].append((p1, p2, m1))

    def singles(v, points):  # those inside the triangle and assigned before v
        ids = {vid[u] for u in points if u in vid}
        return tuple(sorted(u for u in ids if u not in pos or pos[u] < pos[v]))

    steps = []
    for (i, j) in walked:
        v = vid[i, j]
        # the row, column and diagonal ends toward the boundary, then the neighbours
        lower = ((i, 0), (0, j), (0, i + j), (i, j - 1), (i - 1, j), (i - 1, j + 1))
        upper = ((i, n - i), (n - j, j), (i + j, 0), (i, j + 1), (i + 1, j), (i + 1, j - 1))
        steps.append(
            _Step(
                v,
                singles(v, lower),
                singles(v, upper),
                tuple(per_vertex_lower[v]),
                tuple(per_vertex_upper[v]),
            )
        )

    segments = []
    for _, group in groupby(zip(walked, steps), key=lambda ps: ps[0][0]):
        row_steps = tuple(step for _, step in group)
        segments += (row_steps[t : t + _ROW_LIMIT] for t in range(0, len(row_steps), _ROW_LIMIT))
    frontiers = []
    later = set()  # vertices read by the rows after the current one
    for row_steps in reversed(segments):
        end = pos[row_steps[-1].vid]
        frontiers.append(tuple(sorted(u for u in later if u in pos and pos[u] <= end)))
        for step in row_steps:
            later |= step.reads()
    result = [vid[p] for p in (walked if keep else free_side)]  # the labels the last key holds, in order
    rows, walkers = [], []
    carried = ()
    assigned = set()
    for row_steps, frontier in zip(segments, reversed(frontiers)):
        assigned.update(step.vid for step in row_steps)
        done = tuple(u for u in result if u in assigned)  # what every later key leads with
        key = done + tuple(u for u in frontier if u not in done)
        rows.append((row_steps, key))
        walkers.append(_compile_row(row_steps, carried, key))
        carried = key

    sides = tuple(tuple(vid[p] for p in side) for side in _sides(n))
    plan = _Plan(free, keep, n, sides, tuple(boundary_checks), tuple(rows), tuple(walkers))
    _check_plan(plan)
    return plan


def _check_plan(plan):
    """Raise AssertionError unless the per-step bounds alone decide every hive.

    The schedule is the rows' steps, in order.  The frontier count never
    re-checks a finished hive, so the schedule must enforce every rhombus
    inequality exactly once, at its last vertex.  Each row may read only
    boundary labels, labels set earlier in the row and the key carried in
    from the row before, and its own key only labels it carries or sets.  The
    last key holds exactly the labels the result is read from: none for a
    count, the free side's inner labels in side order for an expansion, and
    every walked label, in order, with keep.
    """

    def key(p1, p2, m1, m2):
        return tuple(sorted((p1, p2))), tuple(sorted((m1, m2)))

    steps = [step for row_steps, _ in plan.rows for step in row_steps]
    pos = {step.vid: t for t, step in enumerate(steps)}
    enforced = Counter()
    for ineq in plan.boundary_checks:
        if any(v in pos for v in ineq):
            raise AssertionError(f"boundary check {ineq} reads an interior vertex")
        enforced[key(*ineq)] += 1
    for t, step in enumerate(steps):
        v = step.vid
        for x, y, z in step.lower_triples:
            enforced[key(v, z, x, y)] += 1
        for x, y, z in step.upper_triples:
            enforced[key(x, y, v, z)] += 1
        if any(u in pos and pos[u] >= t for u in step.reads()):
            raise AssertionError(f"step {t} reads a vertex not yet assigned")
    wanted = Counter(key(*ineq) for ineq in _rhombus_inequalities(plan.n))
    if enforced != wanted or any(c != 1 for c in wanted.values()):
        raise AssertionError("rhombus inequalities not enforced exactly once")

    carried = ()
    for row_steps, key in plan.rows:
        known = set(carried)
        for step in row_steps:
            if any(u in pos and u not in known for u in step.reads()):
                raise AssertionError(f"vertex {step.vid} reads a label outside its carried key")
            known.add(step.vid)
        if not known.issuperset(key):
            raise AssertionError(f"key {key} names a label the row neither carries nor assigns")
        carried = key
    if plan.keep:
        result = tuple(step.vid for step in steps)
    elif plan.free:
        result = plan.sides[1][1:-1]
    else:
        result = ()
    if carried != result:
        raise AssertionError(f"the last key {carried} is not the result's labels {result}")


def _compile_row(row_steps, carried, key):
    """One row's walk as a Python function: walk(frontier, vals, cap) -> reached.

    The function unpacks the carried labels from each frontier key and nests
    one while loop per step, in order, each running its vertex from the
    step's lower bound to its upper bound; the innermost body adds the
    frontier state's number under the key's labels.  Each bound is an
    if-chain that starts at 0 (or cap) and raises (or lowers) it term by
    term, and each term is computed at the outermost level where all of its
    labels are set: over boundary labels only, once before the frontier
    loop; over carried labels, once per frontier state; otherwise just
    inside the loop of the last step whose label it reads.  A partial bound
    gets its own name per step and level, so no term reads a stale label.

    In an LR-hive the bounds almost always meet (86% of the vertex visits
    of a 4x4 product sweep have lo == hi), so the walk pays per visit, not
    per value.  On CPython 3.11 a while loop that runs once costs about
    50 ns against 230 ns for a one-value range loop, and a four-term
    if-chain about 100 ns against 290 ns for max() over the same terms.

    The source names each label by its role, not its vertex id: c0, c1, ...
    the carried labels in key order, s0, s1, ... the row's steps, and b0,
    b1, ... the boundary labels it reads, in id order.  It defines
    make(b0, b1, ...), which binds the boundary ids and returns the walk,
    so rows of one shape on different sides share one compiled source.
    """
    name = {u: f"c{i}" for i, u in enumerate(carried)}
    name.update((step.vid, f"s{t}") for t, step in enumerate(row_steps))
    reads = sorted(set().union(*(step.reads() for step in row_steps)) - name.keys())
    name.update((u, f"b{i}") for i, u in enumerate(reads))
    # the level that sets each label: 0 for boundary labels, 1 for the
    # carried ones, t + 2 for the label of step t
    level = {u: 1 for u in carried}
    level.update((step.vid, t + 2) for t, step in enumerate(row_steps))
    code = [[] for _ in range(len(row_steps) + 1)]  # each level's lines, before its loop

    def bound(bound_name, start, terms, better):  # the name or value the step's loop reads
        at_level = itemgetter(0)
        for at, group in groupby(sorted(terms, key=at_level), key=at_level):
            code[at].append(f"{bound_name}_{at} = {start}")
            start = f"{bound_name}_{at}"
            for _, expr in group:
                if expr.isidentifier():  # one label needs no temporary
                    code[at].append(f"if {expr} {better} {start}: {start} = {expr}")
                else:
                    code[at] += [f"x = {expr}", f"if x {better} {start}: {start} = x"]
        return start

    def terms(singles, triples):  # (level, expression) of each term of one bound
        return [(level.get(u, 0), f"v{name[u]}") for u in singles] + [
            (max(level.get(u, 0) for u in (x, y, z)), f"v{name[x]} + v{name[y]} - v{name[z]}")
            for x, y, z in triples
        ]

    bounds = [
        (
            bound(f"lo{t}", "0", terms(step.lower_singles, step.lower_triples), ">"),
            bound(f"hi{t}", "cap", terms(step.upper_singles, step.upper_triples), "<"),
        )
        for t, step in enumerate(row_steps)
    ]

    def labels(vids):  # a tuple display of the vertices' labels
        return "(" + "".join(f"v{name[u]}, " for u in vids) + ")"

    lines = [f"def make({', '.join(name[u] for u in reads)}):", "    def walk(frontier, vals, cap):"]
    lines += [f"        v{name[u]} = vals[{name[u]}]" for u in reads]
    lines += ["        reached = {}", "        get = reached.get"]
    lines += ["        " + line for line in code[0]]
    lines.append(f"        for {labels(carried) if carried else '_'}, mult in frontier.items():")
    indent = "            "
    for step, at, (lo, hi) in zip(row_steps, code[1:], bounds):
        v = f"v{name[step.vid]}"
        lines += [indent + line for line in at]
        lines += [f"{indent}{v} = {lo}", f"{indent}while {v} <= {hi}:"]
        indent += "    "
    lines.append(f"{indent}k = {labels(key)}")
    lines.append(f"{indent}reached[k] = get(k, 0) + mult")
    for step in reversed(row_steps):
        lines.append(f"{indent}v{name[step.vid]} += 1")
        indent = indent[:-4]
    lines += ["        return reached", "    return walk"]
    return _row_factory("\n".join(lines))(*reads)


@lru_cache(maxsize=None)
def _row_factory(source):
    """The make function a row's source defines, compiled once per distinct source."""
    namespace = {}
    exec(compile(source, "<hive row>", "exec"), namespace)
    return namespace["make"]


def _by_rows(lam, mu, nu, n, free=False, keep=False):
    """Walk the (lam, mu, nu) boundary's plan row by row.

    Returns (plan, vals, {final key: partial hives reaching it}), vals
    holding the boundary labels, or None when no hive exists.  After each
    row a partial hive is identified by the labels of the row's key, and
    partial hives with equal labels there are merged, their numbers summed.
    Each row runs as the function the plan compiled from its steps, a fixed
    nest of while loops: it walks every state carried in and assigns the
    row's vertices in order, each over every value its bounds allow.  The
    bounds are if-chains, each term computed once at the outermost loop
    that fixes its labels; since most vertices of an LR-hive admit a single
    value, this costs a fraction of a range() loop bounded by max() and
    min() per vertex.
    """
    if max(lam.length, mu.length, nu.length) > n:
        raise ValueError("partition lengths must not exceed n")
    if lam.weight != mu.weight + nu.weight:
        return None
    plan = _plan(n, free, keep)
    vals = [0] * len(_vertex_ids(n))
    _fill_boundary(vals, plan.sides, lam, mu, nu)
    if any(vals[a] + vals[b] < vals[c] + vals[d] for a, b, c, d in plan.boundary_checks):
        return None
    frontier = {(): 1}
    for walk in plan.walkers:
        frontier = walk(frontier, vals, lam.weight)
    return plan, vals, frontier


def default_hive_side(lam, mu, nu):
    """Side length used when none is given."""
    return max(lam.length, mu.length + nu.length)


def enumerate_lr_hives(lam, mu, nu, n=None):
    """All integer LR-hives with the (lam, mu, nu) boundary on a side-n triangle.

    Weight-infeasible input gives an empty list.  The row walk keys each
    partial hive on every label assigned so far, so nothing merges and the
    final keys are the hives; each is re-checked against every rhombus
    inequality of the side (_holds).  The hives are then sorted by their rows: they share their
    boundary labels, so the order is row-major lexicographic in the interior
    labels.
    """
    if n is None:
        n = default_hive_side(lam, mu, nu)
    walked = _by_rows(lam, mu, nu, n, keep=True)
    if walked is None:
        return []
    plan, vals, reached = walked
    interior = plan.rows[-1][1] if plan.rows else ()  # the last key
    rows = list(pairwise(accumulate(range(n + 1, 0, -1), initial=0)))  # ids are row-major: row i is vals[a:b]
    hives = []
    for labels in reached:
        for u, label in zip(interior, labels):
            vals[u] = label
        if _holds(n, vals):
            hives.append(Hive(n, [vals[a:b] for a, b in rows]))
    hives.sort(key=lambda h: h.rows)
    return hives


def lr_coefficient_hive(lam, mu, nu):
    """The LR coefficient as the number of LR-hives, by a row-by-row frontier DP.

    A length violation of the support conditions short-circuits to 0, and a
    weight mismatch counts no hive.  Past the length test len lam is the
    smallest side holding all three, the side skew expansions walk, and the
    count (the same on any larger side) runs there.  Partial hives that agree
    on the frontier (the labels later rows still read) have the same
    completions, so they merge on it; the last row leaves an empty frontier,
    reached once per hive.
    """
    if not max(mu.length, nu.length) <= lam.length <= mu.length + nu.length:
        return 0
    walked = _by_rows(lam, mu, nu, lam.length)
    return 0 if walked is None else walked[2].get((), 0)


def lr_expansion_states(lam, mu):
    """The final states of lam/mu's free-side walk, and the function giving each one's term.

    The nu side's weight, as a one-row partition, sets its corner labels.
    The walk assigns the rest of the nu side last, right to left, in one or
    more rows, and the plan leads every key from the first of them on with
    the nu labels assigned so far, in side order, so each final key holds
    the inner partial sums of one term, counted by its number.  The parts
    are their differences; concave boundaries keep them weakly decreasing,
    so the zeros trimmed from a term are its last.
    """
    top = lam.weight - mu.weight

    def parts(labels):
        t = tuple(map(sub, (*labels, top), (0, *labels)))
        return t[:len(t) - t.count(0)]

    walked = _by_rows(lam, mu, Partition._of((top,) if top > 0 else ()), lam.length, free=True)
    return ({} if walked is None else walked[2]), parts


def is_valid_lr_hive(hive, boundary):
    """True iff the hive matches the boundary exactly and all rhombi hold.

    The rhombi are checked by _holds on the row-major labels, against the
    side's inequality table; no plan is built and no row compiled.
    """
    if hive.n != boundary.n:
        raise ValueError("hive and boundary have different side lengths")
    for (i, j), label in boundary.vertex_labels().items():
        if hive.rows[i][j] != label:
            return False
    return _holds(hive.n, [x for row in hive.rows for x in row])


def free_interior_vertices(lam, mu, nu, n):
    """Interior vertices whose label varies across the full hive set.

    Empty exactly when the boundary admits a unique hive; raises when there
    is no hive at all.
    """
    hives = enumerate_lr_hives(lam, mu, nu, n)
    if not hives:
        raise ValueError("no LR-hive exists for this boundary")
    first = hives[0]
    free = set()
    for i in range(1, n):
        for j in range(1, n - i):
            if any(h.rows[i][j] != first.rows[i][j] for h in hives[1:]):
                free.add((i, j))
    return free


def edge_labels(hive):
    """The three families of vertex-difference edge labels, line by line.

    Each family is listed along the straight lines parallel to one boundary;
    in an LR-hive every entry is non-negative and every line weakly decreases.
      - 'nu' lines: a[i][j+1] - a[i][j] along each row i
      - 'lam' lines: a[i+1][j] - a[i][j] down each column j
      - 'mu' lines: a[i+1][j] - a[i][j+1] along each diagonal i + j + 1 = s
    """
    rows = hive.rows
    n = hive.n
    nu_lines = [[rows[i][j + 1] - rows[i][j] for j in range(n - i)] for i in range(n)]
    lam_lines = [[rows[i + 1][j] - rows[i][j] for i in range(n - j)] for j in range(n)]
    mu_lines = [
        [rows[i + 1][s - 1 - i] - rows[i][s - i] for i in range(s)]
        for s in range(1, n + 1)
    ]
    return {"nu": nu_lines, "lam": lam_lines, "mu": mu_lines}
