"""Integer hives: rhombus-constrained triangular arrays counting LR coefficients.

Vertex labels a[i][j] live on the triangle {0 <= i, j, i+j <= n}.  Boundary
labels are the partial sums of the three boundary partitions; every unit
rhombus (two unit triangles glued along an edge) must satisfy
shared-edge sum >= opposite-vertex sum.  Edge labels are vertex differences,
so the triangle and rhombus *equalities* hold by construction and only the
inequalities need checking.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby, pairwise

from .partitions import Partition


# Sort keys of the scan orders; the first component numbers the row.
_SCAN_KEYS = {
    "row-major": lambda v: (v[0], v[1]),
    "anti-diagonal": lambda v: (v[0] + v[1], v[0]),
}
SCAN_ORDERS = tuple(_SCAN_KEYS)
# Expansion plans also walk a free side, as the last row; each is (its index
# in _sides, sort key): the lam side (column 0) by columns descending, or the
# nu side (row 0) by rows descending.
_FREE_SIDES = {"free-lam": (0, lambda v: (-v[1], v[0])), "free-nu": (1, lambda v: (-v[0], v[1]))}


class Hive:
    """Immutable triangular array of vertex labels; rows[i][j] is a_{i,j}."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n + 1 or any(len(r) != n + 1 - i for i, r in enumerate(rows)):
            raise ValueError("rows must form a triangle of side n")
        self.n = n
        self.rows = rows

    def diagonals(self):
        """Vertex labels grouped apex to base; row k lists a_{k,0} .. a_{0,k}."""
        return [[self.rows[k - t][t] for t in range(k + 1)] for k in range(self.n + 1)]

    def __eq__(self, other):
        if not isinstance(other, Hive):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Hive({self.n}, {self.rows!r})"


@dataclass(frozen=True)
class HiveBoundary:
    """Boundary data (lam, mu, nu) padded onto a side-n triangle."""

    n: int
    lam: Partition
    mu: Partition
    nu: Partition

    def __post_init__(self):
        if max(self.lam.length, self.mu.length, self.nu.length) > self.n:
            raise ValueError("partition lengths must not exceed n")
        if self.lam.weight != self.mu.weight + self.nu.weight:
            raise ValueError("|mu| + |nu| must equal |lambda|")

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


def _rhombus_inequalities(n, vid):
    """All (p1, p2, m1, m2) with constraint a[p1] + a[p2] >= a[m1] + a[m2]."""
    ineqs = []
    for i in range(n - 1):
        for j in range(n - 1 - i):
            ineqs.append((vid[i, j + 1], vid[i + 1, j], vid[i, j], vid[i + 1, j + 1]))
            ineqs.append((vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1], vid[i + 2, j]))
            ineqs.append((vid[i, j + 1], vid[i + 1, j + 1], vid[i + 1, j], vid[i, j + 2]))
    return ineqs


@dataclass(frozen=True)
class _Step:
    vid: int
    lower_singles: tuple
    upper_singles: tuple
    lower_triples: tuple  # (x, y, z): value >= vals[x] + vals[y] - vals[z]
    upper_triples: tuple  # (x, y, z): value <= vals[x] + vals[y] - vals[z]

    def reads(self):
        """Every vertex whose label bounds this step."""
        out = set(self.lower_singles) | set(self.upper_singles)
        for triple in self.lower_triples + self.upper_triples:
            out.update(triple)
        return out


@dataclass(frozen=True)
class _Plan:
    size: int
    vid: dict
    sides: tuple  # vertex ids of the lam, nu and mu sides, as _sides lists them
    boundary_checks: tuple
    all_ineqs: tuple
    # One (steps, live) pair per row of the scan order: the row's steps, and
    # the walked vertices assigned so far that a later row still reads.
    rows: tuple


@lru_cache(maxsize=None)
def _plan(n, scan_order):
    """Precompute the search schedule for side n under the given scan order.

    For each interior vertex, and each inner vertex of a free side, collect
    every rhombus inequality whose other three vertices come earlier (fixed
    boundary vertices count as assigned), split into lower/upper bounds on
    the vertex, plus single-vertex bounds implied by the monotonicity of edge
    labels toward the boundary.  The steps are then split into rows.
    """
    vid = {}
    k = 0
    for i in range(n + 1):
        for j in range(n + 1 - i):
            vid[(i, j)] = k
            k += 1
    size = k
    walked = [(i, j) for i in range(1, n) for j in range(1, n - i)]
    if scan_order in _FREE_SIDES:
        side, key = _FREE_SIDES[scan_order]
        walked += _sides(n)[side][1:-1]
    else:
        key = _SCAN_KEYS[scan_order]
    walked.sort(key=key)
    pos = {vid[p]: t for t, p in enumerate(walked)}

    ineqs = _rhombus_inequalities(n, vid)
    per_vertex_lower = {vid[p]: [] for p in walked}
    per_vertex_upper = {vid[p]: [] for p in walked}
    boundary_checks = []
    for p1, p2, m1, m2 in ineqs:
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

    groups = [list(g) for _, g in groupby(zip(walked, steps), key=lambda ps: key(ps[0])[0])]
    rows = []
    later = set()  # vertices read by the rows after the current one
    for group in reversed(groups):
        row_steps = tuple(step for _, step in group)
        end = pos[row_steps[-1].vid]
        live = tuple(sorted(u for u in later if u in pos and pos[u] <= end))
        rows.append((row_steps, live))
        for step in row_steps:
            later |= step.reads()
    rows.reverse()

    sides = tuple(tuple(vid[p] for p in side) for side in _sides(n))
    plan = _Plan(size, vid, sides, tuple(boundary_checks), tuple(ineqs), tuple(rows))
    _check_plan(plan)
    return plan


def _check_plan(plan):
    """Raise AssertionError unless the per-step bounds alone decide every hive.

    The schedule is the rows' steps, in order.  The frontier count never
    re-checks a finished hive, so the schedule must enforce every rhombus
    inequality exactly once, at its last vertex, and each row may read only
    boundary labels, labels set earlier in the row and the frontier carried
    in from the row before.
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
    wanted = Counter(key(*ineq) for ineq in plan.all_ineqs)
    if enforced != wanted or any(c != 1 for c in wanted.values()):
        raise AssertionError("rhombus inequalities not enforced exactly once")

    carried = ()
    for row_steps, live in plan.rows:
        known = set(carried)
        for step in row_steps:
            if any(u in pos and u not in known for u in step.reads()):
                raise AssertionError(f"vertex {step.vid} reads a label outside its frontier")
            known.add(step.vid)
        carried = live
    if carried:
        raise AssertionError("the last row leaves a frontier")


def _prepare(lam, mu, nu, n, scan_order):
    """The plan and the boundary-filled labels, or None when no hive exists."""
    if max(lam.length, mu.length, nu.length) > n:
        raise ValueError("partition lengths must not exceed n")
    if lam.weight != mu.weight + nu.weight:
        return None
    plan = _plan(n, scan_order)
    vals = [0] * plan.size
    _fill_boundary(vals, plan.sides, lam, mu, nu)
    for a, b, c, d in plan.boundary_checks:
        if vals[a] + vals[b] < vals[c] + vals[d]:
            return None
    return plan, vals


def _holds(plan, vals):
    """True iff the labels satisfy every rhombus inequality of the plan's side."""
    return all(vals[a] + vals[b] >= vals[c] + vals[d] for a, b, c, d in plan.all_ineqs)


def _by_rows(plan, vals, cap, keys):
    """Walk the plan's rows in order; return {final key: partial hives reaching it}.

    A row's walk assigns its vertices in order, each over every value its
    bounds allow, recursing once per vertex.  After row r a partial hive is
    identified by the labels of the vertices keys[r], and partial hives with
    equal labels there are merged, their numbers summed.  Each row is walked
    once per distinct key carried in.
    """
    frontier = {(): 1}
    carried = ()
    for (row_steps, _), live in zip(plan.rows, keys):
        reached = {}
        last = len(row_steps)

        def walk(idx):
            if idx == last:
                key = tuple([vals[u] for u in live])
                reached[key] = reached.get(key, 0) + mult
                return
            step = row_steps[idx]
            lo, hi = 0, cap
            for u in step.lower_singles:
                if vals[u] > lo:
                    lo = vals[u]
            for x, y, z in step.lower_triples:
                b = vals[x] + vals[y] - vals[z]
                if b > lo:
                    lo = b
            for u in step.upper_singles:
                if vals[u] < hi:
                    hi = vals[u]
            for x, y, z in step.upper_triples:
                b = vals[x] + vals[y] - vals[z]
                if b < hi:
                    hi = b
            v = step.vid
            for val in range(lo, hi + 1):
                vals[v] = val
                walk(idx + 1)

        for labels, mult in frontier.items():
            for u, label in zip(carried, labels):
                vals[u] = label
            walk(0)
        frontier = reached
        carried = live
    return frontier


def _count_by_rows(lam, mu, nu, n):
    """The number of LR-hives on a side-n triangle, by a row-by-row frontier DP.

    Partial hives that agree on the frontier (the labels later rows still
    read) have the same completions, so they merge on it; the last row
    leaves an empty frontier, reached once per hive.
    """
    prepared = _prepare(lam, mu, nu, n, "row-major")
    if prepared is None:
        return 0
    plan, vals = prepared
    return _by_rows(plan, vals, lam.weight, [live for _, live in plan.rows]).get((), 0)


def default_hive_side(lam, mu, nu):
    """Side length used when none is given."""
    return max(lam.length, mu.length + nu.length)


def enumerate_lr_hives(lam, mu, nu, n=None, *, scan_order="row-major"):
    """All integer LR-hives with the (lam, mu, nu) boundary on a side-n triangle.

    Weight-infeasible input gives an empty list.  Order is deterministic:
    lexicographic in the interior labels along the scan order.  The row walk
    keys each partial hive on every label assigned so far, so nothing merges
    and the final keys are the hives; each is re-checked against every
    rhombus inequality.
    """
    if scan_order not in _SCAN_KEYS:
        raise ValueError(f"unknown scan order {scan_order!r}")
    if n is None:
        n = default_hive_side(lam, mu, nu)
    prepared = _prepare(lam, mu, nu, n, scan_order)
    if prepared is None:
        return []
    plan, vals = prepared
    assigned = accumulate(tuple(step.vid for step in row_steps) for row_steps, _ in plan.rows)
    interior = [step.vid for row_steps, _ in plan.rows for step in row_steps]
    vid = plan.vid
    hives = []
    for labels in _by_rows(plan, vals, lam.weight, assigned):
        for u, label in zip(interior, labels):
            vals[u] = label
        if _holds(plan, vals):
            hives.append(Hive(n, [[vals[vid[i, j]] for j in range(n + 1 - i)] for i in range(n + 1)]))
    return hives


def lr_coefficient_hive(lam, mu, nu):
    """The LR coefficient as the number of LR-hives.

    Weight or length violations of the support conditions short-circuit to 0
    without counting.  The count is the same on every side at least as long
    as the three partitions, so it runs on the smallest such side, by the
    frontier DP rather than hive by hive.
    """
    if lam.weight != mu.weight + nu.weight:
        return 0
    if lam.length < mu.length or lam.length < nu.length:
        return 0
    if lam.length > mu.length + nu.length:
        return 0
    return _count_by_rows(lam, mu, nu, max(lam.length, mu.length, nu.length))


def lr_expansion_hive(lam, mu, nu):
    """{term: LR coefficient} for the side given as None, by one row walk.

    lam=None expands s_mu s_nu on the side len mu + len nu; nu=None expands
    s_{lam/mu} on the side len lam.  The free side's weight, as a one-row
    partition, sets its corner labels.  The walk assigns the rest as its last
    row and keys the final states on them, so each key holds the inner
    partial sums of one term.
    """
    if lam is None:
        free, n, lam = "free-lam", mu.length + nu.length, Partition([mu.weight + nu.weight])
    else:
        free, n, nu = "free-nu", lam.length, Partition([lam.weight - mu.weight])
    prepared = _prepare(lam, mu, nu, n, free)
    if prepared is None:
        return {}
    plan, vals = prepared
    side = plan.sides[_FREE_SIDES[free][0]]
    keys = [live for _, live in plan.rows[:-1]] + [side[1:-1]]
    return {
        Partition(b - a for a, b in pairwise((0, *labels, vals[side[-1]]))): c
        for labels, c in _by_rows(plan, vals, lam.weight, keys).items()
    }


def is_valid_lr_hive(hive, boundary):
    """True iff the hive matches the boundary exactly and all rhombi hold."""
    if hive.n != boundary.n:
        raise ValueError("hive and boundary have different side lengths")
    for (i, j), label in boundary.vertex_labels().items():
        if hive.rows[i][j] != label:
            return False
    plan = _plan(hive.n, "row-major")
    flat = [0] * plan.size
    for (i, j), v in plan.vid.items():
        flat[v] = hive.rows[i][j]
    return _holds(plan, flat)


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
