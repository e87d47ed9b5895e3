"""Pair digraph of a matrix set and the primitivity test built on it.

Vertices are unordered state pairs (i, j) with i <= j; a pair (s, s) is a
singleton.  A generator A labels the edge (i, j) -> (i', j') whenever it
moves both members of the pair onto the target pair, i.e. A(i,i') and
A(j,j') are positive, or A(i,j') and A(j,i') are.  For NZ sets, an
irreducible set is primitive exactly when every pair vertex can reach some
singleton, and walking such a path yields a product merging the two states
into one column.

``build_pair_digraph`` is the explicit digraph, which no command reads: it
is the test oracle for the backward BFS from the singletons
(``singleton_distances``), which builds no digraph.  The
predecessors of a pair {x, y} under A are the pairs {p, q} with p in
column x of A and q in column y, so it reads them straight off the
generators' columns, AND-ed with one "unvisited" bit row per state, which
yields only the pairs not reached yet.  Pair {i, j} (i <= j) has id
``i*n + j``, and the table is flat lists indexed by that id.  The
primitivity report carries its table, so the heuristic does not run that
BFS again: the all-singleton table, or, with a ``target``, the table to
that one singleton, which proves primitivity alone.  ``require_primitive``
is the one check that rejects a set that is not primitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boolmat import MatrixSet, bits
from .errors import NotPrimitiveError, UnreachableVertexError

Vertex = tuple[int, int]


def pair_id(n: int, i: int, j: int) -> int:
    """Flat id ``i*n + j`` of the pair {i, j}, taken with i <= j."""
    return i * n + j if i <= j else j * n + i


def pair_vertices(n: int) -> list[Vertex]:
    """All pair vertices in row-major order; there are n(n+1)/2 of them."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(frozen=True)
class PairDigraph:
    n: int
    # vertex -> ((successor, generator index), ...) in deterministic order
    adjacency: dict[Vertex, tuple[tuple[Vertex, int], ...]]


def build_pair_digraph(mset: MatrixSet) -> PairDigraph:
    """Construct the labeled pair digraph of an NZ matrix set."""
    mset.require_nz()
    positions = [[list(bits(row)) for row in g.rows] for g in mset.generators]
    adjacency: dict[Vertex, tuple[tuple[Vertex, int], ...]] = {}
    for u in pair_vertices(mset.n):
        i, j = u
        edges: list[tuple[Vertex, int]] = []
        for g_idx, rows in enumerate(positions):
            succs = {(min(x, y), max(x, y)) for x in rows[i] for y in rows[j]}
            edges.extend((succ, g_idx) for succ in sorted(succs))
        adjacency[u] = tuple(edges)
    return PairDigraph(mset.n, adjacency)


@dataclass
class DistanceTable:
    """Shortest distances from every pair to a singleton, with next hops.

    ``target`` is None for the nearest-singleton variant.  The lists are
    indexed by pair id (``pair_id``): ``dist`` is None for a pair that
    cannot reach the goal (and for ids i*n + j with i > j, which name no
    pair); ``label`` and ``succ`` give the generator and the pair id of the
    first edge of a shortest path.
    """

    n: int
    target: Vertex | None
    dist: list[int | None]
    label: list[int]
    succ: list[int]

    def path_from(self, source: Vertex) -> tuple[list[int], Vertex]:
        """Edge labels of a shortest path from ``source`` plus the singleton hit."""
        v = pair_id(self.n, *source)
        if self.dist[v] is None:
            raise UnreachableVertexError(source, self.target)
        word: list[int] = []
        for _ in range(self.dist[v]):
            word.append(self.label[v])
            v = self.succ[v]
        return word, divmod(v, self.n)


def singleton_distances(mset: MatrixSet, target: Vertex | None = None) -> DistanceTable:
    """Backward BFS over the pair digraph from the singletons (or one of them).

    Queue order is deterministic: sources seeded in row-major order; the
    new predecessors of a dequeued pair are appended in row-major order,
    each labeled with the lowest generator that reaches the pair.
    """
    if target is not None and target[0] != target[1]:
        raise ValueError(f"target {target} is not a singleton")
    mset.require_nz()
    n = mset.n
    # column x of A as a mask and as its bit positions: the p with A(p, x) = 1
    letters = [
        (cols, [list(bits(c)) for c in cols])
        for cols in (g.transpose().rows for g in mset.generators)
    ]
    dist: list[int | None] = [None] * (n * n)
    label = [-1] * (n * n)
    succ = [-1] * (n * n)
    # bit q of unvisited[p] is set while the pair {p, q} is unreached
    unvisited = [(1 << n) - 1] * n
    queue = []
    for s in [target[0]] if target is not None else range(n):
        dist[s * n + s] = 0
        unvisited[s] ^= 1 << s
        queue.append(s * n + s)
    for v in queue:  # grows while it is read
        x, y = divmod(v, n)
        d = dist[v] + 1
        found = []
        for g_idx, (cols, positions) in enumerate(letters):
            col_y = cols[y]
            for p in positions[x]:
                new = col_y & unvisited[p]
                if not new:
                    continue
                unvisited[p] ^= new
                keep = ~(1 << p)
                while new:
                    low = new & -new
                    q = low.bit_length() - 1
                    new ^= low
                    unvisited[q] &= keep
                    found.append((pair_id(n, p, q), g_idx))
        found.sort()
        for u, g_idx in found:
            dist[u] = d
            label[u] = g_idx
            succ[u] = v
            queue.append(u)
    return DistanceTable(n, target, dist, label, succ)


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    irreducible: bool
    # pair that reaches no singleton (when irreducible but not primitive)
    unmergeable_pair: Vertex | None = None
    # states (i, j) with no path i -> j in the union digraph (when reducible)
    reducibility_witness: tuple[int, int] | None = None
    # the BFS table (to the target if one was given; absent for reducible
    # sets), for reuse
    distances: DistanceTable | None = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        if self.primitive:
            return "primitive"
        if not self.irreducible:
            i, j = self.reducibility_witness
            return f"reducible: no path from state {i} to state {j}"
        i, j = self.unmergeable_pair
        return f"pair ({i},{j}) reaches no singleton"


def check_primitivity(mset: MatrixSet, target: Vertex | None = None) -> PrimitivityReport:
    """Decide primitivity of an NZ set via the pair digraph criterion.

    Reducible sets are rejected immediately (the criterion needs
    irreducibility); otherwise the set is primitive iff every pair vertex
    reaches some singleton.  The certificate is the first unreached pair in
    row-major order.

    With a singleton ``target`` the BFS runs to that singleton only, and
    the report carries that table.  The answer and the certificate are the
    same: in an irreducible set a pair that reaches one singleton reaches
    them all, since (s, s) steps to (x, x) for every edge s -> x of the
    strongly connected union digraph.
    """
    mset.require_nz()
    witness = mset.reducibility_witness()
    if witness is not None:
        return PrimitivityReport(
            primitive=False, irreducible=False, reducibility_witness=witness
        )
    table = singleton_distances(mset, target)
    n = mset.n
    for i in range(n):
        row = table.dist[i * n + i : i * n + n]
        if None in row:
            return PrimitivityReport(
                primitive=False,
                irreducible=True,
                unmergeable_pair=(i, i + row.index(None)),
                distances=table,
            )
    return PrimitivityReport(primitive=True, irreducible=True, distances=table)


def require_primitive(mset: MatrixSet, target: Vertex | None = None) -> PrimitivityReport:
    """``check_primitivity``'s report of a primitive set; any other set is a
    ``NotPrimitiveError`` carrying the report as its certificate."""
    report = check_primitivity(mset, target)
    if not report.primitive:
        raise NotPrimitiveError(report.describe(), report)
    return report
