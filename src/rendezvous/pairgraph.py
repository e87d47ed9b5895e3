"""Pair digraph of a matrix set and the primitivity test built on it.

Vertices are unordered state pairs (i, j) with i <= j; a pair (s, s) is a
singleton.  A generator A labels the edge (i, j) -> (i', j') whenever it
moves both members of the pair onto the target pair, i.e. A(i,i') and
A(j,j') are positive, or A(i,j') and A(j,i') are.  For NZ sets, an
irreducible set is primitive exactly when every pair vertex can reach some
singleton, and walking such a path yields a product merging the two states
into one column.

The reverse adjacency, which every backward BFS from the singletons reads,
is built once per digraph in the same pass as the adjacency.  The
primitivity report carries the digraph and its all-singleton distance
table, so callers that need either (the heuristic) do not build them again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .boolmat import MatrixSet, bits
from .errors import UnreachableVertexError

Vertex = tuple[int, int]


def normalized(i: int, j: int) -> Vertex:
    return (i, j) if i <= j else (j, i)


def pair_vertices(n: int) -> list[Vertex]:
    """All pair vertices in row-major order; there are n(n+1)/2 of them."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(frozen=True)
class PairDigraph:
    n: int
    # vertex -> ((successor, generator index), ...) in deterministic order
    adjacency: dict[Vertex, tuple[tuple[Vertex, int], ...]]
    # vertex -> [(predecessor, generator index), ...] sorted, built with
    # ``adjacency``; determined by it, so left out of comparison and repr
    reverse: dict[Vertex, list[tuple[Vertex, int]]] = field(compare=False, repr=False)

    def vertices(self) -> list[Vertex]:
        return pair_vertices(self.n)

    def singletons(self) -> list[Vertex]:
        return [(s, s) for s in range(self.n)]


def build_pair_digraph(mset: MatrixSet) -> PairDigraph:
    """Construct the labeled pair digraph of an NZ matrix set.

    The reverse adjacency is filled in the same pass.  Vertices are visited
    in row-major order and generators in index order, so each predecessor
    list comes out sorted by (predecessor, generator).
    """
    mset.require_nz()
    n = mset.n
    positions = [[list(bits(row)) for row in g.rows] for g in mset.generators]
    adjacency: dict[Vertex, tuple[tuple[Vertex, int], ...]] = {}
    vertices = pair_vertices(n)
    reverse: dict[Vertex, list[tuple[Vertex, int]]] = {v: [] for v in vertices}
    for u in vertices:
        i, j = u
        edges: list[tuple[Vertex, int]] = []
        for g_idx, rows in enumerate(positions):
            succs = {normalized(x, y) for x in rows[i] for y in rows[j]}
            for succ in sorted(succs):
                edges.append((succ, g_idx))
                reverse[succ].append((u, g_idx))
        adjacency[u] = tuple(edges)
    return PairDigraph(n, adjacency, reverse)


@dataclass
class DistanceTable:
    """Shortest distances from every vertex to a singleton, with next hops.

    ``target`` is None for the nearest-singleton variant.  Vertices that
    cannot reach the goal are simply absent from ``dist``.
    """

    n: int
    target: Vertex | None
    dist: dict[Vertex, int]
    next_hop: dict[Vertex, tuple[int, Vertex]]  # vertex -> (label, successor)

    def path_from(self, source: Vertex) -> tuple[list[int], Vertex]:
        """Edge labels of a shortest path from ``source`` plus the singleton hit."""
        if source not in self.dist:
            raise UnreachableVertexError(source, self.target)
        word: list[int] = []
        v = source
        while v in self.next_hop:
            label, succ = self.next_hop[v]
            word.append(label)
            v = succ
        return word, v


def singleton_distances(pd: PairDigraph, target: Vertex | None = None) -> DistanceTable:
    """Backward BFS over reversed edges from the singletons (or one of them).

    Queue order is deterministic: sources seeded in row-major order, reverse
    edges scanned in (row-major predecessor, generator) order.
    """
    if target is not None and target[0] != target[1]:
        raise ValueError(f"target {target} is not a singleton")
    rev = pd.reverse
    dist: dict[Vertex, int] = {}
    next_hop: dict[Vertex, tuple[int, Vertex]] = {}
    sources = [target] if target is not None else pd.singletons()
    queue: deque[Vertex] = deque()
    for s in sources:
        dist[s] = 0
        queue.append(s)
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for u, label in rev[v]:
            if u not in dist:
                dist[u] = d
                next_hop[u] = (label, v)
                queue.append(u)
    return DistanceTable(pd.n, target, dist, next_hop)


@dataclass(frozen=True)
class MergingWord:
    source: Vertex
    target: Vertex  # singleton reached
    word: tuple[int, ...]


def merging_word(
    pd: PairDigraph, source: Vertex, target: Vertex | None = None
) -> MergingWord:
    """Shortest labeled path from ``source`` to a singleton.

    Walking the word from the source along the digraph ends at the returned
    singleton; replaying it as a matrix product merges the two source states
    into that singleton's column.
    """
    source = normalized(*source)
    table = singleton_distances(pd, target)
    word, end = table.path_from(source)
    return MergingWord(source, end, tuple(word))


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    irreducible: bool
    # pair that reaches no singleton (when irreducible but not primitive)
    unmergeable_pair: Vertex | None = None
    # states (i, j) with no path i -> j in the union digraph (when reducible)
    reducibility_witness: tuple[int, int] | None = None
    # the pair digraph the test built (absent for reducible sets), for reuse
    pair_digraph: PairDigraph | None = field(default=None, compare=False, repr=False)
    # its all-singleton distance table (absent for reducible sets), for reuse
    distances: DistanceTable | None = field(default=None, compare=False, repr=False)

    def describe(self) -> str:
        if self.primitive:
            return "primitive"
        if not self.irreducible:
            i, j = self.reducibility_witness
            return f"reducible: no path from state {i} to state {j}"
        i, j = self.unmergeable_pair
        return f"pair ({i},{j}) reaches no singleton"


def check_primitivity(mset: MatrixSet) -> PrimitivityReport:
    """Decide primitivity of an NZ set via the pair digraph criterion.

    Reducible sets are rejected immediately (the criterion needs
    irreducibility); otherwise the set is primitive iff every pair vertex
    reaches some singleton.
    """
    mset.require_nz()
    witness = mset.reducibility_witness()
    if witness is not None:
        return PrimitivityReport(
            primitive=False, irreducible=False, reducibility_witness=witness
        )
    pd = build_pair_digraph(mset)
    table = singleton_distances(pd)
    for v in pd.vertices():
        if v not in table.dist:
            return PrimitivityReport(
                primitive=False,
                irreducible=True,
                unmergeable_pair=v,
                pair_digraph=pd,
                distances=table,
            )
    return PrimitivityReport(primitive=True, irreducible=True, pair_digraph=pd, distances=table)


def is_primitive(mset: MatrixSet) -> bool:
    return check_primitivity(mset).primitive
