"""Boolean matrices as tuples of row bitmasks, kept independent of the program.

Bit ``j`` of ``rows[i]`` is entry ``(i, j)``.  The benchmark generates its
inputs and checks the program's answers with these helpers only, so a
defect in the program's own matrix code cannot hide itself.
"""

from __future__ import annotations

from collections import deque

Rows = tuple[int, ...]


def ones_positions(mask: int) -> list[int]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def product(a: Rows, b: Rows) -> Rows:
    """Boolean product a·b: row i of the result is the OR of b's rows over row i of a."""
    out = []
    for row in a:
        acc = 0
        for s in ones_positions(row):
            acc |= b[s]
        out.append(acc)
    return tuple(out)


def transpose(n: int, a: Rows) -> Rows:
    cols = [0] * n
    for i, row in enumerate(a):
        for j in ones_positions(row):
            cols[j] |= 1 << i
    return tuple(cols)


def max_line_weight(n: int, a: Rows) -> int:
    """Largest row or column weight."""
    best = max(bin(row).count("1") for row in a)
    return max(best, max(bin(c).count("1") for c in transpose(n, a)))


def is_nz(n: int, a: Rows) -> bool:
    full = (1 << n) - 1
    union = 0
    for row in a:
        if row == 0:
            return False
        union |= row
    return union == full


def strongly_connected(n: int, gens: list[Rows]) -> bool:
    union = [0] * n
    for g in gens:
        for i, row in enumerate(g):
            union[i] |= row
    full = (1 << n) - 1
    for adj in (union, list(transpose(n, tuple(union)))):
        seen, todo = 1, [0]
        while todo:
            v = todo.pop()
            new = adj[v] & ~seen
            seen |= new
            todo.extend(ones_positions(new))
        if seen != full:
            return False
    return True


def is_primitive(n: int, gens: list[Rows]) -> bool:
    """Irreducible and every state pair can be merged: backward BFS over
    unordered pairs from the singletons (the pair-digraph criterion)."""
    if not all(is_nz(n, g) for g in gens) or not strongly_connected(n, gens):
        return False
    preds: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for g in gens:
        succ = [ones_positions(row) for row in g]
        for i in range(n):
            for j in range(i + 1, n):
                for x in succ[i]:
                    for y in succ[j]:
                        preds.setdefault((min(x, y), max(x, y)), set()).add((i, j))
    reached = {(s, s) for s in range(n)}
    queue = deque(reached)
    while queue:
        v = queue.popleft()
        for u in preds.get(v, ()):
            if u not in reached:
                reached.add(u)
                queue.append(u)
    return len(reached) == n * (n + 1) // 2


def to_text(n: int, gens: list[Rows], labels: list[str]) -> str:
    """Set-file text: header ``n m``, then one labelled n-line block per matrix."""
    lines = [f"{n} {len(gens)}", ""]
    for label, g in zip(labels, gens):
        lines.append(f"# {label}")
        lines.extend("".join("1" if row >> j & 1 else "0" for j in range(n)) for row in g)
        lines.append("")
    return "\n".join(lines)
