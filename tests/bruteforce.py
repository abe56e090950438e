"""Independent reference implementations used only to check the package.

Everything here works from Tournament.arc alone, apart from the pairwise
validator, which reads raw row bits, and is deliberately naive: exhaustive DFS
for cycles, exponential search for matchings and packings, one pair at a time
for validity.
"""

from itertools import combinations, permutations

from cyclemill.core import DuplicatePairError, MissingPairError, SelfLoopError, Tournament


def all_tournaments(n):
    """Every labeled tournament on n vertices, in pattern order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pattern in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if pattern >> b & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        yield Tournament(rows)


def dfs_cycle_lengths(t):
    """Set of lengths of all simple directed cycles, by plain path DFS."""
    lengths = set()

    def extend(start, path, used):
        last = path[-1]
        if len(path) >= 3 and t.arc(last, start):
            lengths.add(len(path))
        for v in range(start + 1, t.n):
            if not used >> v & 1 and t.arc(last, v):
                extend(start, path + [v], used | 1 << v)

    for start in range(t.n):
        extend(start, [start], 1 << start)
    return lengths


def dfs_has_q_cycle(t, q):
    def extend(start, path, used):
        last = path[-1]
        if len(path) == q:
            return t.arc(last, start)
        return any(
            not used >> v & 1 and t.arc(last, v) and extend(start, path + [v], used | 1 << v)
            for v in range(start + 1, t.n)
        )

    return any(extend(s, [s], 1 << s) for s in range(t.n))


def dfs_q_cycles(t, q):
    """All q-cycles, canonical rotation (minimum vertex first)."""
    found = []

    def extend(start, path, used):
        last = path[-1]
        if len(path) == q:
            if t.arc(last, start):
                found.append(tuple(path))
            return
        for v in range(start + 1, t.n):
            if not used >> v & 1 and t.arc(last, v):
                extend(start, path + [v], used | 1 << v)

    for start in range(t.n):
        extend(start, [start], 1 << start)
    return found


def brute_max_matching(t, xs, ys):
    """Maximum X-to-Y matching size by exponential recursion."""

    def rec(rest, used):
        if not rest:
            return 0
        head, tail = rest[0], rest[1:]
        best = rec(tail, used)
        for y in ys:
            if y not in used and t.arc(head, y):
                best = max(best, 1 + rec(tail, used | {y}))
        return best

    return rec(sorted(xs), frozenset())


def brute_max_disjoint(t, q):
    """Maximum number of vertex-disjoint q-cycles via exhaustive set packing."""
    masks = []
    for combo in combinations(range(t.n), q):
        for perm in permutations(combo[1:]):
            seq = (combo[0],) + perm
            if all(t.arc(a, b) for a, b in zip(seq, seq[1:])) and t.arc(seq[-1], seq[0]):
                masks.append(sum(1 << v for v in combo))
                break  # one witness per vertex set is enough for packing
    best = 0

    def rec(i, used, count):
        nonlocal best
        best = max(best, count)
        for j in range(i, len(masks)):
            if not masks[j] & used:
                rec(j + 1, used | masks[j], count + 1)

    rec(0, 0, 0)
    return best


def reachability_components(t):
    """Strong components as mutual-reachability classes, unordered."""
    reach = []
    for s in range(t.n):
        seen = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for w in range(t.n):
                if w not in seen and t.arc(v, w):
                    seen.add(w)
                    frontier.append(w)
        reach.append(seen)
    comps = []
    assigned = set()
    for v in range(t.n):
        if v not in assigned:
            comp = frozenset(w for w in reach[v] if v in reach[w])
            comps.append(comp)
            assigned |= comp
    return comps


def is_strong_brute(t):
    """Reachability from every vertex, by BFS over explicit arcs."""
    for s in range(t.n):
        seen = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for w in range(t.n):
                if w not in seen and t.arc(v, w):
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != t.n:
            return False
    return True


def pairwise_validate(rows):
    """Check out-neighbor rows one vertex pair at a time.

    Returns (in-masks, None) for a tournament, else (None, (error class, i, j))
    for the first faulty pair: self-loops first, by vertex, then the pairs
    i < j in lexicographic order.  In-masks are worked out bit by bit.
    """
    n = len(rows)
    cols = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
    for i in range(n):
        if rows[i] >> i & 1:
            return None, (SelfLoopError, i, i)
    for i in range(n):
        for j in range(i + 1, n):
            forward, backward = rows[i] >> j & 1, cols[i] >> j & 1
            if forward and backward:
                return None, (DuplicatePairError, i, j)
            if not forward and not backward:
                return None, (MissingPairError, i, j)
    return cols, None
