"""Planarity with checkable certificates, Hamiltonicity, and isomorphism
searches for graphs and gyrogroup tables.

Planarity is decided block by block with the face-insertion method: embed
a cycle, then repeatedly route a path of some unembedded fragment through
a face whose boundary contains all of the fragment's attachment points.
A fragment with no admissible face proves non-planarity; in that case a
subdivision witness is extracted (a complete 5-clique when one exists,
otherwise by deleting edges while non-planarity persists, which always
terminates in a bare subdivision).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import BoundExceededError
from .distances import distance_matrix
from .graphs import Graph, biconnected_components, reachable
from .gyrogroups import GyroGroup, Permutation, power_closure

#: Default cap on edges x vertices for the Kuratowski edge deletion (one
#: planarity test per edge), and, past it, on the fruitless steps of the
#: 5-clique search tried first.  On 2 CPUs K48,48 (221 184) takes 8.2 s, a
#: 20 x 20 grid with two chords (304 800) 10 s and K64,64 (524 288) 35 s.
KURATOWSKI_WORK_BOUND = 250_000
HAMILTONIAN_ORDER_BOUND = 32
GRAPH_ISO_ORDER_BOUND = 16
GYRO_ISO_ORDER_BOUND = 10


# ---------------------------------------------------------------------------
# Planarity
# ---------------------------------------------------------------------------


class PlanarityResult(NamedTuple):
    is_planar: bool
    rotation: tuple[tuple[int, ...], ...] | None = None
    kuratowski_edges: frozenset[tuple[int, int]] | None = None
    kuratowski_kind: str | None = None  # "K5" | "K33"

    def to_json(self) -> str:
        if self.is_planar:
            payload = {
                "planar": True,
                "rotation": [list(r) for r in self.rotation or ()],
            }
        else:
            payload = {
                "planar": False,
                "kind": self.kuratowski_kind,
                "edges": sorted(list(e) for e in self.kuratowski_edges or ()),
            }
        return json.dumps(payload, sort_keys=True)


def is_planar(graph: Graph, work_bound: int = KURATOWSKI_WORK_BOUND) -> PlanarityResult:
    """Exact planarity with a certificate either way: a rotation system
    when planar, a verified K5/K33 subdivision when not.  Deciding is never
    refused; extracting a witness is, when edges x vertices exceeds
    work_bound and the 5-clique search either finds none or takes more than
    work_bound fruitless steps."""
    rotation = _planar_rotation(graph)
    if rotation is not None:
        return PlanarityResult(is_planar=True, rotation=rotation)
    edges, kind = _extract_kuratowski(graph, work_bound)
    return PlanarityResult(
        is_planar=False, kuratowski_edges=edges, kuratowski_kind=kind
    )


def _planar_rotation(graph: Graph) -> tuple[tuple[int, ...], ...] | None:
    """Rotation system for the whole graph, or None if non-planar.

    Each biconnected block is embedded independently; at shared vertices
    the block rotations are concatenated, which keeps every block on a
    contiguous arc and so preserves planarity.
    """
    rotations: list[list[int]] = [[] for _ in range(graph.n)]
    for block in biconnected_components(graph):
        if len(block) == 1:
            u, v = block[0]
            rotations[u].append(v)
            rotations[v].append(u)
            continue
        faces = _embed_block(block)
        if faces is None:
            return None
        for v, cyc in _rotation_from_faces(faces).items():
            rotations[v].extend(cyc)
    return tuple(tuple(r) for r in rotations)


def _embed_block(block_edges: list[tuple[int, int]]) -> list[list[int]] | None:
    """Face-insertion embedding of one 2-connected block.

    Returns the face boundaries (vertex cycles) of a planar embedding, or
    None when some fragment has no admissible face.
    """
    edges = {(min(u, v), max(u, v)) for u, v in block_edges}
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v in adj:
        adj[v].sort()
    nv, ne = len(adj), len(edges)
    if ne > 3 * nv - 6:
        return None

    cycle = _find_cycle(adj)
    faces: list[list[int]] = [cycle, list(reversed(cycle))]
    embedded_v = set(cycle)
    embedded_e = {
        (min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])
    }

    while len(embedded_e) < ne:
        fragments = _fragments(adj, edges, embedded_v, embedded_e)
        admissible: list[list[int]] = []
        for attachments, _ in fragments:
            ok = [
                i for i, f in enumerate(faces) if attachments.issubset(set(f))
            ]
            if not ok:
                return None
            admissible.append(ok)
        pick = next(
            (i for i, ok in enumerate(admissible) if len(ok) == 1), 0
        )
        attachments, payload = fragments[pick]
        face_idx = admissible[pick][0]
        path = _fragment_path(adj, attachments, payload)
        _insert_path(faces, face_idx, path)
        embedded_v.update(path)
        for a, b in zip(path, path[1:]):
            embedded_e.add((min(a, b), max(a, b)))

    total_darts = sum(len(f) for f in faces)
    if total_darts != 2 * ne or len(faces) != ne - nv + 2:
        raise AssertionError("embedding bookkeeping is inconsistent")
    return faces


def _find_cycle(adj: dict[int, list[int]]) -> list[int]:
    """Any cycle in a graph with min degree >= 2: take a BFS tree, pick the
    least non-tree edge, and join the endpoints' tree paths at their
    lowest common ancestor."""
    start = min(adj)
    parent: dict[int, int] = {start: -1}
    depth: dict[int, int] = {start: 0}
    queue = [start]
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                depth[w] = depth[v] + 1
                queue.append(w)
    nontree = min(
        (min(u, v), max(u, v))
        for u in adj
        for v in adj[u]
        if parent.get(u) != v and parent.get(v) != u
    )
    u, v = nontree
    up_u, up_v = [u], [v]
    while depth[up_u[-1]] > depth[up_v[-1]]:
        up_u.append(parent[up_u[-1]])
    while depth[up_v[-1]] > depth[up_u[-1]]:
        up_v.append(parent[up_v[-1]])
    while up_u[-1] != up_v[-1]:
        up_u.append(parent[up_u[-1]])
        up_v.append(parent[up_v[-1]])
    # up_u ends at the LCA; up_v duplicates it.
    return up_u + list(reversed(up_v[:-1]))


def _fragments(
    adj: dict[int, list[int]],
    edges: set[tuple[int, int]],
    embedded_v: set[int],
    embedded_e: set[tuple[int, int]],
) -> list[tuple[frozenset[int], tuple]]:
    """Chords and attached components relative to the embedded subgraph.

    Each fragment is (attachment vertices, payload); the payload is
    ("chord", u, v) or ("component", sorted vertex tuple).
    """
    out: list[tuple[frozenset[int], tuple]] = []
    for u, v in sorted(edges - embedded_e):
        if u in embedded_v and v in embedded_v:
            out.append((frozenset((u, v)), ("chord", u, v)))
    outside = sorted(set(adj) - embedded_v)
    seen: set[int] = set()
    for s in outside:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in embedded_v and y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        attach = {
            y for x in comp for y in adj[x] if y in embedded_v
        }
        out.append((frozenset(attach), ("component", tuple(sorted(comp)))))
    return out


def _fragment_path(
    adj: dict[int, list[int]],
    attachments: frozenset[int],
    payload: tuple,
) -> list[int]:
    """A path between two distinct attachments through the fragment."""
    if payload[0] == "chord":
        return [payload[1], payload[2]]
    comp = set(payload[1])
    a1 = min(attachments)
    targets = attachments - {a1}
    # BFS inside the component, seeded by a1's component neighbors.
    parent: dict[int, int] = {}
    queue = sorted(comp & set(adj[a1]))
    for x in queue:
        parent[x] = -1
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        hit = sorted(t for t in targets if t in adj[x])
        if hit:
            path = [hit[0], x]
            while parent[x] != -1:
                x = parent[x]
                path.append(x)
            path.append(a1)
            return list(reversed(path))
        for y in adj[x]:
            if y in comp and y not in parent:
                parent[y] = x
                queue.append(y)
    raise AssertionError("fragment must reach a second attachment")


def _insert_path(faces: list[list[int]], face_idx: int, path: list[int]) -> None:
    """Split a face along a path between two of its boundary vertices."""
    face = faces[face_idx]
    a1, a2 = path[0], path[-1]
    i, j = face.index(a1), face.index(a2)
    length = len(face)
    arc1 = [face[(i + s) % length] for s in range((j - i) % length + 1)]
    arc2 = [face[(j + s) % length] for s in range((i - j) % length + 1)]
    interior = path[1:-1]
    faces[face_idx] = arc1 + list(reversed(interior))
    faces.append(arc2 + interior)


def _rotation_from_faces(faces: list[list[int]]) -> dict[int, list[int]]:
    """Recover the cyclic neighbor order at each vertex from face cycles."""
    succ: dict[int, dict[int, int]] = {}
    for face in faces:
        length = len(face)
        for idx in range(length):
            u, v, w = face[idx], face[(idx + 1) % length], face[(idx + 2) % length]
            succ.setdefault(v, {})
            if u in succ[v]:
                raise AssertionError("dart covered by two faces")
            succ[v][u] = w
    rotations: dict[int, list[int]] = {}
    for v, mapping in succ.items():
        start = min(mapping)
        cyc = [start]
        nxt = mapping[start]
        while nxt != start:
            cyc.append(nxt)
            nxt = mapping[nxt]
        if len(cyc) != len(mapping):
            raise AssertionError("face successors do not form one rotation")
        rotations[v] = cyc
    return rotations


def trace_faces(
    graph: Graph, rotation: tuple[tuple[int, ...], ...]
) -> list[list[tuple[int, int]]]:
    """Face orbits of a rotation system: the dart after (u, v) is
    (v, w) with w the successor of u in the rotation at v."""
    succ_index = [
        {u: rot[(k + 1) % len(rot)] for k, u in enumerate(rot)} if rot else {}
        for rot in rotation
    ]
    remaining = {(u, v) for u, v in graph.edges} | {
        (v, u) for u, v in graph.edges
    }
    faces = []
    while remaining:
        dart = min(remaining)
        orbit = []
        cur = dart
        while True:
            orbit.append(cur)
            remaining.discard(cur)
            u, v = cur
            cur = (v, succ_index[v][u])
            if cur == dart:
                break
        faces.append(orbit)
    return faces


def check_embedding(graph: Graph, rotation: tuple[tuple[int, ...], ...]) -> bool:
    """Self-check a rotation system: it must list each vertex's neighbors
    exactly once, and the traced faces must satisfy V - E + F = 2 on every
    connected component (edgeless components count one face)."""
    if len(rotation) != graph.n:
        return False
    for v in graph.vertices():
        if sorted(rotation[v]) != list(graph.neighbors(v)):
            return False
    faces = trace_faces(graph, rotation)
    comps = graph.connected_components()
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    face_count = [0] * len(comps)
    for orbit in faces:
        face_count[comp_of[orbit[0][0]]] += 1
    for ci, comp in enumerate(comps):
        vs = set(comp)
        ec = sum(1 for u, v in graph.edges if u in vs)
        fc = face_count[ci] if ec else 1
        if len(comp) - ec + fc != 2:
            return False
    return True


# -- Kuratowski witnesses ----------------------------------------------------


def _extract_kuratowski(graph: Graph, work_bound: int) -> tuple[frozenset[tuple[int, int]], str]:
    work = graph.edge_count * graph.n
    refusal = (
        f"{graph.edge_count} edges x {graph.n} vertices = {work} exceeds "
        f"bound {work_bound} (one planarity test per edge deleted)"
    )
    clique = _find_k5_clique(graph, work_bound if work > work_bound else None)
    if isinstance(clique, int):
        raise BoundExceededError(
            f"Kuratowski extraction refused: {clique} steps of the 5-clique "
            f"search found none, and {refusal}"
        )
    if clique is not None:
        edges = frozenset(
            (u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]
        )
        return edges, "K5"
    if work > work_bound:
        raise BoundExceededError(
            f"Kuratowski extraction refused: non-planar with no 5-clique, and "
            f"{refusal}"
        )
    current = set(graph.edges)
    for e in sorted(graph.edges):
        trial = current - {e}
        if _planar_rotation(Graph.from_edges(graph.n, trial)) is None:
            current = trial
    witness = frozenset(current)
    kind = verify_kuratowski(graph, witness)
    return witness, kind


def _find_k5_clique(graph: Graph, step_budget: int | None = None) -> tuple[int, ...] | int | None:
    """First 5-clique in lexicographic order, or None.  Each level walks
    the set bits, above the previous vertex, of the common neighborhood of
    the vertices chosen so far.  A vertex tried whose search finds no
    5-clique is a fruitless step; the first fruitless step past
    step_budget stops the search, which then returns the step count."""
    bits = [graph.neighbor_bits(v) for v in range(graph.n)]
    cands = sum(1 << v for v in range(graph.n) if graph.degree(v) >= 4)
    fruitless = 0

    def extend(clique: tuple[int, ...], mask: int):
        nonlocal fruitless
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            found = (*clique, v)
            if len(found) < 5:
                found = extend(found, mask & bits[v])
            if found is not None:
                return found
            fruitless += 1
            if step_budget is not None and fruitless > step_budget:
                return fruitless
        return None

    return extend((), cands)


def verify_kuratowski(graph: Graph, edges: frozenset[tuple[int, int]]) -> str:
    """Check that the edge set is a genuine K5 or K33 subdivision inside
    the graph, by contracting its degree-2 paths.  Returns "K5" or "K33";
    raises ValueError otherwise."""
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    if not norm <= graph.edges:
        raise ValueError("witness uses edges absent from the graph")
    adj: dict[int, set[int]] = {}
    for u, v in norm:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    degrees = {v: len(ns) for v, ns in adj.items()}
    branch = sorted(v for v, d in degrees.items() if d >= 3)
    if any(d < 2 for d in degrees.values()):
        raise ValueError("witness has a vertex of degree < 2")
    if len(branch) == 5:
        expected_degree, kind = 4, "K5"
    elif len(branch) == 6:
        expected_degree, kind = 3, "K33"
    else:
        raise ValueError(f"witness has {len(branch)} branch vertices, need 5 or 6")
    if any(degrees[b] != expected_degree for b in branch):
        raise ValueError("branch vertex degrees do not fit K5 or K33")
    branch_set = set(branch)
    # Walk every path leaving a branch vertex down to the next branch
    # vertex; each branch-pair path is traversed once from each end.
    pair_paths: dict[tuple[int, int], int] = {}
    interior_visits: dict[int, int] = {}
    for b in branch:
        for first in sorted(adj[b]):
            prev, cur = b, first
            while cur not in branch_set:
                interior_visits[cur] = interior_visits.get(cur, 0) + 1
                nxts = [x for x in adj[cur] if x != prev]
                if len(nxts) != 1:
                    raise ValueError("subdivision path is not a simple chain")
                prev, cur = cur, nxts[0]
            if cur == b:
                raise ValueError("witness contains a loop at a branch vertex")
            key = (min(b, cur), max(b, cur))
            pair_paths[key] = pair_paths.get(key, 0) + 1
    stray = set(degrees) - branch_set
    if set(interior_visits) != stray or any(
        c != 2 for c in interior_visits.values()
    ):
        raise ValueError("stray vertices outside the subdivision paths")
    if any(count != 2 for count in pair_paths.values()):
        raise ValueError("two branch vertices are joined by parallel paths")
    pairs = set(pair_paths)
    if kind == "K5":
        want = {
            (u, v) for i, u in enumerate(branch) for v in branch[i + 1 :]
        }
        if pairs != want:
            raise ValueError("contracted witness is not K5")
        return "K5"
    # K33: contracted graph must be 3-regular bipartite with parts of size 3.
    nbrs = {b: set() for b in branch}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    if any(len(ns) != 3 for ns in nbrs.values()):
        raise ValueError("contracted witness is not 3-regular")
    color = {branch[0]: 0}
    queue = [branch[0]]
    while queue:
        x = queue.pop()
        for y in nbrs[x]:
            if y not in color:
                color[y] = 1 - color[x]
                queue.append(y)
            elif color[y] == color[x]:
                raise ValueError("contracted witness is not bipartite")
    part0 = sorted(v for v in branch if color.get(v) == 0)
    part1 = sorted(v for v in branch if color.get(v) == 1)
    if len(part0) != 3 or len(part1) != 3:
        raise ValueError("contracted witness parts are not 3+3")
    if {(min(u, v), max(u, v)) for u in part0 for v in part1} != pairs:
        raise ValueError("contracted witness is not complete bipartite")
    return "K33"


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


class HamiltonicityResult(NamedTuple):
    is_hamiltonian: bool
    cycle: tuple[int, ...] | None = None
    reason: str = ""


def is_hamiltonian(
    graph: Graph,
    order_bound: int = HAMILTONIAN_ORDER_BOUND,
    shortcut: bool = True,
) -> HamiltonicityResult:
    """Hamiltonian-cycle decision with a certificate cycle when positive.

    Negative fast paths: fewer than 3 vertices, disconnection, or (when
    shortcut is on) a vertex of degree <= 1 or a cut vertex, which a
    Hamiltonian cycle would have to pass twice.  Otherwise exact
    backtracking bounded by order_bound.
    """
    n = graph.n
    if n < 3:
        return HamiltonicityResult(False, reason="fewer than 3 vertices")
    if not graph.is_connected():
        return HamiltonicityResult(False, reason="disconnected")
    if shortcut:
        pendant = next((v for v in graph.vertices() if graph.degree(v) <= 1), None)
        if pendant is not None:
            return HamiltonicityResult(
                False, reason=f"vertex {pendant} has degree <= 1"
            )
        seen: set[int] = set()
        cut = set()
        for block in biconnected_components(graph):
            verts = {v for edge in block for v in edge}
            cut |= seen & verts
            seen |= verts
        if cut:
            return HamiltonicityResult(False, reason=f"vertex {min(cut)} is a cut vertex")
    if n > order_bound:
        raise BoundExceededError(
            f"Hamiltonian search refused: order {n} exceeds bound {order_bound}"
        )
    adj_bits = [graph.neighbor_bits(v) for v in range(n)]
    full = (1 << n) - 1
    path = [0]

    def extend(v: int, visited: int) -> bool:
        if len(path) == n:
            return bool(adj_bits[v] >> 0 & 1)
        free = full & ~visited
        if reachable(adj_bits, v, free) & free != free:
            return False
        for w in graph.neighbors(v):
            if not visited >> w & 1:
                path.append(w)
                if extend(w, visited | 1 << w):
                    return True
                path.pop()
        return False

    if extend(0, 1):
        return HamiltonicityResult(True, cycle=tuple(path))
    return HamiltonicityResult(False, reason="exhaustive search found no cycle")


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


class IsomorphismWitness(NamedTuple):
    map: Permutation
    valid: bool

    def to_json(self) -> str:
        return json.dumps({"map": list(self.map.map), "valid": self.valid})


def verify_isomorphism(
    g1: Graph, g2: Graph, mapping: Permutation | list[int] | tuple[int, ...]
) -> IsomorphismWitness:
    """Check the edge-preservation biconditional over all vertex pairs."""
    if g1.n != g2.n:
        raise ValueError("graphs have different orders")
    perm = mapping if isinstance(mapping, Permutation) else Permutation(tuple(mapping))
    if perm.size != g1.n:
        raise ValueError("mapping size does not match the graphs")
    valid = all(
        g1.has_edge(u, v) == g2.has_edge(perm(u), perm(v))
        for u in range(g1.n)
        for v in range(u + 1, g1.n)
    )
    return IsomorphismWitness(map=perm, valid=valid)


def find_isomorphism(
    g1: Graph, g2: Graph, order_bound: int = GRAPH_ISO_ORDER_BOUND
) -> IsomorphismWitness | None:
    """Backtracking isomorphism search with signature pruning; returns the
    lexicographically least witness, or None when none exists."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    n = g1.n
    if n > order_bound:
        raise BoundExceededError(
            f"graph isomorphism refused: order {n} exceeds bound {order_bound}"
        )
    sig1 = _vertex_signatures(g1)
    sig2 = _vertex_signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    images: list[int] = []
    used = [False] * n

    def backtrack(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or sig1[v] != sig2[w]:
                continue
            if any(
                g1.has_edge(u, v) != g2.has_edge(images[u], w) for u in range(v)
            ):
                continue
            images.append(w)
            used[w] = True
            if backtrack(v + 1):
                return True
            images.pop()
            used[w] = False
        return False

    if backtrack(0):
        witness = IsomorphismWitness(map=Permutation(tuple(images)), valid=True)
        assert verify_isomorphism(g1, g2, witness.map).valid
        return witness
    return None


def _vertex_signatures(graph: Graph) -> list[tuple]:
    dm = distance_matrix(graph)
    sigs = []
    for v in graph.vertices():
        nd = tuple(sorted(graph.degree(w) for w in graph.neighbors(v)))
        dp = tuple(sorted(dm.entries[v]))
        sigs.append((graph.degree(v), nd, dp))
    return sigs


def gyro_isomorphic(
    g1: GyroGroup, g2: GyroGroup, order_bound: int = GYRO_ISO_ORDER_BOUND
) -> Permutation | None:
    """Operation-preserving bijection between two tables, or None.

    The identity must map to the identity, and powers map to powers, so
    candidates are filtered by power-closure size before the factorial
    backtracking.  The returned witness is lexicographically least.
    """
    if g1.order != g2.order:
        return None
    n = g1.order
    if n > order_bound:
        raise BoundExceededError(
            f"gyrogroup isomorphism refused: order {n} exceeds bound {order_bound}"
        )
    size1 = [len(power_closure(g1, a)) for a in range(n)]
    size2 = [len(power_closure(g2, a)) for a in range(n)]
    if sorted(size1) != sorted(size2):
        return None
    images: dict[int, int] = {g1.identity: g2.identity}
    used = [False] * n
    used[g2.identity] = True
    order = [a for a in range(n) if a != g1.identity]
    t1, t2 = g1.table, g2.table
    preimages: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, row in enumerate(t1):
        for y, z in enumerate(row):
            preimages[z].append((x, y))

    def consistent(a: int) -> bool:
        # Only the triples x + y = z that involve a, the element just
        # mapped: the others held when their last element was mapped.
        pairs = [(a, y) for y in images] + [(x, a) for x in images]
        pairs += [(x, y) for x, y in preimages[a] if x in images and y in images]
        for x, y in pairs:
            z = t1[x][y]
            if z in images and images[z] != t2[images[x]][images[y]]:
                return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        a = order[idx]
        for b in range(n):
            if used[b] or size1[a] != size2[b]:
                continue
            images[a] = b
            used[b] = True
            if consistent(a) and backtrack(idx + 1):
                return True
            del images[a]
            used[b] = False
        return False

    if backtrack(0):
        return Permutation(tuple(images[a] for a in range(n)))
    return None
