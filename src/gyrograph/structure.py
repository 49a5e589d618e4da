"""Planarity with checkable certificates, and Hamiltonicity by the
least-extension search that the isomorphism searches share.

Planarity is decided block by block with the face-insertion method of
Demoucron, Malgrange and Pertuiset (1964), on the graph's bitmask rows:
embed a cycle, then repeatedly route a path of some unembedded fragment
through a face whose vertex mask covers the fragment's attachments.  A
fragment with no admissible face proves non-planarity; then a subdivision
witness is extracted (a complete 5-clique when one exists, otherwise by
deleting edges while non-planarity persists, down to a bare subdivision).
The certificate checkers walk the rows as well: face tracing keeps a mask
of the untraced darts at each vertex, and the Kuratowski check contracts
the witness's own rows along its degree-2 paths.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import BoundExceededError
from .graphs import Graph, _least_extension, biconnected_components, reachable, set_bits

#: Cap on edges x vertices for the Kuratowski edge deletion (one planarity
#: test per edge), and, past it, on the fruitless steps of the 5-clique
#: search tried first.  On 2 CPUs K48,48 (221 184) takes 1.0 s, a 20 x 20
#: grid with two chords (304 800) 7 s and K64,64 (524 288) 3.1 s.
KURATOWSKI_WORK_BOUND = 250_000
HAMILTONIAN_ORDER_BOUND = 32


# ---------------------------------------------------------------------------
# Planarity
# ---------------------------------------------------------------------------


class PlanarityResult(NamedTuple):
    is_planar: bool
    rotation: tuple[tuple[int, ...], ...] | None = None
    kuratowski_edges: frozenset[tuple[int, int]] | None = None
    kuratowski_kind: str | None = None  # "K5" | "K33"

    def to_dict(self) -> dict:
        if self.is_planar:
            return {
                "planar": True,
                "rotation": [list(r) for r in self.rotation or ()],
            }
        return {
            "planar": False,
            "kind": self.kuratowski_kind,
            "edges": sorted(list(e) for e in self.kuratowski_edges or ()),
        }


def is_planar(graph: Graph) -> PlanarityResult:
    """Exact planarity with a certificate either way: a rotation system
    when planar, a verified K5/K33 subdivision when not.  Deciding is never
    refused; extracting a witness is, when edges x vertices exceeds
    KURATOWSKI_WORK_BOUND and the 5-clique search either finds none or
    takes more than that many fruitless steps."""
    rotation = _planar_rotation(graph.adj_bits, graph.blocks)
    if rotation is not None:
        return PlanarityResult(is_planar=True, rotation=rotation)
    edges, kind = _extract_kuratowski(graph)
    return PlanarityResult(
        is_planar=False, kuratowski_edges=edges, kuratowski_kind=kind
    )


def _planar_rotation(adj: Sequence[int], blocks: Iterable) -> tuple[tuple[int, ...], ...] | None:
    """Rotation system of the bitmask rows adj, or None if non-planar.

    Each of the biconnected blocks is embedded independently; at shared
    vertices the block rotations are concatenated, which keeps every block
    on a contiguous arc and so preserves planarity.
    """
    rotations: list[list[int]] = [[] for _ in adj]
    for block in blocks:
        # A bridge bounds one face, the closed walk u, v.
        faces = [list(block)] if len(block) == 2 else _embed_block(adj, block)
        if faces is None:
            return None
        for v, cyc in _rotation_from_faces(faces).items():
            rotations[v].extend(cyc)
    return tuple(tuple(r) for r in rotations)


def _embed_block(adj: Sequence[int], block: tuple[int, ...]) -> list[list[int]] | None:
    """Face-insertion embedding of one 2-connected block, given by its
    ascending vertices: its edges are the rows' edges between them.

    The embedded part is the vertex mask placed and, at each vertex v,
    done[v], the mask of its embedded edges; each face's vertex mask is
    kept beside its cycle.  Returns the face boundaries (vertex cycles) of
    a planar embedding, or None when some fragment has no admissible face.
    """
    mask, nv = _mask(block), len(block)
    ne = sum((adj[v] & mask).bit_count() for v in block) // 2
    if ne > 3 * nv - 6:
        return None
    cycle = _find_cycle(adj, block, mask)
    faces: list[list[int]] = [cycle, cycle[::-1]]
    face_masks = [_mask(cycle)] * 2
    done = dict.fromkeys(block, 0)
    placed = embedded = 0
    path = cycle + cycle[:1]
    while True:
        for a, b in zip(path, path[1:]):
            done[a] |= 1 << b
            done[b] |= 1 << a
        placed |= _mask(path)
        embedded += len(path) - 1
        if embedded == ne:
            break
        fragments = _fragments(adj, mask, placed, done)
        admissible = [
            [i for i, fm in enumerate(face_masks) if not attachments & ~fm]
            for attachments, _ in fragments
        ]
        if not all(admissible):
            return None
        pick = next((i for i, ok in enumerate(admissible) if len(ok) == 1), 0)
        path = _fragment_path(adj, *fragments[pick])
        _insert_path(faces, face_masks, admissible[pick][0], path)

    if sum(map(len, faces)) != 2 * ne or len(faces) != ne - nv + 2:
        raise AssertionError("embedding bookkeeping is inconsistent")
    return faces


def _mask(vertices: Iterable[int]) -> int:
    """The bitmask of vertices, which may repeat (as a closed path does)."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def _find_cycle(adj: Sequence[int], block: tuple[int, ...], mask: int) -> list[int]:
    """Any cycle in a block with min degree >= 2: take a BFS tree from the
    least vertex, pick the least non-tree edge, and join the endpoints'
    tree paths at their lowest common ancestor."""
    start = block[0]
    parent, depth, tree = {start: -1}, {start: 0}, {start: 0}
    seen = 1 << start
    queue = [start]
    for v in queue:
        fresh = adj[v] & mask & ~seen
        seen |= fresh
        tree[v] |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            w = low.bit_length() - 1
            parent[w], depth[w], tree[w] = v, depth[v] + 1, 1 << v
            queue.append(w)
    for u in block:
        rest = adj[u] & mask & ~tree[u] & (-1 << u + 1)
        if rest:
            break
    up_u, up_v = [u], [(rest & -rest).bit_length() - 1]
    while up_u[-1] != up_v[-1]:  # climb the deeper end
        up = up_u if depth[up_u[-1]] >= depth[up_v[-1]] else up_v
        up.append(parent[up[-1]])
    # up_u ends at the LCA; up_v duplicates it.
    return up_u + up_v[-2::-1]


def _fragments(
    adj: Sequence[int], mask: int, placed: int, done: dict[int, int]
) -> list[tuple[int, int]]:
    """Chords and attached components relative to the embedded part, as
    (attachment mask, component mask) pairs, a chord's component mask
    being 0: chords first, in edge order, then components by least
    vertex."""
    out: list[tuple[int, int]] = []
    for u in set_bits(placed):
        if chords := adj[u] & placed & ~done[u] & (-1 << u + 1):
            out += [(1 << u | 1 << v, 0) for v in set_bits(chords)]
    outside = mask & ~placed
    while outside:
        comp = reachable(adj, (outside & -outside).bit_length() - 1, outside)
        outside &= ~comp
        attachments = 0
        for x in set_bits(comp):
            attachments |= adj[x]
        out.append((attachments & placed, comp))
    return out


def _fragment_path(adj: Sequence[int], attachments: int, comp: int) -> list[int]:
    """A path through the fragment from its least attachment to another:
    a chord, or a BFS inside the component seeded by the least
    attachment's neighbors there, up to the first vertex next to another
    attachment."""
    a1 = (attachments & -attachments).bit_length() - 1
    if not comp:
        return [a1, attachments.bit_length() - 1]
    targets = attachments ^ 1 << a1
    seen = comp & adj[a1]
    queue = set_bits(seen)
    parent = dict.fromkeys(queue, a1)
    for x in queue:
        hit = adj[x] & targets
        if hit:
            path = [(hit & -hit).bit_length() - 1]
            while x is not None:  # up the BFS tree to a1, which has no parent
                path.append(x)
                x = parent.get(x)
            return path[::-1]
        fresh = adj[x] & comp & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            y = low.bit_length() - 1
            parent[y] = x
            queue.append(y)
    raise AssertionError("fragment must reach a second attachment")


def _insert_path(
    faces: list[list[int]], face_masks: list[int], face_idx: int, path: list[int]
) -> None:
    """Split a face along a path between two of its boundary vertices,
    and its vertex mask with it."""
    face = faces[face_idx]
    a1, a2 = path[0], path[-1]
    i, j = face.index(a1), face.index(a2)
    length = len(face)
    arc1 = [face[(i + s) % length] for s in range((j - i) % length + 1)]
    arc2 = [face[(j + s) % length] for s in range((i - j) % length + 1)]
    interior = path[1:-1]
    faces[face_idx] = arc1 + interior[::-1]
    faces.append(arc2 + interior)
    face_masks[face_idx] = _mask(faces[face_idx])
    face_masks.append(_mask(faces[-1]))


def _rotation_from_faces(faces: list[list[int]]) -> dict[int, list[int]]:
    """Recover the cyclic neighbor order at each vertex from face cycles."""
    succ: dict[int, dict[int, int]] = {}
    for face in faces:
        for u, v, w in zip(face, face[1:] + face[:1], face[2:] + face[:2]):
            if u in succ.setdefault(v, {}):
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
    (v, w) with w the successor of u in the rotation at v, and each orbit
    starts at the least untraced dart.  Raises ValueError unless the
    rotation at each vertex lists its neighbors exactly once."""
    if len(rotation) != graph.n or any(
        sorted(rot) != set_bits(row) for rot, row in zip(rotation, graph.adj_bits)
    ):
        raise ValueError("a rotation must list its vertex's neighbors exactly once")
    succ_index = [dict(zip(rot, rot[1:] + rot[:1])) for rot in rotation]
    left = list(graph.adj_bits)  # left[u]: the mask of the untraced darts (u, v)
    faces = []
    for start in range(graph.n):
        while left[start]:
            u, v = start, (left[start] & -left[start]).bit_length() - 1
            orbit = []
            while left[u] >> v & 1:
                orbit.append((u, v))
                left[u] ^= 1 << v
                u, v = v, succ_index[v][u]
            faces.append(orbit)
    return faces


def check_embedding(graph: Graph, rotation: tuple[tuple[int, ...], ...]) -> bool:
    """Self-check a rotation system: it must list each vertex's neighbors
    exactly once, and the traced faces must satisfy V - E + F = 2 on every
    connected component (edgeless components count one face).  A rotation
    of a connected graph has V - E + F = 2 - 2g with genus g >= 0, so the
    sum over the components reaches twice their number only when each
    term is 2."""
    try:
        faces = trace_faces(graph, rotation)
    except ValueError:
        return False
    isolated = graph.adj_bits.count(0)
    components = len(graph.connected_components())
    return graph.n - graph.edge_count + len(faces) + isolated == 2 * components


# -- Kuratowski witnesses ----------------------------------------------------


def _extract_kuratowski(graph: Graph) -> tuple[frozenset[tuple[int, int]], str]:
    work, work_bound = graph.edge_count * graph.n, KURATOWSKI_WORK_BOUND
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
    rows, kept = list(graph.adj_bits), set()
    for u, v in graph.sorted_edges():  # delete it, unless the rest is planar
        rows[u], rows[v] = rows[u] ^ 1 << v, rows[v] ^ 1 << u
        if _planar_rotation(rows, biconnected_components(rows)) is not None:
            rows[u], rows[v] = rows[u] | 1 << v, rows[v] | 1 << u
            kept.add((u, v))
    witness = frozenset(kept)
    kind = verify_kuratowski(graph, witness)
    return witness, kind


def _find_k5_clique(graph: Graph, step_budget: int | None = None) -> tuple[int, ...] | int | None:
    """First 5-clique in lexicographic order, or None.  Each level walks
    the set bits, above the previous vertex, of the common neighborhood of
    the vertices chosen so far.  A vertex tried whose search finds no
    5-clique is a fruitless step; the first fruitless step past
    step_budget stops the search, which then returns the step count."""
    bits = graph.adj_bits
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
    the graph, by contracting its degree-2 paths on the witness's own
    bitmask rows.  Returns "K5" or "K33"; raises ValueError otherwise."""
    n, adj = graph.n, graph.adj_bits
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n and adj[u] >> v & 1):
            raise ValueError("witness uses edges absent from the graph")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    degrees = [row.bit_count() for row in rows]
    branch = [v for v, d in enumerate(degrees) if d >= 3]
    if 1 in degrees:
        raise ValueError("witness has a vertex of degree < 2")
    if len(branch) not in (5, 6):
        raise ValueError(f"witness has {len(branch)} branch vertices, need 5 or 6")
    kind, want = ("K5", 4) if len(branch) == 5 else ("K33", 3)
    if any(degrees[b] != want for b in branch):
        raise ValueError("branch vertex degrees do not fit K5 or K33")
    # Walk every path leaving a branch vertex down to the next one, in the
    # mask ends: contracted[b] collects the far ends, and every interior
    # vertex (degree 2) is passed once from each end of its path.
    ends, contracted, passes = _mask(branch), [0] * n, 0
    for b in branch:
        for first in set_bits(rows[b]):
            prev, cur = b, first
            while not ends >> cur & 1:
                passes += 1
                prev, cur = cur, (rows[cur] ^ 1 << prev).bit_length() - 1
            contracted[b] |= 1 << cur
        if contracted[b] >> b & 1:
            raise ValueError("witness contains a loop at a branch vertex")
        if contracted[b].bit_count() != want:
            raise ValueError("two branch vertices are joined by parallel paths")
    if passes != 2 * degrees.count(2):
        raise ValueError("stray vertices outside the subdivision paths")
    # Now each contracted[b] is ends ^ 1 << b for K5.  A K33 is 3-regular
    # and simple here, so it is K3,3 exactly when it is bipartite.
    side = contracted[branch[0]]
    if kind == "K5" or all(
        contracted[b] == (ends ^ side if side >> b & 1 else side) for b in branch
    ):
        return kind
    raise ValueError("contracted witness is not bipartite")


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


class HamiltonicityResult(NamedTuple):
    is_hamiltonian: bool
    cycle: tuple[int, ...] | None = None
    reason: str = ""


def is_hamiltonian(graph: Graph) -> HamiltonicityResult:
    """Hamiltonian-cycle decision with a certificate cycle when positive.

    Negative fast paths: fewer than 3 vertices, disconnection, a vertex of
    degree <= 1, or a cut vertex, which a Hamiltonian cycle would have to
    pass twice.  Otherwise the least cycle from vertex 0, by a search that
    keeps the unused vertices reachable from the path's end; an order above
    HAMILTONIAN_ORDER_BOUND is refused before it starts.
    """
    n = graph.n
    if n < 3:
        return HamiltonicityResult(False, reason="fewer than 3 vertices")
    if not graph.is_connected():
        return HamiltonicityResult(False, reason="disconnected")
    pendant = next((v for v in graph.vertices() if graph.degree(v) <= 1), None)
    if pendant is not None:
        return HamiltonicityResult(False, reason=f"vertex {pendant} has degree <= 1")
    block_count = Counter(v for block in graph.blocks for v in block)
    cut = [v for v, count in block_count.items() if count > 1]
    if cut:
        return HamiltonicityResult(False, reason=f"vertex {min(cut)} is a cut vertex")
    if n > HAMILTONIAN_ORDER_BOUND:
        raise BoundExceededError(
            f"Hamiltonian search refused: order {n} exceeds bound {HAMILTONIAN_ORDER_BOUND}"
        )
    adj_bits = graph.adj_bits
    full = (1 << n) - 1
    path = {0: 0}  # position -> vertex

    def fits(i: int, w: int, used: int) -> bool:
        # The unused vertices stay reachable from w; the last one closes the cycle.
        free = full & ~used
        return reachable(adj_bits, w, free) & free == free if free else bool(adj_bits[w] & 1)

    def unused_neighbors(i: int, used: int) -> list[int]:
        return set_bits(adj_bits[path[i - 1]] & ~used)

    if _least_extension(path, range(1, n), unused_neighbors, fits):
        return HamiltonicityResult(True, cycle=tuple(path[i] for i in range(n)))
    return HamiltonicityResult(False, reason="exhaustive search found no cycle")


# ---------------------------------------------------------------------------
# Old import path of the isomorphism searches
# ---------------------------------------------------------------------------

#: Names of `gyrograph.isomorphism` still served from here.
_ISOMORPHISM_NAMES = (
    "IsomorphismWitness", "find_isomorphism", "gyro_isomorphic", "verify_isomorphism",
)


def __getattr__(name: str):
    """Serve the isomorphism searches' public names from
    `gyrograph.isomorphism`, which runs on the first such read."""
    if name in _ISOMORPHISM_NAMES:
        from . import isomorphism
        return getattr(isomorphism, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
