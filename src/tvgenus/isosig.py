"""Isomorphism signatures for 3-dimensional triangulations.

The codec implements the published dimension-3 signature scheme used by the
standard census files: a base64-style alphabet a-zA-Z0-9+-, a size header,
a packed sequence of facet actions (2 bits each, 3 per character) recorded
the first time each facet pair is met in a canonical breadth-first
traversal, then join destinations and join permutations (indexed in the
lexicographic ordering of S_4).  Gluings to a previously unseen tetrahedron
are normalized to the identity permutation by the choice of labelling and
carry no data.

encode_isosig returns the canonical signature: the lexicographically
smallest candidate over all choices of start tetrahedron and start
labelling, so it is invariant under combinatorial isomorphism.  The decoder
accepts any well-formed signature of a connected closed triangulation.
"""

from __future__ import annotations

from .complex3 import (PERM_INDEX, PERMS, Perm, Triangulation,
                       TriangulationError, perm_compose, perm_inverse)

SIG_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-"
_CHAR_INDEX = {c: i for i, c in enumerate(SIG_CHARS)}


class IsoSigError(ValueError):
    """Malformed or unsupported isomorphism signature."""


def _encode_int(value: int, nchars: int) -> str:
    out = []
    for _ in range(nchars):
        out.append(SIG_CHARS[value & 63])
        value >>= 6
    return "".join(out)


def _candidate(tri: Triangulation, start: int, vperm: Perm) -> str:
    """Signature candidate for the traversal rooted at (start, vperm)."""
    n = tri.size
    image = [-1] * n
    vmap: list[Perm | None] = [None] * n
    preimage = [start]
    image[start] = 0
    vmap[start] = vperm
    facet_actions: list[int] = []
    join_dests: list[int] = []
    join_gluings: list[int] = []
    glued = [[False] * 4 for _ in range(n)]

    label = 0
    while label < len(preimage):
        t_old = preimage[label]
        inv = perm_inverse(vmap[t_old])
        for f_new in range(4):
            if glued[label][f_new]:
                continue
            f_old = inv[f_new]
            t2_old, p = tri.gluing(t_old, f_old)
            if image[t2_old] < 0:
                # first visit: relabel the neighbour so the gluing reads as
                # the identity, and record only the action
                facet_actions.append(1)
                image[t2_old] = len(preimage)
                vmap[t2_old] = perm_compose(vmap[t_old], perm_inverse(p))
                preimage.append(t2_old)
                glued[label][f_new] = True
                glued[image[t2_old]][f_new] = True
            else:
                facet_actions.append(2)
                dest = image[t2_old]
                ghat = perm_compose(vmap[t2_old],
                                    perm_compose(p, perm_inverse(vmap[t_old])))
                join_dests.append(dest)
                join_gluings.append(PERM_INDEX[ghat])
                glued[label][f_new] = True
                glued[dest][ghat[f_new]] = True
        label += 1

    if n < 63:
        parts = [SIG_CHARS[n]]
        nchars = 1
    else:
        nchars = 1
        while n >= (1 << (6 * nchars)):
            nchars += 1
        parts = [SIG_CHARS[63], SIG_CHARS[nchars], _encode_int(n, nchars)]
    for i in range(0, len(facet_actions), 3):
        v = 0
        for j, a in enumerate(facet_actions[i:i + 3]):
            v |= a << (2 * j)
        parts.append(SIG_CHARS[v])
    for d in join_dests:
        parts.append(_encode_int(d, nchars))
    for g in join_gluings:
        parts.append(SIG_CHARS[g])
    return "".join(parts)


def encode_isosig(tri: Triangulation) -> str:
    """Canonical signature: minimal candidate over all starting labellings."""
    best: str | None = None
    for start in range(tri.size):
        for vperm in PERMS:
            s = _candidate(tri, start, vperm)
            if best is None or s < best:
                best = s
    assert best is not None
    return best


def decode_isosig(sig: str, name: str | None = None) -> Triangulation:
    """Decode a signature into a validated Triangulation.

    Rejects malformed strings (bad characters, truncation, permutation index
    out of range, trailing data) and signatures whose triangulation is not a
    connected closed 3-manifold (e.g. signatures with boundary facets).
    """
    if not sig:
        raise IsoSigError("empty signature")
    if any(c not in _CHAR_INDEX for c in sig):
        bad = next(c for c in sig if c not in _CHAR_INDEX)
        raise IsoSigError(f"invalid signature character {bad!r}")

    pos = 0

    def read_char() -> int:
        nonlocal pos
        if pos >= len(sig):
            raise IsoSigError("truncated signature")
        v = _CHAR_INDEX[sig[pos]]
        pos += 1
        return v

    first = read_char()
    if first == 63:
        nchars = read_char()
        if nchars == 0:
            raise IsoSigError("bad size header")
        n = 0
        for i in range(nchars):
            n |= read_char() << (6 * i)
    else:
        nchars = 1
        n = first
    if n == 0:
        raise IsoSigError("signature encodes an empty triangulation")

    # Infer the number of type-2 joins from the total length: with t1 = n-1
    # (connected traversal), t0 = 4n - 2 t1 - 2 t2 and A = t0 + t1 + t2 =
    # 3n + 1 - t2 actions packed 3 per char, the remaining length is
    # ceil(A/3) + t2*(nchars+1).  t0 >= 0 bounds t2 by n + 1, and the join
    # data alone by remaining // (nchars + 1), which keeps a size header
    # claiming a huge n from stalling the loop.  So every character is read
    # below, and, as each action glues two faces, at most 2n <= A actions.
    remaining = len(sig) - pos
    for t2 in range(min(n + 1, remaining // (nchars + 1)) + 1):
        actions_total = 3 * n + 1 - t2
        if (actions_total + 2) // 3 + t2 * (nchars + 1) == remaining:
            break
    else:
        raise IsoSigError("signature length is inconsistent")

    actions: list[int] = []
    for _ in range((actions_total + 2) // 3):
        v = read_char()
        for j in range(3):
            actions.append((v >> (2 * j)) & 3)
    dests: list[int] = []
    for _ in range(t2):
        d = 0
        for i in range(nchars):
            d |= read_char() << (6 * i)
        dests.append(d)
    perms: list[Perm] = []
    for _ in range(t2):
        gi = read_char()
        if gi >= 24:
            raise IsoSigError(f"invalid permutation index {gi}")
        perms.append(PERMS[gi])

    rows: list[list] = [[None] * 4 for _ in range(n)]
    created = 1
    ai = ji = 0
    for t in range(n):
        if t >= created:
            raise IsoSigError("signature describes a disconnected complex")
        for f in range(4):
            if rows[t][f] is not None:
                continue
            a = actions[ai]
            ai += 1
            if a == 0:
                raise IsoSigError(
                    "signature has boundary facets; only closed "
                    "triangulations are supported")
            if a == 1:
                if created >= n:
                    raise IsoSigError("too many tetrahedra in traversal")
                t2_new = created
                created += 1
                rows[t][f] = (t2_new, (0, 1, 2, 3))
                rows[t2_new][f] = (t, (0, 1, 2, 3))
            elif a == 2:
                if ji >= len(dests):
                    raise IsoSigError("truncated join data")
                dest, p = dests[ji], perms[ji]
                ji += 1
                if dest >= created:
                    raise IsoSigError("join destination not yet created")
                f2 = p[f]
                if rows[dest][f2] is not None or (dest, f2) == (t, f):
                    raise IsoSigError("inconsistent join in signature")
                rows[t][f] = (dest, p)
                rows[dest][f2] = (t, perm_inverse(p))
            else:
                raise IsoSigError(f"invalid facet action {a}")
    try:
        return Triangulation(rows, name=name)
    except TriangulationError as exc:
        raise IsoSigError(f"decoded complex is invalid: {exc}") from exc
