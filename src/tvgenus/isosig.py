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
accepts what a traversal of a connected closed triangulation writes, unused
bits zero, and hands Triangulation each face's (target, permutation index)
as FaceSlots, which skip the checks that normalize rows from users.
"""

from __future__ import annotations

from .complex3 import (PERM_INDEX, PERM_INVERSE, PERMS, FaceSlots, Perm,
                       Triangulation, TriangulationError, perm_compose,
                       perm_inverse)

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


def _decode_int(digits: list[int]) -> int:
    return sum(v << (6 * i) for i, v in enumerate(digits))


def _candidate(tri: Triangulation, start: int, vperm: Perm,
               best: str | None = None) -> str | None:
    """Signature candidate for the traversal rooted at (start, vperm); None
    as soon as a facet-action character it writes compares above best's
    character at that place, all before it being equal, since the candidate
    then compares above best."""
    n = tri.size
    if n < 63:
        header = SIG_CHARS[n]
        nchars = 1
    else:
        nchars = 1
        while n >= (1 << (6 * nchars)):
            nchars += 1
        header = SIG_CHARS[63] + SIG_CHARS[nchars] + _encode_int(n, nchars)
    image = [-1] * n
    vmap: list[Perm | None] = [None] * n
    preimage = [start]
    image[start] = 0
    vmap[start] = vperm
    actions: list[str] = []  # the facet-action characters, 3 actions each
    bits = count = 0  # the actions of the character being written
    tied = best is not None  # every character so far equals best's
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
                bits |= 1 << (2 * count)
                image[t2_old] = len(preimage)
                vmap[t2_old] = perm_compose(vmap[t_old], perm_inverse(p))
                preimage.append(t2_old)
                glued[label][f_new] = True
                glued[image[t2_old]][f_new] = True
            else:
                bits |= 2 << (2 * count)
                dest = image[t2_old]
                ghat = perm_compose(vmap[t2_old],
                                    perm_compose(p, perm_inverse(vmap[t_old])))
                join_dests.append(dest)
                join_gluings.append(PERM_INDEX[ghat])
                glued[label][f_new] = True
                glued[dest][ghat[f_new]] = True
            count += 1
            if count == 3:
                char = SIG_CHARS[bits]
                if tied:
                    theirs = best[len(header) + len(actions)]
                    if char > theirs:
                        return None
                    tied = char == theirs
                actions.append(char)
                bits = count = 0
        label += 1
    if count:
        actions.append(SIG_CHARS[bits])
    return "".join([header, *actions,
                    *(_encode_int(d, nchars) for d in join_dests),
                    *(SIG_CHARS[g] for g in join_gluings)])


def encode_isosig(tri: Triangulation) -> str:
    """Canonical signature: minimal candidate over all starting labellings.
    A candidate is given up at the first action character that shows it
    above the least so far."""
    best: str | None = None
    for start in range(tri.size):
        for vperm in PERMS:
            s = _candidate(tri, start, vperm, best)
            if s is not None and (best is None or s < best):
                best = s
    assert best is not None
    return best


def decode_isosig(sig: str, name: str | None = None) -> Triangulation:
    """Decode a signature into a validated Triangulation.

    A connected closed triangulation of n tetrahedra has one shape: its
    traversal makes n - 1 tetrahedra and n + 1 joins, 2n facet actions, so
    after the size header come ceil(2n/3) action characters and n + 1 join
    destinations and permutations.  A signature of any other length, such
    as a truncated or padded one or one with boundary facets, is rejected
    as "signature length is inconsistent".  Also rejected: bad characters,
    a bad or truncated size header, nonzero unused bits in the last
    facet-action character, a permutation index out of range, and
    signatures of the right length whose triangulation is not a connected
    closed 3-manifold.
    """
    if not sig:
        raise IsoSigError("empty signature")
    try:
        vals = [_CHAR_INDEX[c] for c in sig]
    except KeyError as exc:
        raise IsoSigError(f"invalid signature character {exc.args[0]!r}") from None

    nchars, header = 1, 1
    if vals[0] == 63:
        if len(vals) < 2:
            raise IsoSigError("truncated signature")
        nchars = vals[1]
        if nchars == 0:
            raise IsoSigError("bad size header")
        header = 2 + nchars
        if len(vals) < header:
            raise IsoSigError("truncated signature")

    n = _decode_int(vals[header - nchars:header])
    if n == 0:
        raise IsoSigError("signature encodes an empty triangulation")
    joins_at = header + (2 * n + 2) // 3
    perms_at = joins_at + (n + 1) * nchars
    if len(vals) != perms_at + n + 1:
        raise IsoSigError("signature length is inconsistent")

    actions = [(v >> shift) & 3 for v in vals[header:joins_at]
               for shift in (0, 2, 4)]
    if any(actions[2 * n:]):
        raise IsoSigError("unused bits of the last action character are not zero")
    dests = vals[joins_at:perms_at:nchars]  # nchars digits each, low first
    for i in range(1, nchars):
        dests = [d + (v << 6 * i) for d, v in zip(dests, vals[joins_at + i::nchars])]
    perms = vals[perms_at:]
    for gi in perms:
        if gi >= 24:
            raise IsoSigError(f"invalid permutation index {gi}")

    glued = FaceSlots([None] * (4 * n))  # (target, permutation index)
    created = 1
    ai = ji = 0
    for t in range(n):
        if t >= created:
            raise IsoSigError("signature describes a disconnected complex")
        for x in range(4 * t, 4 * t + 4):
            if glued[x] is not None:
                continue
            a = actions[ai]
            ai += 1
            if a == 1:
                if created >= n:
                    raise IsoSigError("too many tetrahedra in traversal")
                glued[x] = (created, 0)  # PERMS[0] is the identity
                glued[4 * created + x - 4 * t] = (t, 0)
                created += 1
            elif a == 2:
                # every index is in range: with k tetrahedra made and j
                # joins read, the open face x leaves 2(k + j) <= 4(1 + k) - 1,
                # so j <= k + 1 <= n, and the action index k + j <= 2k + 1 < 2n
                dest, gi = dests[ji], perms[ji]
                ji += 1
                if dest >= created:
                    raise IsoSigError("join destination not yet created")
                y = 4 * dest + PERMS[gi][x - 4 * t]
                if glued[y] is not None or y == x:
                    raise IsoSigError("inconsistent join in signature")
                glued[x] = (dest, gi)
                glued[y] = (t, PERM_INVERSE[gi])
            elif a == 0:
                raise IsoSigError(
                    "signature has boundary facets; only closed "
                    "triangulations are supported")
            else:
                raise IsoSigError(f"invalid facet action {a}")
    try:
        return Triangulation(glued, name=name)
    except TriangulationError as exc:
        raise IsoSigError(f"decoded complex is invalid: {exc}") from exc
