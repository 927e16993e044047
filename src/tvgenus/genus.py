"""Heegaard-genus lower bounds from Turaev-Viro values, and census screening.

The bound: for the unitary theory at q = e^(i*pi/r),

    g(M) - 1 >= -log TV(M) / log TV(S^3),   TV(S^3) = 2 sin^2(pi/r) / r,

so genus_lb = ceil(raw - eps) + 1 with raw the right-hand side.  The guard
eps = 1e-9 is subtracted before the ceiling so that float noise can only
weaken the bound, never strengthen it; an exactly integral raw value k
still yields genus_lb = k + 1.

The screen flags a record when genus_lb exceeds the minimal number of
generators of H_1 (free rank plus torsion factor count): such manifolds are
potential rank-versus-genus counterexamples.  Confirming that the
fundamental-group rank really is smaller needs group theory outside this
tool, so flagged records carry a disclaimer note.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .complex3 import Triangulation
from .homology import H1Summary, h1
from .isosig import decode_isosig
from .statesum import SearchLimits, tv_invariant

GENUS_EPS = 1e-9
PAPER_MODE_R = 5
PAPER_MODE_THRESHOLD = 7.235


def tv_s3(r: int) -> float:
    """TV of the 3-sphere: 2 sin^2(pi/r) / r, in (0, 1) for r >= 3."""
    if r < 3:
        raise ValueError("level r must be >= 3")
    return 2.0 * math.sin(math.pi / r) ** 2 / r


class GenusBound(NamedTuple):
    tv_value: float
    r: int
    raw: float
    genus_lb: int


def genus_lower_bound(tv: float, r: int) -> GenusBound:
    """Integer lower bound for the Heegaard genus from a TV value.

    Monotone nondecreasing in tv; tv must be positive (a vanishing TV value
    carries no information through the logarithm)."""
    if tv <= 0:
        raise ValueError("tv must be positive")
    raw = -math.log(tv) / math.log(tv_s3(r))
    lb = max(0, math.ceil(raw - GENUS_EPS) + 1)
    return GenusBound(tv_value=tv, r=r, raw=raw, genus_lb=lb)


class ScreenRecord(NamedTuple):
    name: str
    isosig: str | None
    tv_value: float | None = None
    genus_lb: int | None = None
    h1: H1Summary | None = None
    flagged: bool = False
    notes: tuple[str, ...] = ()
    tv_exact: str | None = None  # reduced polynomial in zeta, when computed

    @property
    def min_generators(self) -> int | None:
        return None if self.h1 is None else self.h1.min_generators


FLAG_DISCLAIMER = ("potential counterexample only: the genus bound exceeds the "
                   "H_1 generator count, but the group-theoretic rank is not "
                   "computed here")


def screen_record(name: str, tri: Triangulation, r: int,
                  mode: str = "float",
                  limits: SearchLimits | None = None,
                  isosig: str | None = None) -> ScreenRecord:
    """Full per-manifold record: TV, genus bound, H_1, the flag and notes.
    The value is the exact one where the result has it, so 'both' mode
    reports an exact 0 as 0, not as the float sum's rounding noise."""
    result = tv_invariant(tri, r, mode=mode, limits=limits)
    homology = h1(tri)
    notes = tuple(result.warnings)
    tv = (result.value_float if result.value_exact is None
          else result.value_exact.to_float())
    if tv > 0:
        lb = genus_lower_bound(tv, r).genus_lb
        flagged = lb > homology.min_generators
    else:
        # TV = 0 gives no bound
        flagged = False
        lb = 0
        notes = notes + ("turaev-viro value is zero; no genus bound",)
    if flagged:
        notes = notes + (FLAG_DISCLAIMER,)
    tv_exact = None if result.value_exact is None else str(result.value_exact)
    return ScreenRecord(name=name, isosig=isosig, tv_value=tv, genus_lb=lb,
                        h1=homology, flagged=flagged, notes=notes,
                        tv_exact=tv_exact)


def screen(entries, r: int, threshold: float | None = None,
           mode: str = "float",
           limits: SearchLimits | None = None) -> list[ScreenRecord]:
    """Screen census entries (name, isosig) pairs; order preserved.

    Per-entry failures become records with the error in notes; the batch
    never aborts.  A signature repeated within one call is computed once:
    each later line gets the first line's record under its own name (equal
    signatures decode to the same triangulation, and no other field reads
    the name).  Only computed records are shared; a failing line builds its
    own failure record, and nothing is kept between calls.  With a
    threshold, only records with tv >= threshold (and the failures) are
    kept."""
    done: dict[str, ScreenRecord] = {}

    def one(entry) -> ScreenRecord:
        name, sig = entry
        rec = done.get(sig)
        if rec is not None:
            return rec._replace(name=name)
        try:
            tri = decode_isosig(sig, name=name)
            rec = screen_record(name, tri, r, mode=mode, limits=limits,
                                isosig=sig)
        except Exception as exc:  # per-record isolation is the contract
            return ScreenRecord(name=name, isosig=sig,
                                notes=(f"failed: {exc}",))
        done[sig] = rec
        return rec

    records = [one(e) for e in entries]
    if threshold is not None:
        records = [rec for rec in records
                   if rec.tv_value is None or rec.tv_value >= threshold]
    return records


ACTIONABLE_NOTE = "actionable: genus bound >= 3 with 2-generated H_1"
BELOW_ACTIONABLE_NOTE = "below actionable genus"


def trivial_exclusions(record: ScreenRecord) -> ScreenRecord:
    """Annotate a record with the genus-window exclusions.

    Genus 0, 1 and 2 admit no rank-versus-genus counterexamples, so records
    whose bound does not reach 3 are marked below actionable; the screen can
    only detect the pattern genus >= 3 with a 2-generated H_1."""
    if record.genus_lb is None:
        return record
    if record.genus_lb <= 2:
        if BELOW_ACTIONABLE_NOTE in record.notes:
            return record
        return record._replace(notes=record.notes + (BELOW_ACTIONABLE_NOTE,))
    if (record.flagged and record.h1 is not None
            and record.h1.min_generators == 2
            and ACTIONABLE_NOTE not in record.notes):
        return record._replace(notes=record.notes + (ACTIONABLE_NOTE,))
    return record
