"""Turaev-Viro invariants of closed 3-manifold triangulations at
q = e^(i*pi/r), Heegaard-genus lower bounds, first homology, and census
screening for rank-versus-genus counterexample candidates."""

__version__ = "0.1.0"

from .cyclotomic import CycNumber, cyclotomic_polynomial
from .recoupling import (admissible, global_dim, qdim, quantum_factorial,
                         quantum_integer, tet_symbol, tet_symbol_f, theta,
                         theta_f, verify_identities)
from .complex3 import (GluingParseError, PachnerError, Triangulation,
                       TriangulationError, format_gluing_file, pachner_23,
                       parse_gluing_file)
from .isosig import IsoSigError, decode_isosig, encode_isosig
from .homology import (H1Summary, IntMatrix, boundary_matrices, format_h1,
                       h1, h1_from_matrices, parse_h1, smith_normal_form)
from .statesum import (SearchLimits, SearchVolumeError, TvResult,
                       tv_anchor_checks, tv_invariant)
from .genus import (GenusBound, ScreenRecord, genus_lower_bound, screen,
                    screen_record, trivial_exclusions, tv_s3)
from .fixtures import fixture, fixture_gluing_text, fixture_isosig, fixture_names

__all__ = [
    "CycNumber", "cyclotomic_polynomial",
    "admissible", "global_dim", "qdim", "quantum_factorial",
    "quantum_integer", "tet_symbol", "tet_symbol_f", "theta", "theta_f",
    "verify_identities",
    "GluingParseError", "PachnerError", "Triangulation",
    "TriangulationError", "format_gluing_file", "pachner_23",
    "parse_gluing_file",
    "IsoSigError", "decode_isosig", "encode_isosig",
    "H1Summary", "IntMatrix", "boundary_matrices", "format_h1", "h1",
    "h1_from_matrices", "parse_h1", "smith_normal_form",
    "SearchLimits", "SearchVolumeError", "TvResult", "tv_anchor_checks",
    "tv_invariant",
    "GenusBound", "ScreenRecord", "genus_lower_bound", "screen",
    "screen_record", "trivial_exclusions", "tv_s3",
    "fixture", "fixture_gluing_text", "fixture_isosig", "fixture_names",
]
