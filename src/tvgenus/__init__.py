"""Turaev-Viro invariants of closed 3-manifold triangulations at
q = e^(i*pi/r), Heegaard-genus lower bounds, first homology, and census
screening for rank-versus-genus counterexample candidates.  The public
names are imported from their modules (_HOMES) on first use, so a process
that imports one module, as every tvgenus command does, loads only that."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "cyclotomic": ("CycNumber", "cyclotomic_polynomial"),
    "recoupling": ("admissible", "global_dim", "qdim", "quantum_factorial",
                   "quantum_integer", "tet_symbol", "tet_symbol_f", "theta",
                   "theta_f"),
    "verify": ("verify_identities", "tv_anchor_checks"),
    "complex3": ("GluingParseError", "PachnerError", "Triangulation",
                 "TriangulationError", "format_gluing_file", "pachner_23",
                 "parse_gluing_file"),
    "isosig": ("IsoSigError", "decode_isosig", "encode_isosig"),
    "homology": ("H1Summary", "IntMatrix", "boundary_matrices", "format_h1",
                 "h1", "h1_from_matrices", "parse_h1", "smith_normal_form"),
    "statesum": ("SearchLimits", "SearchVolumeError", "TvResult",
                 "tv_invariant"),
    "genus": ("GenusBound", "ScreenRecord", "genus_lower_bound", "screen",
              "screen_record", "trivial_exclusions", "tv_s3"),
    "fixtures": ("fixture", "fixture_gluing_text", "fixture_isosig",
                 "fixture_names"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
