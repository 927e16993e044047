"""The package namespace and what a fresh process loads."""

import json
import os
import subprocess
import sys

import pytest

import tvgenus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter loads to run statement."""
    code = ("import json, sys; before = set(sys.modules); "
            f"{statement}; print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


# what an exact compute from a signature does not run: rational arithmetic,
# the fixtures, the gluing-file reader and the float search
NOT_RUN_BY_EXACT_COMPUTE = {"fractions", "decimal", "tvgenus.fixtures",
                            "tvgenus.gluing", "tvgenus.kernel"}


def _cli_run(*argv: str) -> str:
    """A statement that runs tvgenus.cli.main(argv), its output discarded,
    and asserts that it succeeds."""
    return ("import io, tvgenus.cli; keep, sys.stdout = sys.stdout, "
            f"io.StringIO(); rc = tvgenus.cli.main({list(argv)!r}); "
            "sys.stdout = keep; assert rc == 0")


def test_cli_import_loads_only_what_compute_runs():
    loaded = _loaded_by("import tvgenus.cli")
    assert "tvgenus.statesum" in loaded
    assert not loaded & {"dataclasses", "csv", "tvgenus.verify",
                         *NOT_RUN_BY_EXACT_COMPUTE}


def test_float_screen_loads_no_exact_arithmetic():
    # only an exact carrier builds CycNumbers, so a float screen loads
    # neither their module nor fractions; an exact compute loads their
    # module, and it too leaves fractions unloaded
    exact = {"tvgenus.cyclotomic", "fractions"}
    screened = _loaded_by(
        "import tvgenus.cli; from tvgenus.fixtures import fixture_isosig; "
        "rec, = tvgenus.cli.screen([('t3', fixture_isosig('t3'))], 5); "
        "assert rec.tv_value > 0 and rec.h1")
    assert "tvgenus.statesum" in screened and not screened & exact
    computed = _loaded_by(
        "import tvgenus.cli; from tvgenus.fixtures import fixture; "
        "rec = tvgenus.cli.screen_record('s3', fixture('s3'), 5, "
        "mode='exact'); assert rec.tv_exact")
    assert "tvgenus.cyclotomic" in computed and "fractions" not in computed


@pytest.mark.parametrize("r", [5, 6])
def test_exact_compute_loads_only_what_it_runs(r):
    # r=5 splits off TV_3 and scales by it; r=6 runs one search
    loaded = _loaded_by(_cli_run("compute", "--isosig", "gvLQQedfedffrwawrhh",
                                 "--r", str(r), "--mode", "exact"))
    assert {"tvgenus.cyclotomic", "tvgenus.statesum"} <= loaded
    assert not loaded & NOT_RUN_BY_EXACT_COMPUTE


def test_each_input_loads_the_module_that_reads_it(tmp_path):
    fixture = _loaded_by(_cli_run("compute", "--fixture", "s3", "--mode",
                                  "exact"))
    # the fixture s3 is a gluing table, read by the gluing module
    assert {"tvgenus.fixtures", "tvgenus.gluing"} <= fixture
    assert not fixture & {"fractions", "decimal", "tvgenus.kernel"}
    path = tmp_path / "s3.tri"
    path.write_text("tets 2\n0: 0 1023 0 1023 1 1203 1 0231\n"
                    "1: 0 2013 0 0312 1 0132 1 0132\n")
    read = _loaded_by(_cli_run("compute", "--input", str(path)))
    assert {"tvgenus.gluing", "tvgenus.kernel"} <= read
    assert not read & {"tvgenus.fixtures", "tvgenus.cyclotomic", "fractions"}


def test_exact_annotations_resolve_without_a_module_import():
    # statesum and recoupling name the exact type as tvgenus.CycNumber, so
    # float processes never import it and get_type_hints still resolves it
    hints = _loaded_by(
        "import typing, tvgenus.statesum as s, tvgenus.recoupling as r; "
        "assert 'tvgenus.cyclotomic' not in sys.modules; "
        "from tvgenus.cyclotomic import CycNumber; "
        "assert typing.get_type_hints(s.TvResult)['value_exact'] "
        "== CycNumber | None; "
        "assert typing.get_type_hints(r.tet_symbol)['return'] is CycNumber")
    assert "tvgenus.cyclotomic" in hints


def test_package_import_loads_no_submodule():
    loaded = _loaded_by("import tvgenus")
    assert not [m for m in loaded if m.startswith("tvgenus.")]


def test_every_public_name_is_its_home_object():
    for name in tvgenus.__all__:
        obj = getattr(tvgenus, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("tvgenus."), name
    assert set(tvgenus.__all__) <= set(dir(tvgenus))


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="no_such_name"):
        tvgenus.no_such_name
    from tvgenus import genus, verify
    assert genus.screen is tvgenus.screen
    assert verify.verify_identities is tvgenus.verify_identities


def test_records_are_immutable_values():
    from tvgenus import (GenusBound, H1Summary, ScreenRecord, SearchLimits,
                         TvResult)
    records = [GenusBound(2.0, 5, 1.5, 3), H1Summary(1, (2,)),
               ScreenRecord("m", None, 2.0, 3, H1Summary(0, ()), False),
               SearchLimits(), TvResult(5, "float", value_float=2.0)]
    for rec in records:
        assert rec == type(rec)(*rec)
        with pytest.raises(AttributeError):
            rec.r = 7
    assert H1Summary(0, ()) != H1Summary(1, ())
    with pytest.raises(ValueError, match="negative free rank"):
        H1Summary(-1, ())


def test_zarith_names_the_exact_carrier():
    from tvgenus.cyclotomic import CycNumber
    from tvgenus.zarith import ZElt
    assert ZElt is CycNumber
