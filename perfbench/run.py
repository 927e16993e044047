"""Offline benchmark of the tvgenus pipeline.

    python3 perfbench/run.py --workload census-screen --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload exact-cold --smoke

Run from the repository root; the program is imported from ./src.  A run
sets up, then repeats whole passes ("rounds") over the workload's fixed
record list as long as one more round fits in --seconds, checks every
output, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 rounds alternate untraced and
traced, and the metrics are the per-layer ones of the traced rounds.
--smoke runs one round over a handful of records, for the benchmark's own
tests.  See perfbench/README.md for the workloads and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
POOL = os.path.join(HERE, "data", "census.txt")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from qzeta import (Cyc, b1_mod2, global_dim, min_generators,  # noqa: E402
                   parse_poly, sig_size)

SETUP_REPEATS = 7
CAL_ITERATIONS = 20000      # about 10 ms of the calibration loop, unloaded
CAL_MODULUS = 3 ** 400 + 7
CAL_NOMINAL_S = 0.01        # scaled times are seconds at this loop time
CHILD_LIMIT_S = 170         # no child process may outlive this
WALK_VARIANTS = 8
GUARD_STATES = 1e9          # the program's default search-volume cap
CENSUS_MAX_TETS = 11
CENSUS_VARIANTS = 6         # walks per start in one census-screen round
DEEP_VARIANTS = 3           # walks per start in one deep-search round
ZERO_NOTE_WORD = "zero"
REL_TOL = 1e-9


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Ref:
    label: str
    tets: int
    verts: int
    h1: str
    genus: int | None
    tv5: Cyc
    sig: str


@dataclass(frozen=True)
class Record:
    name: str
    start: str
    sig: str
    tets: int
    r: int


def read_pool(path: str = POOL):
    """Reference rows by start, and walk signatures by (start, variant, T)."""
    refs, walks = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# ref |"):
                f = [x.strip() for x in line.split("|")[1:]]
                kv = dict(x.split("=", 1) for x in f[1:])
                refs[f[0]] = Ref(f[0], int(kv["tets"]), int(kv["verts"]),
                                 kv["h1"], None if kv["genus"] == "-"
                                 else int(kv["genus"]),
                                 parse_poly(5, kv["tv5"]), "")
            elif line and not line.startswith("#"):
                name, sig = (x.strip() for x in line.split(";"))
                parts = name.split(".")
                if len(parts) == 1:
                    refs[name] = replace(refs[name], sig=sig)
                else:
                    walks[(parts[0], int(parts[1][1:]), int(parts[2][1:]))] = sig
    return refs, walks


class Inputs:
    def __init__(self, workload: str, seed: int):
        self.refs, self.walks = read_pool()
        self.rng = random.Random(f"{workload}:{seed}")
        # one walk variant per start, drawn in a fixed start order
        self.variant = {s: self.rng.randrange(WALK_VARIANTS)
                        for s in sorted(self.refs)}

    def start(self, label: str, r: int) -> Record:
        ref = self.refs[label]
        return Record(label, label, ref.sig, ref.tets, r)

    def walk(self, label: str, tets: int, r: int, variant: int | None = None) -> Record:
        k = self.variant[label] if variant is None else variant
        return Record(f"{label}.v{k}.t{tets}", label,
                      self.walks[(label, k, tets)], tets, r)

    def has_known_fault(self, label: str) -> bool:
        """Walks from this start meet F2 (exact TV 0 at r=5) or F1 (the
        guard's (r-1)^E estimate, E = V + T, passes the cap by 11 tets)."""
        ref = self.refs[label]
        return (ref.tv5.is_zero()
                or 4.0 ** (ref.verts + CENSUS_MAX_TETS) > GUARD_STATES)


# --------------------------------------------------------------------------
# checks shared by the workloads
# --------------------------------------------------------------------------

def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def common_checks(inputs: Inputs, rec: Record, tv: float, genus_lb, h1: str,
                  flagged: bool, notes, exact: Cyc | None = None) -> str | None:
    """Properties every reported record must have; returns the first
    violated one, or None."""
    ref = inputs.refs[rec.start]
    if h1 != ref.h1:
        return f"H_1 {h1} differs from the start's {ref.h1}"
    if exact is not None:
        zero = exact.is_zero()
    elif rec.r == 5:
        zero = ref.tv5.is_zero()
    else:
        zero = False
    has_zero_note = any(ZERO_NOTE_WORD in n for n in notes)
    if zero:
        if tv < 0:
            return "zero noise: exact TV 0 reported negative"
        if tv != 0 or not has_zero_note:
            return "zero noise: exact TV 0 reported as a nonzero value"
        if flagged:
            return "flagged with TV 0"
        return None
    if tv <= 0:
        return f"nonzero TV reported as {tv!r}"
    if has_zero_note:
        return "zero note on a nonzero TV"
    if genus_lb is None or genus_lb > rec.tets + 1:
        return f"genus_lb {genus_lb} exceeds T+1 = {rec.tets + 1}"
    if ref.genus is not None and genus_lb > ref.genus:
        return f"genus_lb {genus_lb} exceeds the known genus {ref.genus}"
    if flagged != (genus_lb > min_generators(h1)):
        return "flag does not match genus_lb > min generators"
    return None


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class CensusScreen:
    """`tvgenus screen --r 5 --format csv` over a seeded walk census, one
    census file (and one screen call) per start."""

    name = "census-screen"
    R = 5

    def __init__(self, inputs: Inputs, seed: int, smoke: bool):
        self.inputs = inputs
        chunks = []
        for label in sorted(inputs.refs):
            ref = inputs.refs[label]
            if inputs.has_known_fault(label):
                variants = range(CENSUS_VARIANTS)
            else:
                variants = sorted(inputs.rng.sample(range(WALK_VARIANTS),
                                                    CENSUS_VARIANTS))
            chunks.append([inputs.start(label, self.R)] + [
                inputs.walk(label, t, self.R, k) for k in variants
                for t in range(ref.tets + 1, CENSUS_MAX_TETS + 1)])
        if smoke:
            chunks = [[inputs.start(x, self.R) for x in ("s3", "rp3", "t3")] + [
                inputs.walk(x, t, self.R, k)
                for x, t, k in (("s3", 5, 0), ("s3_double", 11, 0), ("l31", 4, 2))]]
        self.chunks = []
        os.makedirs(OUT, exist_ok=True)
        for i, recs in enumerate(chunks):
            kind = "smoke" if smoke else "seed"
            path = os.path.join(OUT, f"census-screen-{kind}{seed}-{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{r.name} ; {r.sig}\n" for r in recs)
            self.chunks.append((path, recs))
        self.records = [r for _, recs in self.chunks for r in recs]
        from tvgenus import cli
        self.cli = cli

    def run_round(self, clock: "UnitClock", trace_child: bool):
        return [clock.measure(self._screen, path) for path, _ in self.chunks], []

    def _screen(self, path: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(["screen", "--census", path, "--r", str(self.R),
                                "--format", "csv", "--threads", "1"])
        return rc, out.getvalue()

    def check(self, outputs):
        verdicts = []
        for (_, recs), (rc, text) in zip(self.chunks, outputs):
            rows = list(csv.DictReader(io.StringIO(text)))
            if rc != 0 or [r["name"] for r in rows] != [r.name for r in recs]:
                return None
            for rec, row in zip(recs, rows):
                if row["isosig"] != rec.sig or sig_size(row["isosig"]) != rec.tets:
                    verdicts.append("row does not echo its signature")
                elif not row["tv_float"]:
                    verdicts.append(_failure_kind(row["notes"]))
                else:
                    verdicts.append(self._row(rec, row))
        return verdicts

    def _row(self, rec: Record, row) -> str | None:
        ref = self.inputs.refs[rec.start]
        tv = float(row["tv_float"])
        if int(row["min_gens"]) != min_generators(ref.h1):
            return "min_gens column disagrees with H_1"
        if not ref.tv5.is_zero() and not rel_close(tv, ref.tv5.real()):
            return f"TV {tv!r} differs from the start's {ref.tv5.real()!r}"
        notes = row["notes"].split(" | ") if row["notes"] else []
        return common_checks(self.inputs, rec, tv, int(row["genus_lb"]),
                             row["h1"], row["flagged"] == "1", notes)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failure_kind(notes: str) -> str:
    if "estimated search volume" in notes:
        return "guard refusal (F1): " + notes
    return "record failed: " + notes


class ExactCold:
    """`tvgenus compute --mode exact --format json`, one fresh process per
    record, so every record fills its symbol tables from nothing."""

    name = "exact-cold"

    def __init__(self, inputs: Inputs, seed: int, smoke: bool):
        self.inputs = inputs
        s, w = inputs.start, inputs.walk
        if smoke:
            recs = [s("s3", 5), s("s2xs1", 5), s("rp3", 5), s("t3", 5),
                    w("s3", 4, 6), s("rp3", 6), s("l31", 6)]
        else:
            recs = [s(x, r) for x in ("s3", "s2xs1", "t3") for r in (5, 6, 7)]
            recs += [s("rp3", 6), s("l31", 6), s("q8", 6), s("rp3_l31", 6)]
            recs += [w("s3", 4, 7), w("s2xs1", 4, 7), w("q8", 4, 6),
                     w("l31", 5, 6), w("rp3", 5, 6), w("t3", 8, 5)]
        self.records = recs
        self.peak_kb = 0

    def run_round(self, clock: "UnitClock", trace_child: bool):
        outputs = [clock.measure(self._compute, rec, trace_child)
                   for rec in self.records]
        self.peak_kb = max([self.peak_kb] + [res.get("peak_rss_kb", 0)
                                             for res in outputs])
        return outputs, [res["trace"] for res in outputs if res.get("trace")]

    def _compute(self, rec: Record, trace_child: bool) -> dict:
        argv = [sys.executable, os.path.join(HERE, "child.py")]
        argv += ["--trace"] if trace_child else []
        argv += ["compute", "--isosig", rec.sig, "--r", str(rec.r), "--mode",
                 "exact", "--format", "json", "--force", "--threads", "1"]
        p = run_child(argv, capture_output=True, text=True)
        try:
            return json.loads(p.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return {"rc": None, "out": p.stderr[-300:], "trace": None}

    def check(self, outputs):
        parsed = []
        for rec, res in zip(self.records, outputs):
            try:
                item = json.loads(res["out"])["records"][0]
                parsed.append((item, parse_poly(rec.r, item["tv_exact"])))
            except (ValueError, KeyError, TypeError, IndexError):
                parsed.append((f"no exact value: exit {res['rc']} "
                               f"{res['out'][:200]}", None))
        values = {(rec.start, rec.r, rec.name): exact
                  for rec, (_, exact) in zip(self.records, parsed)}
        verdicts = []
        for rec, (item, exact) in zip(self.records, parsed):
            if exact is None:
                verdicts.append(item)
                continue
            why = common_checks(self.inputs, rec, item["tv_float"],
                                item["genus_lb"], item["h1"], item["flagged"],
                                item["notes"], exact=exact)
            if why is None and not rel_close(item["tv_float"], exact.real()):
                why = "float value disagrees with the exact value"
            verdicts.append(why or self._value(rec, exact, values))
        return verdicts

    def _value(self, rec: Record, v: Cyc, values) -> str | None:
        r = rec.r
        d = global_dim(r)
        one = Cyc.const(r, 1)
        if rec.start == "s3" and v * d != one:
            return "TV(S^3) != 1/D"
        if rec.start == "s2xs1" and v != one:
            return "TV(S^2 x S^1) != 1"
        if rec.start == "t3" and v != Cyc.const(r, (r - 1) ** 2):
            return "TV(T^3) != (r-1)^2"
        if r == 5 and v != self.inputs.refs[rec.start].tv5:
            return "TV at r=5 differs from the reference"
        base = values.get((rec.start, r, rec.start))
        if base is not None and v != base:
            return "TV changed along the walk"
        if rec.start == "rp3_l31":
            a, b = values.get(("rp3", r, "rp3")), values.get(("l31", r, "l31"))
            if a is None or b is None or v != d * a * b:
                return "TV(rp3#l31) != D TV(rp3) TV(l31)"
        return None

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


class DeepSearch:
    """Float state sums on the largest fixtures and their walks, forced past
    the guard, at levels where every value is nonzero; plus the r=3 cocycle
    count of every manifold in the list."""

    name = "deep-search"

    def __init__(self, inputs: Inputs, seed: int, smoke: bool):
        self.inputs = inputs
        s, w = inputs.start, inputs.walk
        if smoke:
            recs = [s("t3", 8), w("t3", 7, 8), s("rp3", 6), s("l31", 6),
                    s("rp3_l31", 6)]
        else:
            recs = [s("t3", 8), s("t3", 9), s("rp3_rp3", 6), s("rp3_l31", 6),
                    s("rp3", 6), s("l31", 6)]
            for label, sizes, r in (("rp3_rp3", (11, 12), 6),
                                    ("rp3_l31", (11, 12), 6), ("t3", (9, 11), 8)):
                for k in sorted(inputs.rng.sample(range(WALK_VARIANTS),
                                                  DEEP_VARIANTS)):
                    recs += [w(label, t, r, k) for t in sizes]
        manifolds = {rec.name: rec for rec in recs}
        self.records = recs + [Record(rec.name, rec.start, rec.sig, rec.tets, 3)
                               for rec in manifolds.values()]
        from tvgenus import format_h1, genus, isosig, statesum
        self.genus, self.isosig, self.statesum = genus, isosig, statesum
        self.format_h1 = format_h1
        self.limits = statesum.SearchLimits(force=True)

    def run_round(self, clock: "UnitClock", trace_child: bool):
        return [clock.measure(self._record, rec) for rec in self.records], []

    def _record(self, rec: Record):
        try:
            tri = self.isosig.decode_isosig(rec.sig, name=rec.name)
            if rec.r == 3:
                return self.statesum.tv_invariant(tri, 3, limits=self.limits)
            return self.genus.screen_record(rec.name, tri, rec.r,
                                            limits=self.limits, isosig=rec.sig)
        except Exception as exc:  # a failing record must not stop the run
            return exc

    def check(self, outputs):
        values = {(rec.start, rec.r, rec.name): out.tv_value
                  for rec, out in zip(self.records, outputs)
                  if rec.r != 3 and not isinstance(out, Exception)}
        verdicts = []
        for rec, out in zip(self.records, outputs):
            if isinstance(out, Exception):
                verdicts.append(f"raised {type(out).__name__}: {out}")
            elif rec.r == 3:
                ref = self.inputs.refs[rec.start]
                want = 2 ** (b1_mod2(ref.h1) + ref.verts - 1)
                verdicts.append(None if out.states_admissible == want else
                                f"r=3 admissible {out.states_admissible} != {want}")
            else:
                why = common_checks(self.inputs, rec, out.tv_value,
                                    out.genus_lb, self.format_h1(out.h1),
                                    out.flagged, out.notes)
                verdicts.append(why or self._value(rec, out.tv_value, values))
        return verdicts

    def _value(self, rec: Record, v: float, values) -> str | None:
        r = rec.r
        if rec.start == "t3" and not rel_close(v, (r - 1) ** 2):
            return "TV(T^3) != (r-1)^2"
        base = values.get((rec.start, r, rec.start))
        if base is not None and not rel_close(v, base):
            return "TV changed along the walk"
        if rec.start in ("rp3_rp3", "rp3_l31") and rec.name == rec.start:
            a = values.get(("rp3", r, "rp3"))
            b = values.get((rec.start[4:], r, rec.start[4:]))
            d = global_dim(r).real()
            if a is None or b is None or not rel_close(v, d * a * b):
                return f"TV({rec.start}) != D TV(rp3) TV({rec.start[4:]})"
        return None

    peak_rss_mb = CensusScreen.peak_rss_mb


WORKLOADS = {w.name: w for w in (CensusScreen, ExactCold, DeepSearch)}


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def import_program():
    if not os.path.isfile(os.path.join(SRC, "tvgenus", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import tvgenus
    if not os.path.abspath(tvgenus.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: tvgenus was not imported from ./src")


def setup(workload: str, seed: int, smoke: bool):
    import_program()
    return WORKLOADS[workload](Inputs(workload, seed), seed, smoke)


def run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run with the time limit kept by SIGALRM: a timeout
    argument makes the wait poll, which adds up to 50 ms to a child."""
    signal.alarm(CHILD_LIMIT_S)
    try:
        return subprocess.run(argv, cwd=ROOT, **kwargs)
    finally:
        signal.alarm(0)


def _child_timeout(signum, frame):
    raise TimeoutError(f"a child process ran longer than {CHILD_LIMIT_S} s")


def calibrate() -> float:
    """Seconds for a fixed pure-Python mix of the work the program does:
    tuple-keyed dict inserts and lookups, small allocations, float and
    big-integer arithmetic."""
    t0 = time.perf_counter()
    table, acc, x = {}, 0.0, CAL_MODULUS - 2
    for i in range(CAL_ITERATIONS):
        key = ((i * 7919) % 4099, i & 7, (i * 31) % 97)
        row = table.get(key)
        if row is None:
            row = table[key] = [i * 0.5, i + 1.0]
        acc += row[0] * 1.0001
        if i % 8 == 0:
            x = x * 1234567891011 % CAL_MODULUS
    return time.perf_counter() - t0


class UnitClock:
    """Times each unit of work between two runs of the calibration loop.

    The machine's speed drifts by up to 1.7x over minutes (load from other
    tenants); the calibration loop slows by the same factor, so a unit's
    time scaled by CAL_NOMINAL_S / (mean of the two calibrations) is steady:
    the seconds the unit takes where the loop takes CAL_NOMINAL_S."""

    def __init__(self):
        self.last_cal = calibrate()
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def measure(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t = time.perf_counter() - t0
        cal = calibrate()
        self.raw.append(t)
        self.scaled.append(t * CAL_NOMINAL_S * 2 / (self.last_cal + cal))
        self.last_cal = cal
        return out


def setup_seconds(clock: UnitClock, workload: str, seed: int) -> None:
    """Time one fresh process that starts, imports the program and loads
    the workload's inputs, then exits."""
    clock.measure(run_child, [sys.executable, os.path.abspath(__file__),
                              "--workload", workload, "--seed", str(seed),
                              "--setup-only"], check=True)


def median_pass(rounds: list[list[float]]) -> float:
    """Sum over the timed units of a round (each record, or each screen
    call) of the unit's median scaled time over the run's rounds."""
    return sum(statistics.median(unit) for unit in zip(*rounds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round over a handful of records")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed, False)
        return 0
    signal.signal(signal.SIGALRM, _child_timeout)
    # one CPU for the run and the processes it starts, so that the
    # calibration loop and the timed work always share one core's load
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = setup(args.workload, args.seed, args.smoke)
    n = len(wl.records)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced, summaries = [], [], []
    setups = UnitClock()
    correct, failed, first = True, 0, None
    t_start = time.perf_counter()
    while True:
        # set-up probes are spread over the run, between rounds
        if tracer is None and len(setups.scaled) < SETUP_REPEATS:
            setup_seconds(setups, args.workload, args.seed)
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace and wl.name != "exact-cold":
            tracer.install()
        try:
            clock = UnitClock()
            output, child_traces = wl.run_round(clock, use_trace)
        finally:
            if tracer is not None:
                tracer.uninstall()
        (traced if use_trace else plain).append(clock)
        summaries += child_traces
        verdicts = wl.check(output)
        if verdicts is None:  # the report itself is malformed
            correct, verdicts = False, ["malformed report"] * n
        failed += sum(v is not None for v in verdicts)
        if first is None:
            first = verdicts
        elif verdicts != first:  # the same inputs must give the same outcome
            correct = False
        # stop before a round that would end after --seconds
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / (len(plain) + len(traced))
        done = args.smoke or elapsed + per_round > args.seconds
        if done and (tracer is None or traced):
            break
    rounds = len(plain) + len(traced)
    while tracer is None and len(setups.scaled) < SETUP_REPEATS:
        setup_seconds(setups, args.workload, args.seed)

    for why, count in Counter(v for v in first if v is not None).items():
        print(f"{wl.name}: {count} failed per round: {why}", file=sys.stderr)
    wall_s = median_pass([c.scaled for c in plain])
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups.scaled), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "records_per_s": {"value": n / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        }
    else:
        from tracing import merge, per_layer_metrics
        summary = merge(summaries + [tracer.summary()])
        metrics = per_layer_metrics(summary, len(traced),
                                    median_pass([c.scaled for c in traced])
                                    - wall_s)
    result = {"correct": correct, "attempted": n * rounds, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    kind = "trace" if tracer is not None else "result"
    with open(os.path.join(OUT, f"{kind}-{wl.name}-{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result,
                   "round_raw_s": [sum(c.raw) for c in plain + traced],
                   "round_scaled_s": [sum(c.scaled) for c in plain + traced],
                   "setup_raw_s": setups.raw,
                   "records": [f"{r.name} r={r.r}" for r in wl.records],
                   "failed_per_round": {r.name: v for r, v in
                                        zip(wl.records, first) if v}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
