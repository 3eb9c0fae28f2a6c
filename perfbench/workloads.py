"""The benchmark's workloads: fixtures, one timed pass each, output checks.

Every call into fdbt goes through a module attribute looked up at call
time (``interval.interval_reduce``, never a name imported from a module),
so the tracer's wrappers see the benchmark's own calls.

A workload object is made once per process and then driven pass by pass:
``prepare(k)`` (untimed), ``run(k)`` (the timed calls), ``check(k, out)``
(untimed, returns an Outcome). Passes of the ladder workloads are
identical; random-batch pass k draws its own models from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field

from fdbt import baselines, cli, harness, interval, sysmodel

# The paper's ladder (ex3) has 201 states; the interval and shift methods
# keep 51 and the baselines 181. One ex3 call takes 30-45 s on a 2-core
# machine, too long to repeat inside one benchmark run, so the workloads
# use a 101-state ladder and scale both orders by 101/201.
PAPER_LADDER_ORDER = 201
LADDER_ORDER = 101
BAND = (-0.5, 0.5)
BAND_GRID_POINTS = 801  # harness.LADDER_GRID_POINTS, the ex3 case 2 band grid

RANDOM_STATES = 4
RANDOM_MODELS = 4  # models per random-batch pass

# A bound holds when peak <= bound + SLACK * (1 + bound), the rule of
# harness.verify_bound. A purely relative slack is too tight for tiny tight
# bounds: fibt at r = n - 1 attains its bound 2*sigma_n exactly, and on
# random-batch seed 1000 the measured peak exceeds a 2.49e-8 bound by 1e-15.
SLACK = 1e-8
# Reference values are compared at the test suite's tolerances: rel 1e-9 as
# for recorded bundle values, with the 1e-10 absolute floor of its response
# checks. Some ladder values (DC errors of 1e-16..1e-11) are rounding noise
# that moves with the BLAS thread count; the floor keeps them comparable.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-10

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def scaled_order(ladder_order: int, paper_order: int) -> int:
    """An order of the paper's 201-state scenario, scaled to ladder_order."""
    return max(1, round(ladder_order * paper_order / PAPER_LADDER_ORDER))


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    bytes_written: int = 0

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(a, b) -> bool:
    """Relative closeness; None (a NaN in JSON) matches only None."""
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)


def mismatch(where: str, got, want) -> str:
    """The first difference of a nested value from its reference, or ""."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: keys differ from the reference"
        for key in sorted(want):
            found = mismatch(f"{where}.{key}", got[key], want[key])
            if found:
                return found
        return ""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs from the reference"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(f"{where}[{i}]", g, w)
            if found:
                return found
        return ""
    if isinstance(want, bool) or isinstance(want, str):
        return "" if got == want else f"{where}: {got!r} != reference {want!r}"
    if want is None or isinstance(want, (int, float)):
        return "" if _close(got, want) else f"{where}: {got!r} != reference {want!r}"
    return f"{where}: unexpected reference type {type(want).__name__}"


def snapshot(directory: str) -> dict:
    """File name -> bytes for every file the CLI wrote."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _bound_holds(peak, bound) -> bool:
    return (
        peak is not None
        and bound is not None
        and math.isfinite(peak)
        and peak <= bound + SLACK * (1.0 + bound)
    )


class LadderBand:
    """ex3 case 2: int-fdbt with its in-band bound, checked, then fgbt."""

    name = "ladder-band"

    def __init__(self, work_dir: str, seed: int, ladder_order: int = LADDER_ORDER):
        self.order = ladder_order
        self.r = scaled_order(ladder_order, 51)
        self.system = harness.generate_ladder(ladder_order)
        self.config = interval.IntervalConfig(*BAND)
        self.grid = sysmodel.FrequencyGrid.linear(*BAND, BAND_GRID_POINTS)
        self.reference = load_reference()[self.name].get(str(ladder_order))

    def describe(self, passes: int) -> dict:
        return {"ladder_order": self.order, "r": self.r, "band": list(BAND)}

    def prepare(self, k: int) -> None:
        pass

    def run(self, k: int) -> dict:
        out = {}
        try:
            out["int"] = interval.interval_reduce(
                self.system, self.config, self.r, with_ef_bound=False
            )
            out["record"] = harness.verify_bound(self.system, out["int"], self.grid, "interval")
        except Exception as exc:  # counted by check(); the run goes on
            out["error"] = _error_text(exc)
        try:
            out["fgbt"] = baselines.fgbt_reduce(self.system, self.r, *BAND)
        except Exception as exc:
            out["fgbt_error"] = _error_text(exc)
        return out

    def summary(self, out: dict) -> dict:
        """The values compared with the reference."""
        res, rec, fgbt = out["int"], out["record"], out["fgbt"]
        return {
            "interval_bound": float(res.bounds["interval"]),
            "int_sigma_head": [float(s) for s in res.sigma[:8]],
            "int_stable": bool(res.stable),
            "int_peak": float(rec.peak),
            "fgbt_sigma_head": [float(s) for s in fgbt.sigma[:8]],
            "fgbt_stable": bool(fgbt.stable),
        }

    def check(self, k: int, out: dict) -> Outcome:
        outcome = Outcome(attempted=3)
        if "error" in out:
            # interval_reduce or verify_bound raised; count both as failed
            outcome.fail(f"int-fdbt: {out['error']}", 2 if "int" not in out else 1)
        if "fgbt_error" in out:
            outcome.fail(f"fgbt: {out['fgbt_error']}")
        if outcome.failed:
            return outcome
        res, rec = out["int"], out["record"]
        stable = bool(res.stable) and sysmodel.is_hurwitz(res.reduced).stable
        if not stable:
            outcome.fail("int-fdbt reduced model is not Hurwitz")
        if not (rec.passed and _bound_holds(rec.peak, rec.bound)):
            outcome.fail(f"in-band bound {rec.bound!r} below measured peak {rec.peak!r}")
        if self.reference is None:
            outcome.fail(f"no reference recorded for ladder order {self.order}")
        else:
            found = mismatch(self.name, self.summary(out), self.reference)
            if found:
                outcome.fail(found)
        return outcome


class _CliWorkload:
    """A workload that is one `fdbt` CLI invocation per pass."""

    def __init__(self, work_dir: str):
        self.out_dir = os.path.join(work_dir, "out")

    def prepare(self, k: int) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def argv(self, k: int) -> list:
        raise NotImplementedError

    def run(self, k: int) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(self.argv(k))
            except Exception as exc:  # counted by check(); the run goes on
                code = _error_text(exc)
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def files(self) -> dict:
        return snapshot(self.out_dir) if os.path.isdir(self.out_dir) else {}


class LadderDc(_CliWorkload):
    """ex3 case 1 through the CLI: fibt/gspa against sf-fdbt near w = 0."""

    name = "ladder-dc"

    def __init__(self, work_dir: str, seed: int, ladder_order: int = LADDER_ORDER):
        super().__init__(work_dir)
        self.order = ladder_order
        self.reference = load_reference()[self.name].get(str(ladder_order))

    def describe(self, passes: int) -> dict:
        return {
            "ladder_order": self.order,
            "baseline_order": scaled_order(self.order, harness.LADDER_BASELINE_ORDER),
            "sf_order": scaled_order(self.order, harness.LADDER_SF_ORDER),
        }

    def argv(self, k: int) -> list:
        return ["bench", "example", "ex3_case1", "--out", self.out_dir]

    def run(self, k: int) -> dict:
        """The ex3 scenario with the ladder and its orders scaled down."""
        names = ("LADDER_ORDER", "LADDER_BASELINE_ORDER", "LADDER_SF_ORDER")
        saved = {name: getattr(harness, name) for name in names}
        harness.LADDER_ORDER = self.order
        harness.LADDER_BASELINE_ORDER = scaled_order(self.order, saved["LADDER_BASELINE_ORDER"])
        harness.LADDER_SF_ORDER = scaled_order(self.order, saved["LADDER_SF_ORDER"])
        try:
            return super().run(k)
        finally:
            for name, value in saved.items():
                setattr(harness, name, value)

    def summary(self, files: dict) -> dict:
        summary = json.loads(files["ex3_case1__summary.json"])
        records = json.loads(files["ex3_case1__records.json"])
        return {
            "files": sorted(files),
            "assertions": summary["assertions"],
            "values": summary["values"],
            "notes": summary["notes"],
            "records": [
                {key: rec[key] for key in ("method", "order", "bound_key", "bound", "peak", "passed")}
                for rec in records
            ],
        }

    def check(self, k: int, out: dict) -> Outcome:
        outcome = Outcome(attempted=1)
        if out["code"] != 0:
            outcome.fail(f"fdbt bench example exited with {out['code']!r}: {out['stderr'][-500:]}")
            return outcome
        files = self.files()
        outcome.bytes_written = sum(len(data) for data in files.values())
        problems = []
        try:
            payload = json.loads(out["stdout"])
            summary = self.summary(files)
        except (KeyError, ValueError) as exc:
            outcome.fail(f"unreadable CLI output: {_error_text(exc)}")
            return outcome
        if not all(payload["assertions"].values()):
            problems.append(f"assertions failed: {payload['assertions']}")
        for rec in summary["records"]:
            if not (rec["passed"] and _bound_holds(rec["peak"], rec["bound"])):
                problems.append(f"{rec['method']} {rec['bound_key']} bound below its peak")
        if self.reference is None:
            problems.append(f"no reference recorded for ladder order {self.order}")
        else:
            problems.append(mismatch(self.name, summary, self.reference))
        problems = [p for p in problems if p]
        if problems:
            outcome.fail("; ".join(problems))
        return outcome


_EXPECTED_NOTES = ("fdbt: ", "fgbt: ", "fibt peak degenerate")


def record_problem(rec: dict) -> str:
    """Why one experiment record is wrong, or "" when it holds.

    A method that raised a typed FdbtError leaves NaN fields and a note;
    that is data. Everything else must be present and every reported bound
    must cover its measured in-band peak.
    """
    note = rec["note"]
    parts = [part for part in note.split("; ") if part]
    if any(not part.startswith(_EXPECTED_NOTES) for part in parts):
        return f"unexpected note {note!r}"
    if not _bound_holds(rec["peak_fibt"], rec["bound_fibt"]):
        return f"fibt bound {rec['bound_fibt']!r} below peak {rec['peak_fibt']!r}"
    if "fdbt: " not in note and not _bound_holds(rec["peak_fdbt"], rec["bound_fdbt"]):
        return f"int-fdbt bound {rec['bound_fdbt']!r} below peak {rec['peak_fdbt']!r}"
    if "fgbt: " not in note and rec["peak_fgbt"] is None:
        return "fgbt peak missing without a note"
    return ""


class RandomBatch(_CliWorkload):
    """The randomized comparison on small models through the CLI."""

    name = "random-batch"

    def __init__(self, work_dir: str, seed: int, models: int = RANDOM_MODELS):
        super().__init__(work_dir)
        self.seed = seed
        self.models = models
        self.cells = len(harness.EXPERIMENT_HALF_WIDTHS) * len(harness.EXPERIMENT_ORDERS)

    def describe(self, passes: int) -> dict:
        return {
            "states": RANDOM_STATES,
            "models_per_pass": self.models,
            "pass_seeds": [self.pass_seed(k) for k in range(passes)],
        }

    def pass_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def argv(self, k: int) -> list:
        return [
            "bench", "random",
            "--n", str(RANDOM_STATES),
            "--seed", str(self.pass_seed(k)),
            "--count", str(self.models),
            "--out", self.out_dir,
        ]

    def check(self, k: int, out: dict) -> Outcome:
        outcome = Outcome(attempted=self.models * self.cells)
        if out["code"] != 0:
            outcome.fail(
                f"fdbt bench random exited with {out['code']!r}: {out['stderr'][-500:]}",
                outcome.attempted,
            )
            return outcome
        files = self.files()
        outcome.bytes_written = sum(len(data) for data in files.values())
        name = f"experiment_n{RANDOM_STATES}_seed{self.pass_seed(k)}_count{self.models}.json"
        try:
            report = json.loads(files[name])
            payload = json.loads(out["stdout"])
        except (KeyError, ValueError) as exc:
            outcome.fail(f"unreadable report: {_error_text(exc)}", outcome.attempted)
            return outcome
        records = report["records"]
        if len(records) != outcome.attempted or payload["seed"] != self.pass_seed(k):
            outcome.fail(
                f"report has {len(records)} records for seed {payload['seed']}",
                outcome.attempted,
            )
            return outcome
        for rec in records:
            problem = record_problem(rec)
            if problem:
                outcome.fail(f"model {rec['model_index']} wl={rec['half_width']} r={rec['order']}: {problem}")
        return outcome


WORKLOADS = {cls.name: cls for cls in (LadderBand, LadderDc, RandomBatch)}


def warm_up() -> None:
    """One tiny int-fdbt and fgbt reduction, so lazy scipy/LAPACK loading
    (sqrtm, logm, Lyapunov, SVD) is paid in set-up, not in the first pass."""
    tiny = harness.generate_ladder(5)
    interval.interval_reduce(tiny, interval.IntervalConfig(*BAND), 2)
    baselines.fgbt_reduce(tiny, 2, *BAND)
