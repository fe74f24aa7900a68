"""consfloor benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload mc_merton --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ./src, and
the CLI runs as the installed `consfloor` script would, in a child
interpreter.  Workloads (see README.md for why each exists):

  mc_merton   simulate() with the affine Merton and proportional-floor
              policies at 100k paths
  mc_optimal  simulate() with table_feedback on the baseline
              wealth-dependent floor, plus long-horizon operations
  solve_cli   solve_dual -> invert -> run_all -> CSV on 11 specs at two
              grid sizes, and `consfloor solve` / `verify` subprocesses

Every round of a workload attempts the same operations.  Each round
also carries a small fixed probe of the layers its workload does not
stress, so every workload reports all end-to-end metrics.  With
--trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics, measured on alternate rounds with spans
around the public calls, and the tracing overhead against the
untraced rounds of the same run.  Every output is checked against
oracles.py or a property the method must have; `correct` is false if
any check fails or any negative control passes.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before numpy loads

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("mc_merton", "mc_optimal", "solve_cli")
# what the `consfloor` console script runs
CLI_MAIN = "import sys; from consfloor.cli import main; sys.exit(main())"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


ARGS = _parse_args() if __name__ == "__main__" else None

sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import consfloor  # noqa: E402

if Path(consfloor.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"consfloor was imported from {consfloor.__file__}, not from {SRC}")

from consfloor import dual_solver, montecarlo, policy, serialize, verification  # noqa: E402
from consfloor.errors import Error as ConsfloorError  # noqa: E402
from consfloor.params import make_spec  # noqa: E402

import oracles as orc  # noqa: E402
from tracing import CHECKS, Tracer, import_times  # noqa: E402

BASE = dict(r=0.03, mu=0.05, sigma=0.2, beta=0.1, p=0.5)
MERTON = orc.Params(**BASE)
PROPORTIONAL = orc.Params(**BASE, k=0.2)
BASELINE = orc.Params(**BASE, k=0.02, l=1.0)
FIXED = orc.Params(**BASE, k=0.0, l=1.0)
# the acceptance (k, beta) sweep: kappa < k, kappa >= r and the open middle
SWEEP = tuple(orc.Params(**dict(BASE, beta=beta), k=k, l=1.0)
              for beta in (0.048, 0.06, 0.1) for k in (0.005, 0.015, 0.028))
GRID_SIZES = (4096, 16384)
SOLVE_SPAN = 1e3
# long-horizon table-policy operations: inputs fixed, not drawn from --seed
LONG_HORIZON = ((105.0, 3), (150.0, 1))


def _name(q: orc.Params) -> str:
    return f"k{q.k:g}-l{q.l:g}-b{q.beta:g}"


def _op_seed(seed: int, rnd: int, j: int) -> int:
    return int(np.random.SeedSequence([seed, rnd, j]).generate_state(1)[0])


def _median(xs):
    return statistics.median(xs) if xs else math.nan


class Bench:
    """Operation runner and record keeper shared by the workloads."""

    def __init__(self, seed: int, work: Path, tracer: Tracer):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []          # failed checks and controls that passed
        self.sims = []              # (round, seconds, path_steps, estimate, std_error)
        self.pipelines = {}         # (spec name, nodes) -> {round: seconds}
        self.cli_times = {"solve": [], "verify": []}   # (round, seconds)
        self.cli_import = []        # import seconds per CLI command, traced rounds
        self.floor_violations = {}  # round -> count
        self.configs = {}
        self.cli_dirs = {}

    # -- bookkeeping ------------------------------------------------------
    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def control(self, rejected: bool, what: str):
        """A negative control: the check applied to a wrong answer must fail."""
        if not rejected:
            self.problems.append("negative control passed: " + what)

    def config_file(self, q: orc.Params) -> Path:
        if q not in self.configs:
            path = self.work / f"{_name(q)}.json"
            path.write_text(json.dumps(q.config()), encoding="utf-8")
            self.configs[q] = path
        return self.configs[q]

    # -- Monte Carlo ------------------------------------------------------
    def simulate(self, rnd, spec, feedback, cfg, counted=True):
        """One simulate() call; returns the report, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = montecarlo.simulate(spec, feedback, cfg)
        except ConsfloorError as exc:
            print(f"simulate x0={cfg.x0} T={cfg.horizon} seed={cfg.seed}: "
                  f"{type(exc).__name__}", file=sys.stderr)
            self.failed += 1
            return None
        seconds = time.perf_counter() - t0
        self.floor_violations[rnd] = self.floor_violations.get(rnd, 0) + report.floor_violations
        if counted:
            self.sims.append((rnd, seconds, report.n_paths * report.n_steps,
                              report.estimate, report.std_error))
        return report

    def affine_sim(self, rnd, q, spec, feedback, x0, dt, horizon, n_paths, seed):
        """Affine policy on GBM wealth, scored against the exact value."""
        cfg = montecarlo.SimConfig(x0=x0, dt=dt, horizon=horizon, n_paths=n_paths, seed=seed)
        rep = self.simulate(rnd, spec, feedback, cfg)
        if rep is None:
            return
        exact = orc.affine_value(q, x0, rep.horizon)
        tol = 4.0 * rep.std_error + orc.affine_allowance(q, x0, dt, rep.horizon)
        what = f"{_name(q)} x0={x0} seed={seed}"
        self.check(abs(rep.estimate - exact) <= tol,
                   f"affine value {what}: |{rep.estimate} - {exact}| > {tol}")
        self.control(abs(rep.estimate - 1.05 * exact) > tol,
                     f"affine value {what} scored against 1.05x the exact value")

    # -- solve, invert, verify, serialize ---------------------------------
    def pipeline(self, rnd, q, spec, n_nodes):
        """solve_dual -> invert -> run_all (timed), then a CSV round trip."""
        self.attempted += 1
        what = f"{_name(q)} n={n_nodes}"
        t0 = time.perf_counter()
        try:
            grid = dual_solver.solve_dual(
                spec, dual_solver.default_config(spec, span=SOLVE_SPAN, n_nodes=n_nodes))
            table = policy.invert(spec, grid)
            report = verification.run_all(spec, grid, table)
        except ConsfloorError as exc:
            print(f"pipeline {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return
        seconds = time.perf_counter() - t0
        self.pipelines.setdefault((_name(q), n_nodes), {})[rnd] = seconds

        failed = [c.name for c in report.checks if not c.passed]
        self.check(not failed, f"run_all {what}: failed {failed}")
        self.check_crossings(q, table.x_star_list, what)
        if q == FIXED:
            self._check_fixed_floor(grid.y, grid.v, table.x_star_list, what)
        self._csv_round_trip(spec, grid, table, what)

    def check_crossings(self, q, x_stars, what):
        expected = orc.expected_crossings(q)
        if expected is not None:
            self.check(len(x_stars) == expected,
                       f"crossings {what}: {len(x_stars)} found, theorem gives {expected}")
        if expected == 1 and q.k > 0.0 and len(x_stars) == 1:
            inside = q.x_e < x_stars[0] < orc.region_bracket(q)
            self.check(inside, f"free boundary {what}: {x_stars[0]} outside "
                               f"({q.x_e}, {orc.region_bracket(q)})")

    def _check_fixed_floor(self, y, v, x_stars, what):
        exact = orc.fixed_floor_dual(FIXED)
        dv = float(np.max(np.abs(v - exact.v(y)) / (1.0 + np.abs(exact.v(y)))))
        self.check(dv <= 1e-4, f"fixed-floor dual {what}: scaled |dv| = {dv:.3g} > 1e-4")
        self.check(len(x_stars) == 1 and abs(x_stars[0] - exact.x_star) <= 1e-2,
                   f"fixed-floor x* {what}: {x_stars} vs {exact.x_star}")
        # controls: the oracle at beta 1% off, and x* 1% off
        near = orc.fixed_floor_dual(orc.Params(**dict(FIXED.config(), beta=1.01 * FIXED.beta)))
        dv_near = float(np.max(np.abs(v - near.v(y)) / (1.0 + np.abs(near.v(y)))))
        self.control(dv_near > 1e-4, f"fixed-floor dual {what} against beta * 1.01")
        if x_stars:
            self.control(abs(x_stars[0] - 1.01 * exact.x_star) > 1e-2,
                         f"fixed-floor x* {what} against 1.01 x*")

    def _csv_round_trip(self, spec, grid, table, what):
        dual_path, policy_path = self.work / "dual.csv", self.work / "policy.csv"
        serialize.write_dual_csv(dual_path, grid)
        serialize.write_policy_csv(policy_path, table)
        cols = serialize.read_dual_csv(dual_path)
        back = serialize.read_policy_csv(policy_path, spec, table.x_star_list)

        def same_bits(a, b):
            a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
            return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

        ok = all(same_bits(cols[n], getattr(grid, n)) for n in ("y", "v", "v_y", "v_yy"))
        ok = ok and all(same_bits(getattr(back, n), getattr(table, n))
                        for n in ("x", "V", "V_x", "V_xx", "c_star", "pi_star"))
        ok = ok and np.array_equal(back.region, table.region)
        self.check(ok, f"CSV round trip {what}: floats not reproduced bit for bit")

    # -- CLI --------------------------------------------------------------
    def run_cli(self, command, config, out_dir, traced):
        argv = [sys.executable] + (["-X", "importtime"] if traced else []) + [
            "-c", CLI_MAIN, command, "--config", str(config), "--out", str(out_dir)]
        if command == "solve":
            # the span README.md gives for verification-grade solves; at the
            # default span of 1e4, `verify` fails sandwich_bounds
            argv += ["--span", repr(SOLVE_SPAN)]
        t0 = time.perf_counter()
        with self.tracer.span(f"cli.{command}"):
            proc = subprocess.run(argv, env=CHILD_ENV, capture_output=True, text=True)
        seconds = time.perf_counter() - t0
        if traced:
            self.cli_import.append(import_times(proc.stderr).cli_s)
        return proc, seconds

    def cli_pair(self, rnd, q, traced):
        """`consfloor solve` then `consfloor verify` on one config."""
        out_dir = self.work / f"cli-{_name(q)}-r{rnd}"
        what = f"{_name(q)} round {rnd}"
        ok = True
        for command in ("solve", "verify"):
            self.attempted += 1
            if not ok:
                self.failed += 1
                continue
            proc, seconds = self.run_cli(command, self.config_file(q), out_dir, traced)
            if proc.returncode != 0:
                print(f"consfloor {command} {what}: exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
                self.failed += 1
                ok = False
                continue
            self.cli_times[command].append((rnd, seconds))
        if ok:
            summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            self.check(report["overall"] is True, f"consfloor verify {what}: overall false")
            self.check_crossings(q, summary["x_star_list"], "CLI " + what)
            if q == FIXED:
                x_star = orc.fixed_floor_dual(FIXED).x_star
                self.check(abs(summary["x_star_list"][0] - x_star) <= 1e-2,
                           f"CLI fixed-floor x* {what}: {summary['x_star_list']} vs {x_star}")
            self.cli_dirs[q] = out_dir
        return ok

    def verify_rejects_perturbed(self, q):
        """`consfloor verify` must exit 4 when one V is 5% off."""
        src = self.cli_dirs.get(q)
        if src is None:
            self.problems.append("no completed solve to perturb")
            return
        bad = self.work / "perturbed"
        shutil.copytree(src, bad)
        lines = (bad / "policy.csv").read_text(encoding="utf-8").splitlines()
        i = len(lines) // 2
        cells = lines[i].split(",")
        cells[1] = repr(1.05 * float(cells[1]))
        lines[i] = ",".join(cells)
        (bad / "policy.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "verify", "--config",
                               str(self.config_file(q)), "--out", str(bad)],
                              env=CHILD_ENV, capture_output=True, text=True)
        self.control(proc.returncode == 4,
                     f"consfloor verify on a 5%-perturbed V exited {proc.returncode}, not 4")

    # -- end-to-end metrics over a set of rounds ---------------------------
    def round_metrics(self, rounds) -> dict:
        sims = [s for s in self.sims if s[0] in rounds]
        per_round = {}
        for rnd, seconds, _, est, se in sims:
            per_round[rnd] = per_round.get(rnd, 0.0) + seconds * (se / (1e-3 * abs(est))) ** 2
        pipes = [_median([t for r, t in by_round.items() if r in rounds])
                 for by_round in self.pipelines.values()]
        pipes = [t for t in pipes if not math.isnan(t)]
        return {
            "path_steps_per_s": (sum(s[2] for s in sims) / sum(s[1] for s in sims)
                                 if sims else math.nan),
            "s_to_rse_1e-3": _median(list(per_round.values())),
            "solve_verify_s": sum(pipes) / len(pipes) if pipes else math.nan,
            "cli_solve_s": _median([t for r, t in self.cli_times["solve"] if r in rounds]),
            "cli_verify_s": _median([t for r, t in self.cli_times["verify"] if r in rounds]),
        }


# --- workloads ----------------------------------------------------------------

class Workload:
    """Set-up in __init__, then identical rounds; probe_solve() covers
    the solver and CLI layers on the Monte-Carlo workloads."""

    main_paths = 10_000

    def __init__(self, bench: Bench):
        self.bench = bench
        self.baseline = make_spec(**BASELINE.config())

    def probe_solve(self, rnd, traced):
        for n in GRID_SIZES:
            self.bench.pipeline(rnd, BASELINE, self.baseline, n)
        for q in (BASELINE, FIXED):
            self.bench.cli_pair(rnd, q, traced)

    def finish(self):
        pass


class McMerton(Workload):
    """Affine fast path: RNG and state update do the work; no table lookup."""

    main_paths = 100_000
    horizon = 2.0

    def __init__(self, bench):
        super().__init__(bench)
        self.cases = [(MERTON, make_spec(**MERTON.config()), montecarlo.merton_feedback),
                      (PROPORTIONAL, make_spec(**PROPORTIONAL.config()),
                       montecarlo.homogeneous_feedback)]

    def simulate(self, rnd):
        for j, (q, spec, make) in enumerate(self.cases):
            self.bench.affine_sim(rnd, q, spec, make(spec), 1.0, 1.0 / 250.0,
                                  self.horizon, self.main_paths,
                                  _op_seed(self.bench.seed, rnd, j))

    def round(self, rnd, traced):
        self.simulate(rnd)
        self.probe_solve(rnd, traced)


class McOptimal(Workload):
    """Table policy: PCHIP lookup does most of the simulator's work.

    The table is solved at span 1e3.  At the default span of 1e4 the
    interpolated consumption dips below the floor just above x*, and
    simulate() raises PolicyInadmissible on some seeds.  The horizon is
    10: at 20, paths from x0 = 105 reach the sliver next to x_e on some
    seeds (see CHANGES.md).
    """

    x0s = (105.0, 150.0, 300.0)
    dt = 1.0 / 50.0
    horizon = 10.0

    def __init__(self, bench):
        super().__init__(bench)
        grid = dual_solver.solve_dual(
            self.baseline, dual_solver.default_config(self.baseline, span=SOLVE_SPAN))
        self.table = policy.invert(self.baseline, grid)
        self.reports = []           # (x0, report, or None if simulate raised)

    def round(self, rnd, traced):
        b = self.bench
        for j, x0 in enumerate(self.x0s):
            cfg = montecarlo.SimConfig(x0=x0, dt=self.dt, horizon=self.horizon,
                                       n_paths=self.main_paths,
                                       seed=_op_seed(b.seed, rnd, j))
            self.reports.append(
                (x0, b.simulate(rnd, self.baseline, montecarlo.table_feedback(self.table), cfg)))
        # these fail today (OutOfRange in the sliver next to x_e); they are
        # left out of the time metrics so that mending them moves no time
        for x0, seed in LONG_HORIZON:
            cfg = montecarlo.SimConfig(x0=x0, dt=self.dt, horizon=100.0, n_paths=2000,
                                       seed=seed)
            self.reports.append((x0, b.simulate(rnd, self.baseline,
                                                montecarlo.table_feedback(self.table), cfg,
                                                counted=False)))
        self.probe_solve(rnd, traced)

    def finish(self):
        b, q = self.bench, BASELINE
        values = {x0: policy.value_at(self.table, x0) for x0 in self.x0s}
        self.check_value_and_boundary(values)
        for x0, rep in self.reports:
            if rep is None:
                continue
            value = values[x0]
            what = f"x0={x0} T={rep.horizon} seed={rep.seed}"
            allowance = orc.affine_allowance(MERTON, 1.0, rep.dt, rep.horizon) / \
                orc.affine_value(MERTON, 1.0, rep.horizon) * value
            tail = math.exp(-q.beta * rep.horizon) * orc.vk(q, rep.max_wealth)
            b.check(rep.estimate <= value + 3.0 * rep.std_error,
                    f"attainment {what}: {rep.estimate} above V={value} + 3 SE")
            b.check(rep.estimate >= value - tail - 3.0 * rep.std_error - allowance,
                    f"attainment {what}: {rep.estimate} below V={value} - tail - 3 SE")
            floor_value = orc.floor_policy_value(q, x0, rep.horizon)
            b.control(rep.estimate > floor_value + 3.0 * rep.std_error,
                      f"attainment {what} scored against the floor policy's value")

    def check_value_and_boundary(self, values):
        b, q = self.bench, BASELINE
        b.check_crossings(q, self.table.x_star_list, "mc_optimal table")
        # the fixed floor's boundary lies below this spec's x_e
        fixed_star = orc.fixed_floor_dual(FIXED).x_star
        b.control(not (q.x_e < fixed_star < orc.region_bracket(q)),
                  "region bracket accepted the fixed floor's x*")
        for x0, value in values.items():
            lo, hi = orc.sandwich(q, x0)
            b.check(lo <= value <= hi, f"sandwich x0={x0}: {value} not in [{lo}, {hi}]")
            # the excess variable's offset V(x_e) added twice, or dropped
            b.control(not lo <= value + q.v_xe <= hi, f"sandwich x0={x0} with V + V(x_e)")
            b.control(not lo <= value - q.v_xe <= hi, f"sandwich x0={x0} with V - V(x_e)")


class SolveCli(Workload):
    """Solver, inversion, verification, serialisation and CLI import."""

    main_paths = 100_000

    def __init__(self, bench):
        super().__init__(bench)
        self.specs = [(q, make_spec(**q.config())) for q in SWEEP + (BASELINE, FIXED)]
        # probe of the simulator: mc_merton's two simulations
        self.simulator_probe = McMerton(bench)

    def round(self, rnd, traced):
        b = self.bench
        self.simulator_probe.simulate(rnd)
        for q in (BASELINE, FIXED, PROPORTIONAL):
            b.cli_pair(rnd, q, traced)
        for n in GRID_SIZES:
            for q, spec in self.specs:
                b.pipeline(rnd, q, spec, n)

    def finish(self):
        self.bench.verify_rejects_perturbed(BASELINE)


WORKLOAD_CLASSES = {"mc_merton": McMerton, "mc_optimal": McOptimal, "solve_cli": SolveCli}


# --- metrics ----------------------------------------------------------------------

def rng_ns_per_draw(n_paths: int, draws: int = 50) -> float:
    """The simulator's Philox float32 draw, timed beside the program."""
    key = int.from_bytes(np.random.SeedSequence(0).generate_state(4, np.uint32).tobytes(),
                         "little")
    z = np.empty(n_paths, dtype=np.float32)
    t0 = time.perf_counter()
    for i in range(draws):
        g = np.random.Generator(np.random.Philox(key=key, counter=i << 128))
        g.standard_normal(dtype=np.float32, out=z)
    return (time.perf_counter() - t0) / (draws * n_paths) * 1e9


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(bench: Bench, tracer: Tracer, workload: Workload, traced_rounds,
                  untraced_rounds) -> dict:
    n = len(traced_rounds)
    total = tracer.total_seconds
    imports = import_times(subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import consfloor"],
        env=CHILD_ENV, capture_output=True, text=True, check=True).stderr)
    sims = [s for s in bench.sims if s[0] in traced_rounds]
    simulate_s = total("montecarlo.simulate")
    query_s = total("policy.query")
    out = {
        "import.consfloor_s": (imports.consfloor_s, "s"),
        "import.scipy_s": (imports.scipy_s, "s"),
    }
    for size in GRID_SIZES:
        out[f"dual_solver.solve_dual_s.{size}"] = (total("dual_solver.solve_dual", size) / n, "s")
    out.update({
        "dual_solver.find_free_boundary_s": (total("dual_solver.find_free_boundary") / n, "s"),
        "dual_solver.nodes_trimmed": (tracer.counts["nodes_trimmed"] / n, "count"),
        "policy.invert_s": (total("policy.invert") / n, "s"),
        "policy.calls": (tracer.counts["policy.calls"] / n, "count"),
        "policy.query_ns": (query_s / tracer.counts["policy.points"] * 1e9
                            if tracer.counts["policy.points"] else 0.0, "ns"),
        "policy.busy_share": (query_s / simulate_s if simulate_s else 0.0, "share"),
        "verification.run_all_s": (total("verification.run_all") / n, "s"),
    })
    for check in CHECKS:
        out[f"verification.{check}_s"] = (total(f"verification.{check}") / n, "s")
    for fn in ("write_dual_csv", "write_policy_csv", "read_dual_csv", "read_policy_csv"):
        out[f"serialize.{fn}_s"] = (total(f"serialize.{fn}") / n, "s")
    out["serialize.bytes_written"] = (tracer.counts["bytes_written"] / n, "bytes")
    out.update({
        "montecarlo.simulate_s": (simulate_s / n, "s"),
        "montecarlo.ns_per_path_step": (sum(s[1] for s in sims) / sum(s[2] for s in sims) * 1e9,
                                        "ns"),
        "montecarlo.floor_violations": (
            sum(bench.floor_violations.get(r, 0) for r in traced_rounds) / n, "count"),
        "montecarlo.rng_ns_per_draw": (rng_ns_per_draw(workload.main_paths), "ns"),
        "cli.solve_s": (_median([t for r, t in bench.cli_times["solve"] if r in traced_rounds]),
                        "s"),
        "cli.verify_s": (_median([t for r, t in bench.cli_times["verify"]
                                  if r in traced_rounds]), "s"),
        "cli.import_s": (_median(bench.cli_import), "s"),
    })
    traced = bench.round_metrics(traced_rounds)
    plain = bench.round_metrics(untraced_rounds)
    # the share by which tracing slowed each round metric; positive is slower
    for name in traced:
        ratio = plain[name] / traced[name] if name == "path_steps_per_s" else \
            traced[name] / plain[name]
        out[f"trace.overhead.{name}"] = (ratio - 1.0, "share")
    return out


E2E_UNITS = {"setup_s": "s", "path_steps_per_s": "path-steps/s", "s_to_rse_1e-3": "s",
             "solve_verify_s": "s", "cli_solve_s": "s", "cli_verify_s": "s",
             "peak_rss_mib": "MiB"}


def main(args) -> int:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        bench = Bench(args.seed, work, tracer)
        workload = WORKLOAD_CLASSES[args.workload](bench)
        setup_s = time.perf_counter() - _T0

        rounds = 0
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            if traced:
                tracer.start(rounds)
            else:
                tracer.stop()
            workload.round(rounds, traced)
            rounds += 1
            if time.perf_counter() - start >= args.seconds and (
                    not args.trace or rounds % 2 == 0):
                break
        tracer.stop()
        workload.finish()

        if args.trace:
            traced_rounds = set(range(1, rounds, 2))
            metrics = layer_metrics(bench, tracer, workload, traced_rounds,
                                    set(range(0, rounds, 2)))
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            values = dict(setup_s=setup_s, **bench.round_metrics(set(range(rounds))),
                          peak_rss_mib=peak_rss_mib())
            metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": None if math.isnan(value) else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(ARGS))
