"""Command-line front end.

Subcommands: classify, solve, verify, simulate.  Inputs come from a JSON
config (keys r, mu, sigma, beta, p, k, l, optional x0); outputs are
written into a run directory whose manifest.json records every command
that touched it.  Numeric outputs are deterministic for fixed inputs and
seeds; only the manifest carries timestamps.  Each command imports
only what it runs: montecarlo for simulate, verification for verify.

Exit codes: 0 success, 2 input or feasibility error, 3 solver
non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

from . import __version__, dual_solver, policy, serialize
from .errors import Error, NoConvergence
from .params import ProblemSpec, check_initial_wealth, load_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _update_manifest(out_dir: Path, command: str, config_path: Path, outputs: list[str]):
    """Append this run to the directory's single manifest."""
    manifest_path = out_dir / "manifest.json"
    runs = []
    if manifest_path.exists():
        try:
            runs = json.loads(manifest_path.read_text(encoding="utf-8")).get("runs", [])
        except (json.JSONDecodeError, OSError):
            runs = []
    runs.append({
        "command": command,
        "config_digest": serialize.sha256_file(config_path),
        "tool_version": __version__,
        "created_utc": _utc_now(),
        "outputs": outputs,
    })
    serialize.write_json(manifest_path, {"runs": runs})


def _spec_obj(spec: ProblemSpec) -> dict:
    obj = {
        "case": spec.case.value,
        "kappa": spec.kappa,
        "merton_fraction": spec.merton_fraction,
    }
    if math.isfinite(spec.x_e):
        obj.update(x_e=spec.x_e, c_e=spec.c_e, v_xe=spec.v_xe)
    else:
        obj.update(x_e=None, c_e=None, v_xe=None)
    return obj


def cmd_classify(args) -> int:
    spec, x0 = load_config(args.config)
    obj = _spec_obj(spec)
    if x0 is not None:
        obj["x0"] = x0
        try:
            verdict = check_initial_wealth(spec, x0)
            obj["x0_feasible"] = True
            obj["x0_marginal"] = verdict.marginal
            if verdict.note:
                obj["x0_note"] = verdict.note
        except Error:
            obj["x0_feasible"] = False
    sys.stdout.write(serialize.json_dumps(obj))
    return EXIT_OK


def _solve_to_grid(spec: ProblemSpec, args):
    cfg = dual_solver.default_config(spec, span=args.span, n_nodes=args.nodes)
    return dual_solver.solve_dual(spec, cfg), cfg


def cmd_solve(args) -> int:
    spec, _ = load_config(args.config)
    grid, cfg = _solve_to_grid(spec, args)
    table = policy.invert(spec, grid)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each file's bytes are digested as soon as written and then dropped,
    # so both files are never held at once
    digests = {
        "dual.csv": serialize.sha256_bytes(
            serialize.write_dual_csv(out_dir / "dual.csv", grid)),
        "policy.csv": serialize.sha256_bytes(
            serialize.write_policy_csv(out_dir / "policy.csv", table)),
    }
    summary = _spec_obj(spec)
    summary.update({
        "x_star_list": list(table.x_star_list),
        "residual_inf": grid.residual_inf,
        "n_nodes": grid.n_nodes,
        "y_min": cfg.y_min,
        "y_max": cfg.y_max,
        "digests": digests,
    })
    serialize.write_json(out_dir / "summary.json", summary)
    _update_manifest(out_dir, "solve", Path(args.config),
                     ["summary.json", "dual.csv", "policy.csv"])
    sys.stdout.write(serialize.json_dumps(
        {"out": str(out_dir), "x_star_list": list(table.x_star_list),
         "residual_inf": grid.residual_inf}))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verification

    spec, _ = load_config(args.config)
    out_dir = Path(args.out)
    summary_path = out_dir / "summary.json"
    if not summary_path.exists():
        raise Error(f"{out_dir} does not contain a solve (missing summary.json)")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    cols = serialize.read_dual_csv(out_dir / "dual.csv")
    grid = dual_solver.DualGrid(y=cols["y"], v=cols["v"], v_y=cols["v_y"],
                                v_yy=cols["v_yy"], residual_inf=0.0)
    table = serialize.read_policy_csv(out_dir / "policy.csv", spec,
                                      summary.get("x_star_list", ()))
    report = verification.run_all(spec, grid, table)
    serialize.write_json(out_dir / "report.json", report.to_obj())
    _update_manifest(out_dir, "verify", Path(args.config), ["report.json"])
    sys.stdout.write(serialize.json_dumps(report.to_obj()))
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def _build_policy(spec: ProblemSpec, name: str, x0: float, args):
    from . import montecarlo

    if name == "floor":
        return montecarlo.floor_feedback(spec)
    if name == "merton":
        return montecarlo.merton_feedback(spec)
    # optimal policy
    if check_initial_wealth(spec, x0).marginal:
        # unique admissible strategy at marginal wealth
        return montecarlo.floor_feedback(spec)
    if spec.l == 0.0:
        return montecarlo.homogeneous_feedback(spec)
    grid, _ = _solve_to_grid(spec, args)
    return montecarlo.table_feedback(policy.invert(spec, grid))


def cmd_simulate(args) -> int:
    from . import montecarlo

    spec, config_x0 = load_config(args.config)
    x0 = args.x0 if args.x0 is not None else config_x0
    if x0 is None:
        raise Error("initial wealth required: pass --x0 or put x0 in the config")
    feedback = _build_policy(spec, args.policy, x0, args)
    cfg = montecarlo.SimConfig(x0=x0, dt=args.dt, horizon=args.horizon,
                               n_paths=args.paths, seed=args.seed)
    report = montecarlo.simulate(spec, feedback, cfg)
    obj = {"policy": args.policy}
    obj.update(report.to_obj())
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        serialize.write_json(out_dir / "sim.json", obj)
        _update_manifest(out_dir, "simulate", Path(args.config), ["sim.json"])
    sys.stdout.write(serialize.json_dumps(obj))
    return EXIT_OK


def _add_grid_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--span", type=float, default=1e4,
                        help="dual grid half-width as a factor of y_ref (default 1e4)")
    parser.add_argument("--nodes", type=int, default=4096, help="grid size (default 4096)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consfloor",
        description="Optimal lifetime consumption and investment under a "
                    "wealth-dependent consumption floor c >= k x + l.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a problem config")
    p_classify.add_argument("--config", required=True)
    p_classify.set_defaults(func=cmd_classify)

    p_solve = sub.add_parser("solve", help="solve and write dual/policy tables")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    _add_grid_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the check suite on a prior solve")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo a feedback policy")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--policy", choices=("optimal", "floor", "merton"),
                       default="optimal")
    p_sim.add_argument("--x0", type=float, default=None)
    p_sim.add_argument("--dt", type=float, default=1.0 / 250.0)
    p_sim.add_argument("--horizon", type=float, default=100.0)
    p_sim.add_argument("--paths", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    _add_grid_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
