"""Command-line front end.

Subcommands:
  run              convergence study on a mesh family, CSV + gnuplot output
  projector-rates  measured approximation orders of the two cell projectors
  check-laws       structural-inequality and Jacobian checks for a given p
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

# One BLAS thread unless the user sets one: the dense calls act on small
# per-shape and per-block matrices, where a thread pool adds CPU time and no
# speed.  BLAS reads these when numpy first loads, so this precedes it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from . import harness, law as law_mod, mesh as mesh_mod
from .hho_local import cell_quad_exactness
from .polybasis import INF, MAX_RATE_DEGREE, projector_rate_study
from .fields import exp_field
from .quadrature import MAX_EXACTNESS
from .solver import NewtonConfig, continuation_path

FAMILY_CHOICES = ("triangular", "cartesian", "locally-refined", "hexagonal")


def _family_key(name: str) -> str:
    return name.replace("-", "_")


def _out_dir(args) -> Path:
    """The command's --out directory, made before any work; a path where
    none can be made is a usage error."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        args.parser.error(f"--out {out}: {err.strerror}")
    return out


def _cmd_run(args) -> int:
    family = _family_key(args.family)
    levels = range(args.start_level, args.start_level + args.levels)
    try:        # the finest level's mesh, before any level is solved
        mesh_mod.check_budget(family, levels[-1])
    except mesh_mod.MeshResourceError as err:
        args.parser.error(str(err))
    try:        # the length of the p path, likewise
        continuation_path(args.p)
    except ValueError as err:
        args.parser.error(str(err))
    out = _out_dir(args)
    law = law_mod.p_laplacian(args.p)
    config = NewtonConfig(atol=args.newton_tol, condense=args.condense,
                          boost=args.quad_boost)
    study = harness.run_study(family, args.degree, law, args.case, levels,
                              config=config)
    csv_text = harness.study_to_csv(study)
    (out / "study.csv").write_text(csv_text)
    (out / "study.gp").write_text(harness.gnuplot_script("study.csv", study))
    if args.write_meshes:
        for row in study.rows:
            m = mesh_mod.generate(family, row.level)
            (out / f"mesh_level{row.level}.txt").write_text(
                mesh_mod.write_mesh(m))
    sys.stdout.write(csv_text)
    if not study.converged:
        sys.stderr.write("solver diverged; see the last CSV row\n")
        return 1
    return 0


def _cmd_projector_rates(args) -> int:
    field = exp_field(1.0, 1.0)
    out = _out_dir(args)
    lines = ["projector,kind,m,p,slope,expected"]
    ok = True
    for name in ("l2", "elliptic"):
        res = projector_rate_study(field, args.degree, name,
                                   exactness=args.exactness)
        s = res["order"]
        for kind in ("cell", "trace"):
            for (m, p), rec in sorted(res[kind].items()):
                pn = "inf" if p == INF else repr(float(p))
                lines.append(f"{name},{kind},{m},{pn},"
                             f"{rec['slope']!r},{s - m}")
                if abs(rec["slope"] - (s - m)) > args.tol:
                    ok = False
    text = "\n".join(lines) + "\n"
    (out / "projector_rates.csv").write_text(text)
    sys.stdout.write(text)
    if not ok:
        sys.stderr.write(f"some slopes deviate more than {args.tol}\n")
        return 1
    return 0


def _cmd_check_laws(args) -> int:
    law = law_mod.p_laplacian(args.p)
    jac = law_mod.jacobian_check(law, seed=args.seed)
    sys.stdout.write(f"jacobian vs finite differences: {jac:.3e}\n")
    ok = jac <= 1e-5
    for rep in law_mod.check_all_inequalities(law, n=args.n, seed=args.seed):
        verdict = "PASS" if rep.passed else "FAIL"
        sys.stdout.write(f"{rep.ineq_id:10s} p={rep.p}  n={rep.n_samples}  "
                         f"max_violation={rep.max_violation:+.3e}  {verdict}\n")
        ok = ok and rep.passed
    return 0 if ok else 1


def _checked(kind, ok, need: str):
    """argparse type: a `kind` value for which `ok` holds (`need` says what)."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse's "invalid int value" errors
    return parse


_POSITIVE = _checked(int, lambda n: n >= 1, "must be at least 1")
_NONNEGATIVE = _checked(int, lambda n: n >= 0, "must be at least 0")
_TOLERANCE = _checked(float, lambda t: 0 < t < math.inf,
                      "must be finite and exceed 0")
_EXPONENT = _checked(float, lambda p: 1 < p < math.inf, "p must be finite and exceed 1")
_RATE_DEGREE = _checked(
    int, lambda n: 0 <= n <= MAX_RATE_DEGREE,
    f"must be 0 to {MAX_RATE_DEGREE} (above it a smooth field's errors reach "
    "roundoff before two levels are measured)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hho")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="convergence study")
    run.add_argument("--family", choices=FAMILY_CHOICES, default="triangular")
    run.add_argument("--degree", type=_NONNEGATIVE, default=1, metavar="K")
    run.add_argument("--p", type=_EXPONENT, default=2.0)
    run.add_argument("--case", choices=harness.CASES, default="trigonometric")
    run.add_argument("--levels", type=_POSITIVE, default=4,
                     help="number of refinement levels")
    run.add_argument("--start-level", type=_POSITIVE, default=2)
    run.add_argument("--out", default="out")
    run.add_argument("--condense", action="store_true",
                     help="statically condense cell unknowns")
    run.add_argument("--newton-tol", type=_TOLERANCE, default=1e-10)
    run.add_argument("--quad-boost", type=_NONNEGATIVE, default=0,
                     help="extra quadrature exactness")
    run.add_argument("--write-meshes", action="store_true")
    run.set_defaults(func=_cmd_run, parser=run, rule=(
        "2 K + 4 + --quad-boost",
        lambda a: cell_quad_exactness(a.degree, a.quad_boost)))

    pr = sub.add_parser("projector-rates", help="projector approximation orders")
    pr.add_argument("--degree", type=_RATE_DEGREE, default=2, metavar="L")
    pr.add_argument("--out", default="out")
    pr.add_argument("--exactness", type=_NONNEGATIVE, default=30)
    pr.add_argument("--tol", type=_TOLERANCE, default=0.2)
    pr.set_defaults(func=_cmd_projector_rates, parser=pr, rule=(
        "the larger of --exactness and 2 L",
        lambda a: max(a.exactness, 2 * a.degree)))

    cl = sub.add_parser("check-laws", help="flux structure checks")
    cl.add_argument("--p", type=_EXPONENT, required=True)
    cl.add_argument("--n", type=_POSITIVE, default=100_000)
    cl.add_argument("--seed", type=_NONNEGATIVE, default=12345)
    cl.set_defaults(func=_cmd_check_laws)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the exactness of the command's quadrature rules, checked before any
    # work like every other argument
    if "rule" in args:
        what, exactness = args.rule
        if (d := exactness(args)) > MAX_EXACTNESS:
            args.parser.error(f"the quadrature exactness, {what}, must be "
                              f"at most {MAX_EXACTNESS}, got {d}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
