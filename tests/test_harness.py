import importlib.util
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hho.fields import ScalarField, affine_field, sine_product_field
from hho.harness import (CASES, ErrorBundle, StudyResult, StudyRow,
                         compute_errors, gnuplot_script, manufactured_solution,
                         manufactured_source, run_study, study_to_csv)
from hho.hho_local import build_local_operators, local_norm, stabilization
from hho.law import applicable_inequalities, p_laplacian
from hho.mesh import FAMILIES, generate, read_mesh, write_mesh
from hho.solver import (DofMap, SolveReport, StageReport, build_packs,
                        interpolate_global, newton_solve)

PI = math.pi


def test_manufactured_solutions():
    u = manufactured_solution("exponential")
    pts = np.array([[0.0, 0.0], [1.0, 0.5]])
    assert u(pts)[0] == pytest.approx(1.0)
    assert u(pts)[1] == pytest.approx(math.exp(1.0 + PI / 2), rel=1e-14)
    v = manufactured_solution("trigonometric")
    assert v(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        manufactured_solution("polynomial")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("p", [1.75, 2.0, 3.0])
def test_source_matches_symbolic_divergence(case, p):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    if case == "exponential":
        u_sym = sympy.exp(x + sympy.pi * y)
    else:
        u_sym = sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y)
    gx, gy = sympy.diff(u_sym, x), sympy.diff(u_sym, y)
    norm2 = gx ** 2 + gy ** 2
    ax = norm2 ** (sympy.Rational(1, 1) * (p - 2) / 2) * gx
    ay = norm2 ** (sympy.Rational(1, 1) * (p - 2) / 2) * gy
    f_sym = -(sympy.diff(ax, x) + sympy.diff(ay, y))
    f_num = sympy.lambdify((x, y), sympy.simplify(f_sym), "numpy")

    law = p_laplacian(p)
    f = manufactured_source(manufactured_solution(case), law)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.95, size=(200, 2))
    want = f_num(pts[:, 0], pts[:, 1])
    got = f(pts)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_source_regularizes_critical_points():
    # grad u vanishes at (1/2, 1/2); for p < 2 the raw Jacobian blows up
    # there, so the node is evaluated with the floored Jacobian and counted
    law = p_laplacian(1.75)
    u = manufactured_solution("trigonometric")
    f = manufactured_source(u, law)
    pts = np.array([[0.5, 0.5], [0.25, 0.4]])
    vals = f(pts)
    assert np.all(np.isfinite(vals))
    assert f.singular_hits == 1
    floor = 1e-13
    want = floor ** (1.75 - 2.0) * 2.0 * PI ** 2
    assert vals[0] == pytest.approx(want, rel=1e-4)
    f2 = manufactured_source(u, law)
    f2(pts[1:])
    assert f2.singular_hits == 0


def test_zero_error_when_solution_in_space():
    # harmonic affine solution, k = 1: the method reproduces it exactly
    mesh = generate("hexagonal", 2)
    law = p_laplacian(2.0)
    u_aff = affine_field(0.3, 2.0, -1.0)
    U, rep, dm, packs = newton_solve(mesh, 1, law, dirichlet=u_aff)
    eb = compute_errors(dm, packs, law, U, u_aff)
    assert eb.err_1ph <= 1e-11
    assert eb.err_pot <= 1e-11
    assert eb.err_l2 <= 1e-12


def test_errors_of_interpolate_vanish_in_first_slot():
    # err_1ph measures the distance to the interpolate, so U = I_h u gives 0
    mesh = generate("cartesian", 2)
    law = p_laplacian(2.0)
    u = manufactured_solution("trigonometric")
    packs = build_packs(mesh, 1)
    dm = DofMap(mesh, 1)
    U = interpolate_global(dm, packs, u)
    eb = compute_errors(dm, packs, law, U, u)
    assert eb.err_1ph <= 1e-13
    assert eb.err_pot > 1e-4     # interpolation error persists


def _toy_study():
    rows = []
    errs = [(1.0e-1, 2.0e-1, 5.0e-2), (2.5e-2, 5.0e-2, 6.25e-3)]
    for i, (a, b, c) in enumerate(errs):
        rep = SolveReport(stages=[StageReport(2.0, 1, 1e-12, 1e-12, True)],
                          converged=True, newton_iters=1, wall_time=0.0,
                          ndofs=10)
        rows.append(StudyRow(level=i + 1, h=0.5 ** (i + 1), ndofs=10 * (i + 1),
                             errors=ErrorBundle(a, b, c), newton_iters=1,
                             report=rep))
    return StudyResult(family="cartesian", k=0, law=p_laplacian(2.0),
                       case="trigonometric", rows=rows)


def test_eoc_values():
    st = _toy_study()
    assert st.eoc("err_1ph") == [None, pytest.approx(2.0, abs=1e-12)]
    assert st.eoc("err_pot") == [None, pytest.approx(2.0, abs=1e-12)]
    assert st.eoc("err_l2") == [None, pytest.approx(3.0, abs=1e-12)]


def test_eoc_undefined_on_zero_error():
    st = _toy_study()
    st.rows[1].errors.err_1ph = 0.0
    assert st.eoc("err_1ph") == [None, None]
    # and the CSV cell stays empty instead of raising
    line = study_to_csv(st).strip().split("\n")[3]
    assert line.split(",")[6] == ""


def test_csv_layout_and_determinism():
    st = _toy_study()
    text = study_to_csv(st)
    assert text == study_to_csv(st)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# family=cartesian k=0 p=2.0")
    assert lines[1] == ("level,h,ndofs,err_1ph,err_pot,err_l2,"
                        "eoc_1ph,eoc_pot,eoc_l2,newton_iters")
    first = lines[2].split(",")
    assert first[0] == "1"
    assert first[6] == first[7] == first[8] == ""   # no EOC on first row
    second = lines[3].split(",")
    assert float(second[6]) == pytest.approx(2.0)
    # repr round-trip: parsing a float cell and repr-ing it is the identity
    assert repr(float(second[3])) == second[3]


def test_gnuplot_script_mentions_csv():
    st = _toy_study()
    script = gnuplot_script("study.csv", st)
    assert "study.csv" in script
    assert "logscale" in script


def test_run_study_small_end_to_end():
    law = p_laplacian(2.0)
    st = run_study("triangular", 0, law, "trigonometric", [2, 3])
    assert st.converged
    assert len(st.rows) == 2
    assert st.rows[0].h == pytest.approx(math.sqrt(2.0) / 4.0)
    assert st.rows[1].errors.err_1ph < st.rows[0].errors.err_1ph
    eoc = st.eoc("err_1ph")[1]
    assert 0.7 <= eoc <= 1.3
    # the potential error may not decay slower than the primary error
    # plus the h^{k+1} interpolation contribution
    for row in st.rows:
        assert row.errors.err_pot <= 10.0 * (row.errors.err_1ph + row.h)


@pytest.mark.parametrize("family", ["locally_refined", "hexagonal"])
@pytest.mark.parametrize("k", [0, 1])
def test_linear_rates_on_general_meshes(family, k):
    # k+1 rate in the discrete energy norm holds on the non-simplicial
    # families too (hanging nodes, hexagons), not just on the pair the
    # convergence gate checks
    st = run_study(family, k, p_laplacian(2.0), "trigonometric", range(2, 6))
    assert st.converged
    assert st.eoc("err_1ph")[-1] == pytest.approx(k + 1, abs=0.2)


def test_cli_run_and_outputs(tmp_path, capsys):
    from hho.cli import main
    out = tmp_path / "study"
    rc = main(["run", "--family", "cartesian", "--degree", "0", "--p", "2",
               "--case", "trigonometric", "--levels", "2", "--out", str(out),
               "--write-meshes"])
    assert rc == 0
    csv_text = (out / "study.csv").read_text()
    assert csv_text.count("\n") == 4   # header comment + columns + 2 rows
    assert capsys.readouterr().out == csv_text
    assert (out / "study.gp").exists()
    assert (out / "mesh_level2.txt").read_text().startswith("polymesh 2d v1")


@pytest.mark.parametrize("args", [
    ["--levels", "0"], ["--start-level", "0"], ["--degree", "-1"],
    ["--p", "1"], ["--newton-tol", "inf"], ["--newton-tol", "nan"],
    ["--newton-tol", "0"], ["--newton-tol", "-1"], ["--quad-boost", "-5"],
    ["--quad-boost", "-20"], ["--degree", "29"],
    ["--degree", "1", "--quad-boost", "55"], ["--p", "65.5"], ["--p", "1e9"]])
def test_cli_run_rejects_bad_arguments(tmp_path, capsys, args):
    # a usage error before any work: no empty study reported as converged,
    # no traceback
    from hho.cli import main
    out = tmp_path / "study"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(out)] + args)
    assert exc.value.code == 2
    assert "usage: hho run" in capsys.readouterr().err
    assert not out.exists()


def _no_study(*args, **kwargs):
    raise AssertionError("a study ran")


@pytest.mark.parametrize("args", [
    ["--start-level", "11", "--levels", "1"],
    ["--start-level", "8", "--levels", "3"],
    ["--family", "hexagonal", "--start-level", "9", "--levels", "3"]])
def test_cli_run_checks_the_finest_mesh_before_any_work(
        tmp_path, monkeypatch, capsys, args):
    # a finest level over the element budget is a usage error before any
    # level is solved, not a traceback after the coarser ones
    from hho import harness
    from hho.cli import main
    monkeypatch.setattr(harness, "run_study", _no_study)
    out = tmp_path / "study"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(out)] + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: hho run" in err and "elements (budget" in err
    assert not out.exists()


def test_cli_run_takes_a_p_up_to_the_continuation_cap(tmp_path, monkeypatch):
    # p = 65 is 64 continuation stages, the cap, and reaches the study;
    # check-laws takes any finite p > 1
    from hho import harness
    from hho.cli import build_parser, main
    class Reached(Exception):
        pass

    def study(family, k, law, *args, **kwargs):
        raise Reached(law.p)
    monkeypatch.setattr(harness, "run_study", study)
    with pytest.raises(Reached) as exc:
        main(["run", "--p", "65", "--out", str(tmp_path / "study")])
    assert exc.value.args == (65.0,)
    assert build_parser().parse_args(["check-laws", "--p", "1e9"]).p == 1e9


def test_cli_run_rejects_an_out_that_is_a_file(tmp_path, monkeypatch,
                                               capsys):
    # the output directory is made before the study, not after it
    from hho import harness
    from hho.cli import main
    monkeypatch.setattr(harness, "run_study", _no_study)
    out = tmp_path / "study"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--levels", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: hho run" in err and f"--out {out}" in err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command, args", [
    ("projector-rates", ["--degree", "-1"]),
    ("projector-rates", ["--exactness", "-1"]),
    ("projector-rates", ["--tol", "nan"]),
    ("check-laws", ["--p", "3", "--n", "0"]),
    ("check-laws", ["--p", "3", "--n", "-5"]),
    ("check-laws", ["--p", "3", "--seed", "-1"]),
    ("projector-rates", ["--degree", "31"]),
    ("projector-rates", ["--exactness", "61"]),
    ("projector-rates", ["--degree", "7"])])
def test_cli_other_commands_reject_bad_arguments(tmp_path, monkeypatch,
                                                 capsys, command, args):
    # the value's own usage error, not a traceback or a verdict on NaN
    from hho.cli import main
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command] + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: hho {command}" in err and "must be" in err
    assert not any(tmp_path.iterdir())


def test_cli_run_reports_divergence(tmp_path, capsys):
    # p = 8 from the linear initial guess does not converge at level 2: the
    # study stops there with exit 1 and keeps the failing row
    from hho.cli import main
    out = tmp_path / "study"
    rc = main(["run", "--p", "8", "--case", "exponential", "--levels", "1",
               "--start-level", "2", "--out", str(out)])
    assert rc == 1
    rows = (out / "study.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[2].startswith("2,")
    assert "solver diverged" in capsys.readouterr().err


def test_cli_projector_rates(tmp_path, capsys):
    from hho.cli import main
    out = tmp_path / "rates"
    # modest degree keeps this fast; both projectors and both norm kinds
    # must land in the CSV with slopes near the expected order
    rc = main(["projector-rates", "--degree", "1", "--out", str(out),
               "--exactness", "20"])
    assert rc == 0
    text = (out / "projector_rates.csv").read_text()
    assert capsys.readouterr().out == text
    lines = text.strip().split("\n")
    assert lines[0] == "projector,kind,m,p,slope,expected"
    body = [ln.split(",") for ln in lines[1:]]
    assert {row[0] for row in body} == {"l2", "elliptic"}
    assert {row[1] for row in body} == {"cell", "trace"}
    for row in body:
        assert abs(float(row[4]) - float(row[5])) <= 0.2
    # a second run writes the same bytes
    again = tmp_path / "again"
    assert main(["projector-rates", "--degree", "1", "--out", str(again),
                 "--exactness", "20"]) == 0
    csv = "projector_rates.csv"
    assert (again / csv).read_bytes() == (out / csv).read_bytes()


def test_cli_projector_rates_at_degree_5(tmp_path, capsys):
    # its default levels stop before the errors reach roundoff (h = 2^-4)
    from hho.cli import main
    out = tmp_path / "rates"
    assert main(["projector-rates", "--degree", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    body = [ln.split(",") for ln in
            (out / "projector_rates.csv").read_text().splitlines()[1:]]
    assert len(body) == 40
    assert all(abs(float(row[4]) - float(row[5])) <= 0.2 for row in body)


def test_cli_projector_rates_at_degree_0(tmp_path, capsys):
    # s = 1 bounds the cell orders m <= 1 and the trace order m = 0 only
    from hho.cli import main
    out = tmp_path / "rates"
    assert main(["projector-rates", "--degree", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    body = [ln.split(",") for ln in
            (out / "projector_rates.csv").read_text().splitlines()[1:]]
    assert len(body) == 24
    assert {(row[1], row[2]) for row in body} == {
        ("cell", "0"), ("cell", "1"), ("trace", "0")}
    assert all(abs(float(row[4]) - float(row[5])) <= 0.2 for row in body)


def test_cli_check_laws(capsys):
    from hho.cli import main
    assert main(["check-laws", "--p", "1.75", "--n", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("jacobian vs finite differences:")
    assert [ln.split()[0] for ln in lines[1:]] == applicable_inequalities(1.75)
    assert all(ln.endswith("PASS") for ln in lines[1:])


def test_tracer_names_resolve():
    # perfbench's tracer swaps library attributes by name, some of them kept
    # only for it: each must still name a callable
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TRACED:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)


@pytest.mark.parametrize("user, pinned", [(None, "1"), ("3", "3")])
def test_cli_pins_blas_to_one_thread_unless_set(user, pinned):
    # in a fresh interpreter, as `hho` starts: importing the CLI sets the
    # thread counts before numpy loads, and keeps a user's own value
    import hho
    from hho.cli import BLAS_THREAD_VARS
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if user is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, user))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(hho.__file__).parents[1]), env.get("PYTHONPATH")]))
    code = ("import os, hho.cli; "
            f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == [pinned] * 3


def test_solve_path_leaves_the_optimizer_unloaded():
    # in a fresh interpreter: neither the CLI and a whole study nor the
    # inequality calibration loads scipy.optimize
    import hho
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(hho.__file__).parents[1]), env.get("PYTHONPATH")]))
    code = "\n".join([
        "import sys",
        "import hho.cli",
        "from hho import harness, law",
        "lw = law.p_laplacian(1.75)",
        "study = harness.run_study('triangular', 1, lw, 'trigonometric', [2])",
        "assert study.rows[0].report.converged",
        "print('scipy.optimize' in sys.modules)",
        "law.check_inequality(lw, 'alip_p2', n=200)",
        "print('scipy.optimize' in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["False", "False"]


def test_cli_run_writes_the_same_csv_in_fresh_processes(tmp_path):
    # the condensed hexagonal study at levels 2-3, whose later Newton
    # matrices LAPACK factors on a band, with the CLI's one BLAS thread
    import hho
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(hho.__file__).parents[1]), env.get("PYTHONPATH")]))
    csvs = []
    for run in ("a", "b"):
        out = tmp_path / run
        subprocess.run([sys.executable, "-m", "hho.cli", "run", "--family",
                        "hexagonal", "--degree", "1", "--p", "3", "--condense",
                        "--levels", "2", "--out", str(out)], env=env,
                       check=True, capture_output=True, timeout=300)
        csvs.append((out / "study.csv").read_bytes())
    assert csvs[0] == csvs[1] and len(csvs[0].splitlines()) == 4


def test_cli_condensed_run_matches_full(tmp_path, capsys):
    from hho.cli import main
    a = tmp_path / "a"
    b = tmp_path / "b"
    base = ["run", "--family", "triangular", "--degree", "1", "--p", "3",
            "--case", "trigonometric", "--levels", "2"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b), "--condense"]) == 0
    text_a = (a / "study.csv").read_text()
    text_b = (b / "study.csv").read_text()
    assert capsys.readouterr().out == text_a + text_b
    rows_a = text_a.strip().split("\n")[2:]
    rows_b = text_b.strip().split("\n")[2:]
    for ra, rb in zip(rows_a, rows_b):
        ia = [float(v) for v in ra.split(",")[3:6]]
        ib = [float(v) for v in rb.split(",")[3:6]]
        assert ia == pytest.approx(ib, rel=1e-8)


def _errors_by_element(dm, packs, p, U, exact):
    """Reference: the three error norms summed one element at a time."""
    UI = interpolate_global(dm, packs, exact)
    acc1 = accp = accl = 0.0
    els = dm.mesh.elements
    for ei, ops in enumerate(packs):
        gd = dm.element_dofs(ei)
        acc1 += local_norm(ops, (U - UI)[gd], p) ** p
        Ue = U[gd]
        w = ops.rule.weights
        # the element's nodes: those of the built element, moved
        x = ops.rule.points + (els[ei].centroid
                               - els[ops.elements[0]].centroid)
        gdiff = ops.pgrad_q @ Ue - exact.gradient(x)
        accp += float(w @ np.hypot(gdiff[:, 0], gdiff[:, 1]) ** p)
        accp += stabilization(ops, Ue, Ue, p)
        vdiff = ops.pval_q @ Ue - exact(x)
        accl += float(w @ vdiff ** 2)
    return acc1 ** (1.0 / p), accp ** (1.0 / p), math.sqrt(accl)


def _check_errors_match_element_loop(mesh, k):
    packs = build_packs(mesh, k)
    dm = DofMap(mesh, k)
    u = manufactured_solution("trigonometric")
    rng = np.random.default_rng(k)
    U = interpolate_global(dm, packs, u) + 1e-2 * rng.standard_normal(dm.ndofs)
    for p in (1.75, 2.0, 3.0):
        eb = compute_errors(dm, packs, p_laplacian(p), U, u)
        want = _errors_by_element(dm, packs, p, U, u)
        got = (eb.err_1ph, eb.err_pot, eb.err_l2)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_errors_match_element_loop(family, k):
    _check_errors_match_element_loop(generate(family, 2), k)


@pytest.mark.parametrize("family", FAMILIES)
def test_errors_match_element_loop_read_back(family):
    mesh = read_mesh(write_mesh(generate(family, 2)))
    _check_errors_match_element_loop(mesh, 1)


def test_errors_reject_packs_built_element_by_element():
    mesh = generate("triangular", 2)
    dm = DofMap(mesh, 1)
    one_by_one = [build_local_operators(mesh, ei, 1)
                  for ei in range(len(mesh.elements))]
    u = manufactured_solution("trigonometric")
    with pytest.raises(ValueError, match="do not share one operator set"):
        compute_errors(dm, one_by_one, p_laplacian(2.0), np.zeros(dm.ndofs), u)


def _counted(field, calls):
    """field, counting its evaluations by derivative (ax, ay)."""
    def factory(ax, ay):
        fn = field.partial(ax, ay)

        def ev(pts):
            calls[ax, ay] += 1
            return fn(pts)
        return ev
    return ScalarField(factory)


def test_errors_evaluate_the_field_once_per_block():
    # one call for the interpolate and one for the error itself per block,
    # not one per element
    mesh = generate("triangular", 3)
    packs = build_packs(mesh, 1)
    dm = DofMap(mesh, 1)
    nb = len(dm.blocks)
    assert nb < len(mesh.elements)
    calls = Counter()
    u = _counted(manufactured_solution("trigonometric"), calls)
    U = interpolate_global(dm, packs, u)
    assert calls == {(0, 0): nb}
    calls.clear()
    compute_errors(dm, packs, p_laplacian(1.75), U, u)
    assert calls[0, 0] <= 2 * nb
    assert calls[1, 0] == calls[0, 1] <= nb
    assert set(calls) <= {(0, 0), (1, 0), (0, 1)}


@pytest.mark.parametrize("where", ["cell", "face"])
def test_errors_of_nan_are_not_finite(where):
    # a garbage iterate must never report a finite error
    mesh = generate("cartesian", 2)
    packs = build_packs(mesh, 1)
    dm = DofMap(mesh, 1)
    u = manufactured_solution("trigonometric")
    U = interpolate_global(dm, packs, u)
    U[5 if where == "cell" else dm.cell_span + 7] = np.nan
    for p in (1.75, 2.0, 3.0):
        eb = compute_errors(dm, packs, p_laplacian(p), U, u)
        assert not np.isfinite(eb.err_1ph)
        assert not np.isfinite(eb.err_pot)
        assert not np.isfinite(eb.err_l2)
