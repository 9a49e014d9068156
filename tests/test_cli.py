import json
import pathlib

import pytest

from genform import cli, gvector, hamiltonian
from genform.cli import build_parser, main
from genform.hamiltonian import Trajectory, step_count
from genform.ring import MAX_EXPONENT

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(args):
    return main([str(a) for a in args])


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_identities_small_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["identities", "--dim", 2, "--epsilon", "1", "--trials", 4,
                "--seed", 7, "--suite", "cartan", "--out", out])
    assert code == 0
    report = read(out)
    assert report["pass"] is True
    assert report["suites"][0]["suite"] == "cartan"


def test_identities_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["identities", "--dim", 2, "--epsilon", "1", "--trials", 4,
            "--seed", 9, "--suite", "gform"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    r1, r2 = read(out1), read(out2)
    for r in (r1, r2):
        for s in r["suites"]:
            s.pop("wall_time")
    assert r1 == r2


def test_identities_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("GENFORM_SEED", "31")
    out = tmp_path / "r.json"
    assert run(["identities", "--dim", 2, "--epsilon", "0", "--trials", 2,
                "--suite", "super", "--out", out]) == 0
    assert read(out)["seed"] == 31


def test_oscillator_run(tmp_path):
    csv = tmp_path / "traj.csv"
    rep = tmp_path / "rep.json"
    code = run(["oscillator", "--epsilon", "0", "--v0", "1", "--l", 1,
                "--t-end", "5", "--dt", "0.001", "--out", csv, "--report", rep])
    assert code == 0
    report = read(rep)
    assert report["max_err"] < 1e-6
    assert report["order_estimate"] >= 3.8
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,q1,p1"
    assert len(lines) == 5002


def test_oscillator_damped(tmp_path):
    rep = tmp_path / "rep.json"
    code = run(["oscillator", "--epsilon", "1/2", "--v0", "1", "--l", 1,
                "--t-end", "5", "--dt", "0.001", "--report", rep])
    assert code == 0
    assert read(rep)["max_err"] < 1e-6


def test_hamiltonian_fixtures(tmp_path):
    for name in ("hamiltonian_n2.json", "hamiltonian_n4.json"):
        rep = tmp_path / f"{name}.out"
        code = run(["hamiltonian", "--fixture", FIXTURES / name, "--out", rep])
        assert code == 0
        report = read(rep)
        assert report["defining_relation_zero"]
        assert report["lie_derivative_of_s_zero"]
        assert report["gauge_shift_ok"]


@pytest.mark.parametrize("name", ["hamiltonian_n2.json", "hamiltonian_n4.json"])
def test_hamiltonian_contracts_the_field_with_s_once(name, tmp_path, monkeypatch):
    # hamiltonian_vf's residual contracts V with s; L_V s reuses that -dH
    s = hamiltonian.problem_from_json(read(FIXTURES / name)).symplectic.s
    forms = []
    contract = gvector.gv_interior

    def counted(V, a):
        forms.append(a)
        return contract(V, a)

    for module in (gvector, hamiltonian, cli):
        monkeypatch.setattr(module, "gv_interior", counted)
    assert run(["hamiltonian", "--fixture", FIXTURES / name, "--out", tmp_path / "r.json"]) == 0
    assert sum(a == s for a in forms) == 1


def test_hamiltonian_missing_fixture():
    assert run(["hamiltonian", "--fixture", "/nonexistent.json"]) == 2


def test_hamiltonian_malformed_fixture(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2}))
    assert run(["hamiltonian", "--fixture", bad]) == 2


def test_connection_theorem_cases(tmp_path):
    rep = tmp_path / "ci.json"
    assert run(["connection-thm", "--fixture", FIXTURES / "connection_case_i.json",
                "--case", "i", "--out", rep]) == 0
    report = read(rep)
    assert report["nonmetricity_zero"] and report["curvature_formula_match"]

    rep2 = tmp_path / "cii.json"
    assert run(["connection-thm", "--fixture", FIXTURES / "connection_case_ii.json",
                "--case", "ii", "--out", rep2]) == 0
    report2 = read(rep2)
    assert report2["nonmetricity_zero"] and report2["curvature_formula_match"]

    rep3 = tmp_path / "cord.json"
    assert run(["connection-thm", "--fixture",
                FIXTURES / "connection_case_ii_ordinary.json",
                "--case", "ii", "--out", rep3]) == 0
    report3 = read(rep3)
    assert report3["ordinary_metric_corollary"] is True


def test_cover_two_chart(tmp_path):
    rep = tmp_path / "cover.json"
    code = run(["cover", "--fixture", FIXTURES / "two_chart.json",
                "--epsilon", "2", "--out", rep])
    assert code == 0
    report = read(rep)
    assert report["case"] == "ii"
    assert report["dm_tilde"] == "2"
    assert report["glued"] is True
    assert report["ideal_residual_zero"] is True


def test_cover_case_i(tmp_path):
    rep = tmp_path / "cover_i.json"
    assert run(["cover", "--fixture", FIXTURES / "case_i_cover.json",
                "--epsilon", "0", "--out", rep]) == 0
    assert read(rep)["dm_tilde"] == "0"


def test_cover_broken_triple(tmp_path):
    rep = tmp_path / "broken.json"
    code = run(["cover", "--fixture", FIXTURES / "broken_triple.json",
                "--epsilon", "1", "--out", rep])
    assert code == 1
    report = read(rep)
    assert report["pass"] is False
    assert report["glue"]["cocycle_failures"]


def test_usage_errors():
    assert run(["identities"]) == 2  # missing --dim
    assert run(["nonsense-command"]) == 2


def test_identities_rejects_nonpositive_trials(tmp_path, capsys):
    for trials in (0, -3):
        out = tmp_path / f"r{trials}.json"
        assert run(["identities", "--dim", 2, f"--trials={trials}", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--trials" in err
        assert not out.exists()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    out = tmp_path / "report.json"
    good = ["cover", "--fixture", FIXTURES / "two_chart.json", "--epsilon", "2", "--out", out]
    assert run(good) == 0
    first = out.read_text()
    out.unlink()
    assert run(["cover", "--fixture", FIXTURES / "case_i_cover.json", "--epsilon", "0",
                "--out", out, "--bogus"]) == 2
    assert not out.exists()
    assert run(good) == 0
    assert out.read_text() == first
    capsys.readouterr()


def _one_line_usage_error(code, capsys):
    err = capsys.readouterr().err
    return code == 2 and err.count("\n") == 1 and "Traceback" not in err


def test_connection_thm_rejects_wrong_shape_matrices(tmp_path, capsys):
    good = read(FIXTURES / "connection_case_i.json")
    ragged = dict(good, gamma=[good["gamma"][0][:1], good["gamma"][1]])
    short_inv = dict(good, gamma_inv=good["gamma_inv"][:1])
    for name, data in (("ragged", ragged), ("short_inv", short_inv)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code = run(["connection-thm", "--fixture", path, "--case", "i",
                    "--out", tmp_path / f"{name}.out"])
        assert _one_line_usage_error(code, capsys), name


def test_hamiltonian_rejects_malformed_rationals_and_short_k(tmp_path, capsys):
    good = read(FIXTURES / "hamiltonian_n2.json")
    mutations = {
        "h_number": {"h": 3},
        "epsilon_null": {"epsilon": None},
        "zero_denominator": {"h": "1/0*x1"},
        "decimal": {"h": "1.5*x1*x1"},
        "short_k": {"k": good["k"][:1]},
    }
    for name, change in mutations.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(good, **change)))
        code = run(["hamiltonian", "--fixture", path, "--out", tmp_path / f"{name}.out"])
        assert _one_line_usage_error(code, capsys), name


def test_cover_rejects_bad_epsilon_before_gluing(tmp_path, capsys):
    # broken_triple fails to glue; a bad --epsilon must still read as bad input
    for fixture in ("two_chart.json", "broken_triple.json"):
        out = tmp_path / f"{fixture}.out"
        code = run(["cover", "--fixture", FIXTURES / fixture, "--epsilon", "0.5",
                    "--out", out])
        assert _one_line_usage_error(code, capsys), fixture
        assert not out.exists()


def test_exponent_beyond_the_limit_is_a_usage_error(tmp_path, capsys):
    good = read(FIXTURES / "hamiltonian_n2.json")
    for name, h in (("written", f"1*x1^{MAX_EXPONENT + 1}"),
                    ("repeated", f"1*x1^{MAX_EXPONENT}*x1")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(good, h=h)))
        code = run(["hamiltonian", "--fixture", path, "--out", tmp_path / f"{name}.out"])
        assert _one_line_usage_error(code, capsys), name


def test_oscillator_without_error_reports_null_order(tmp_path):
    # q0 = p0 = 0 stays exactly 0: no error ratio, so max_err alone decides
    rep = tmp_path / "rep.json"
    code = run(["oscillator", "--epsilon", "0", "--v0", "1", "--q0", "0", "--p0", "0",
                "--t-end", "3", "--dt", "0.01", "--report", rep])
    assert code == 0
    report = read(rep)
    assert report["max_err"] == 0
    assert report["order_estimate"] is None
    assert report["pass"] is True


ROUNDING_LEVEL_RUNS = [
    # order runs at steps 8e-4 and 4e-4: errors 2.8e-14 and 1.1e-14, rounding only
    ["--epsilon", "1/2", "--v0", "1", "--t-end", "3", "--dt", "0.0001"],
    # a subnormal start: every error is a few subnormal ulps
    ["--epsilon", "1/2", "--v0", "1", "--q0", "1e-320", "--t-end", "3", "--dt", "0.01"],
]


@pytest.mark.parametrize("options", ROUNDING_LEVEL_RUNS, ids=["fine-dt", "subnormal-q0"])
def test_oscillator_errors_below_rounding_floor_report_null_order(tmp_path, options):
    rep = tmp_path / "rep.json"
    assert run(["oscillator", *options, "--report", rep]) == 0
    report = read(rep)
    assert report["order_estimate"] is None
    assert report["max_err"] < 1e-6
    assert report["pass"] is True


def heun(epsilon, v0, l, q0, p0, t_end, dt, h=None):
    """Heun's second-order method for the scalar damped oscillator, standing
    in for RK4: its order estimate must come out near 2."""
    a = 2.0 * float(epsilon) * float(v0)
    q, p = float(q0[0]), float(p0[0])
    times, states = [0.0], [(q, p)]
    for step in range(step_count(t_end, dt)):
        dq1, dp1 = p, -q + a * p
        dq2, dp2 = p + dt * dp1, -(q + dt * dq1) + a * (p + dt * dp1)
        q, p = q + dt / 2 * (dq1 + dq2), p + dt / 2 * (dp1 + dp2)
        times.append((step + 1) * dt)
        states.append((q, p))
    return Trajectory(1, times, states)


@pytest.mark.parametrize("dt", ["0.0001", "0.01"])
def test_oscillator_lower_order_step_still_fails(tmp_path, monkeypatch, dt):
    # the order runs use Heun, the reported trajectory RK4: only the order fails
    monkeypatch.setattr(hamiltonian, "integrate_hamilton", heun)
    rep = tmp_path / "rep.json"
    assert run(["oscillator", "--epsilon", "1/2", "--v0", "1", "--t-end", "3",
                "--dt", dt, "--report", rep]) == 1
    report = read(rep)
    assert report["max_err"] < 1e-6
    assert 1.8 < report["order_estimate"] < 2.2
