import json
import operator
from fractions import Fraction

import pytest

from genform import cli, suites
from genform import connection as conn
from genform.exterior import OrdinaryForm, mat_identity, mat_map, transpose, vf_bracket
from genform.gform import GenForm, gpullback, gwedge
from genform.randgen import FormRandom
from genform.ring import Polynomial
from genform.suites import SUITE_NAMES, run_suite, run_trial
from genform.superspace import SuperFunction, super_d


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_small(name):
    report = run_suite(name, 2, Fraction(1), 8, 123)
    assert report["pass"], report
    assert report["trials"] == 8


def test_suites_cover_epsilon_pool_and_degrees():
    # the trial schedule cycles epsilon and degree deterministically
    from genform.suites import _epsilon_pool, _trial_setup

    pool = _epsilon_pool(Fraction(1))
    assert Fraction(0) in pool and Fraction(1, 2) in pool
    assert Fraction(2) in pool and Fraction(-2) in pool and Fraction(-1) in pool
    seen_eps = set()
    seen_deg = set()
    for trial in range(24):
        rnd, degree = _trial_setup(2, Fraction(1), 9, trial)
        seen_eps.add(rnd.epsilon)
        seen_deg.add(degree)
    assert seen_eps == set(pool)
    assert seen_deg == {-1, 0, 1, 2}


def test_reports_are_deterministic():
    for name in ("cartan", "gform"):
        ja, jb = (run_suite(name, 2, Fraction(1), 5, 77) for _ in range(2))
        ja.pop("wall_time")
        jb.pop("wall_time")
        assert ja == jb


def test_report_shape():
    report = run_suite("cartan", 2, Fraction(0), 3, 1)
    assert report["schema"] == 1
    assert report["suite"] == "cartan"
    assert report["pass"] is True
    assert report["failures"] == []


# The cases each trial checks, in order; each is one identity checked on the
# trial's inputs.
CASES_PER_TRIAL = {
    "cartan": ("interior_anticommute", "d_lie_commute", "lie_lie_bracket",
               "lie_interior_bracket"),
    "gform": ("d_squared", "antiderivation", "graded_commutativity", "associativity",
              "lie_componentwise", "lie_leibniz", "degree0_interior_vs_lie",
              "pullback_morphism", "pullback_d_commute", "pullback_preserves_m", "unit",
              "m_squared", "interior_kills_m", "lie_kills_m"),
    "super": ("roundtrip", "dict_product", "dict_d", "dict_interior_ordinary",
              "dict_lie_ordinary", "dict_gv_interior", "dict_gv_lie", "lie_expansion",
              "lie_expansion_ordinary", "grassmann_associativity", "grassmann_commutativity",
              "grassmann_anticommutativity"),
    "gvector": ("interior_leibniz", "anticommutator_closed_form", "xi_pair_anticommute",
                "bracket_defining_relation", "jacobi", "lie_leibniz", "lie_expansion",
                "reduces_to_ordinary_interior", "reduces_to_ordinary_lie",
                "reduces_to_ordinary_bracket", "d_split_recomposition",
                "modified_lie_scalar_case", "embed_zero_reduces"),
    "connection": ("curvature_expansion", "bianchi", "bianchi_via_cov_d",
                   "curvature_conjugation", "cov_deriv_expansion", "nonmetricity_expansion",
                   "metric_inverse_two_sided", "metric_inverse_symmetric"),
}


def test_hooks_mark_each_trial_and_count_each_check(monkeypatch):
    # the benchmark wraps these module globals to mark trials and count checks
    cases = []  # the cases of each trial, in trial order
    trial_setup, check = suites._trial_setup, suites._check

    def counted_setup(*args):
        cases.append([])
        return trial_setup(*args)

    def counted_check(failures, case, *args):
        cases[-1].append(case)  # IndexError for a check before the first trial starts
        return check(failures, case, *args)

    monkeypatch.setattr(suites, "_trial_setup", counted_setup)
    monkeypatch.setattr(suites, "_check", counted_check)
    assert set(CASES_PER_TRIAL) == set(SUITE_NAMES)
    for name in SUITE_NAMES:
        cases.clear()
        assert run_suite(name, 2, Fraction(1), 3, 5)["pass"]
        assert cases == [list(CASES_PER_TRIAL[name])] * 3, name


def _broken_bracket(v, w):
    return vf_bracket(w, v)


def _broken_identity(n, one, zero):
    return mat_identity(n, zero, zero)


def _soulless_pullback(phi, a):
    return gpullback(phi, GenForm(a.dim, a.epsilon, a.degree, a.body))


def _super_d_without_epsilon(f):
    return SuperFunction(f.dim, f.epsilon, super_d(SuperFunction(f.dim, 0, f.terms)).terms)


# A suite's module global swapped for a wrong one, and the cases it breaks:
# every case that reads the wrong value and can tell.  Dropping the soul is
# itself an algebra map, so pullback_morphism, which reads the pullbacks of a,
# b and a b, still holds.
BREAKS = {
    "cartan": ("vf_bracket", _broken_bracket, {"lie_lie_bracket", "lie_interior_bracket"}),
    "gform": ("gpullback", _soulless_pullback, {"pullback_d_commute", "pullback_preserves_m"}),
    "super": ("super_d", _super_d_without_epsilon, {"dict_d"}),
    "gvector": ("vf_bracket", _broken_bracket, {"reduces_to_ordinary_bracket"}),
    "connection": ("mat_identity", _broken_identity, {"metric_inverse_two_sided"}),
}


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_broken_operation_fails_with_replayable_records(name, monkeypatch, tmp_path, capsys):
    attr, broken, cases = BREAKS[name]
    monkeypatch.setattr(suites, attr, broken)
    trials, seed = 4, 3
    # each trial replays alone, here in reverse order before the suite runs
    alone = {t: run_trial(name, 2, Fraction(1), seed, t) for t in reversed(range(trials))}
    recorded = []  # cases, as the benchmark's _record hook sees them
    record = suites._record

    def counted_record(*args):
        recorded.append(args[1])
        record(*args)

    monkeypatch.setattr(suites, "_record", counted_record)
    report = run_suite(name, 2, Fraction(1), trials, seed)
    assert report["pass"] is False
    failures = report["failures"]
    assert failures and recorded == [f["case"] for f in failures]
    assert failures == [f for t in range(trials) for f in alone[t]]
    for t in range(trials):
        assert alone[t] == [f for f in failures if f["trial"] == t]
    assert {f["case"] for f in failures} == cases
    for f in failures:
        assert set(f) == {"case", "trial", "inputs", "residual"}
        assert 0 <= f["trial"] < trials
        rnd, _ = suites._trial_setup(2, Fraction(1), seed, f["trial"])
        assert f["inputs"] == {"epsilon": str(rnd.epsilon), "dim": 2}
        assert f["residual"] not in ("", "0")
    out = tmp_path / "report.json"
    argv = ["identities", "--dim", "2", "--trials", str(trials), "--seed", str(seed),
            "--suite", name, "--out", str(out)]
    assert cli.main(argv) == 1
    capsys.readouterr()
    assert json.loads(out.read_text())["pass"] is False


def _raising_bracket(v, w):
    raise ValueError("body degree 1 != 2")


def test_engine_exception_is_a_failure_record(monkeypatch, tmp_path, capsys):
    # every cartan trial forms [v, w] before its first check, so each trial
    # ends in one exception record and the later trials still run
    monkeypatch.setattr(suites, "vf_bracket", _raising_bracket)
    trials = 3
    out = tmp_path / "report.json"
    argv = ["identities", "--dim", "2", "--trials", str(trials), "--seed", "3",
            "--suite", "cartan", "--out", str(out)]
    assert cli.main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert [(f["case"], f["trial"], f["residual"]) for f in report["suites"][0]["failures"]] == [
        ("exception", t, "ValueError: body degree 1 != 2") for t in range(trials)]


def test_a_metric_inverse_wrong_on_one_side_fails_both_metric_cases(monkeypatch):
    # g_up g = I is the one product checked; a g_up wrong on one side of the
    # diagonal breaks it and also its symmetry, the check that stands for
    # g g_up = I, whose record is g_up - g_up^T
    made = []
    metric_inverse = conn.metric_inverse

    def one_sided(g):
        """g^-1 with the soul of entry (1, 2) alone off by dx1."""
        rows = [list(row) for row in metric_inverse(g)]
        rows[0][1] += GenForm(g.dim, g.epsilon, 0, OrdinaryForm.zero(g.dim, 0),
                              OrdinaryForm.basis(g.dim, (1,)))
        made.append(tuple(map(tuple, rows)))
        return made[-1]

    monkeypatch.setattr(conn, "metric_inverse", one_sided)
    for trial in range(3):
        failures = run_trial("connection", 2, Fraction(1), 3, trial)
        g_up = made[-1]
        assert [f["case"] for f in failures] == ["metric_inverse_two_sided",
                                                 "metric_inverse_symmetric"]
        assert failures[1]["residual"] == str(mat_map(operator.sub, g_up, transpose(g_up)))


def _sides(rnd):
    """Two unequal extended 1-forms a, b and a twin of a built on another path."""
    a, b = rnd.genform(1), rnd.genform(1)
    twin = gwedge(a, GenForm.one(rnd.dim, rnd.epsilon))
    assert twin is not a and twin == a and a != b
    return a, b, twin


def _raise(*args):
    raise AssertionError("a check of equal sides subtracted")


def test_equal_sides_record_nothing_and_subtract_nothing(monkeypatch):
    rnd = FormRandom(11, 2, Fraction(1))
    a, b, twin = _sides(rnd)
    monkeypatch.setattr(GenForm, "__sub__", _raise)
    monkeypatch.setattr(Polynomial, "_plus", _raise)
    failures = []
    suites._check(failures, "form", 0, rnd, twin, a)
    suites._check(failures, "matrix", 0, rnd, ((twin, b), (b, a)), ((a, b), (b, twin)))
    assert failures == []


def test_unequal_sides_record_their_difference():
    rnd = FormRandom(12, 2, Fraction(1, 2))
    a, b, twin = _sides(rnd)
    failures = []
    suites._check(failures, "form", 4, rnd, a, b)
    suites._check(failures, "matrix", 4, rnd, ((a, b),), ((twin, a),))
    # the gvector suite also compares extended vector fields, and the super
    # suite superfunctions: only a failing check subtracts them
    V, W = rnd.gen_vector_field(), rnd.gen_vector_field()
    f, g = rnd.superfunction(), rnd.superfunction()
    suites._check(failures, "fields", 4, rnd, V, W)
    suites._check(failures, "superfunctions", 4, rnd, f, g)
    inputs = {"epsilon": "1/2", "dim": 2}
    assert failures == [
        {"case": "form", "trial": 4, "inputs": inputs, "residual": str(a - b)},
        {"case": "matrix", "trial": 4, "inputs": inputs,
         "residual": str(mat_map(operator.sub, ((a, b),), ((twin, a),)))},
        {"case": "fields", "trial": 4, "inputs": inputs, "residual": str(V - W)},
        {"case": "superfunctions", "trial": 4, "inputs": inputs, "residual": str(f - g)}]


@pytest.mark.parametrize("sides, error", [
    pytest.param(lambda a, b: (a, GenForm.one(3, Fraction(1))), "dimension mismatch: 2 vs 3",
                 id="dim"),
    pytest.param(lambda a, b: (a, GenForm.one(2, Fraction(2))), "epsilon mismatch: 1 vs 2",
                 id="epsilon"),
    pytest.param(lambda a, b: (((a,),), ((a, b), (b, a))),
                 "zip() argument 2 is longer than argument 1", id="shape"),
])
def test_a_mismatch_of_two_sides_ends_the_trial_in_an_exception_record(sides, error, monkeypatch):
    # sides of another dim, epsilon or matrix shape are unequal, so they are
    # subtracted, and the subtraction's ValueError becomes the trial's one record
    def body(rnd, degree, check):
        a = GenForm.one(2, rnd.epsilon)
        check("form", *sides(a, a + a))

    monkeypatch.setitem(suites.SUITES, "cartan", body)
    assert [(f["case"], f["trial"], f["residual"])
            for f in run_trial("cartan", 2, Fraction(1), 0, 0)] == [
        ("exception", 0, f"ValueError: {error}")]
