"""Numeric-flag fuzz test of the CLI's exit-code contract.

Every numeric flag of ``oscillator``, ``identities`` and ``cover`` is given
each of ``0``, ``-1``, ``nan``, ``inf``, ``-inf``, ``1e308``, ``1/0``, ``x``
and ``""`` on a short base run.  Every run must return an exit code instead
of raising: ``cli.main`` turns argparse's own exit into 2.  A value the flag
does not accept must exit 2; a value it accepts must give a verdict, 0 or 1,
unless ``EXIT`` names another documented result.
"""

import pathlib

import pytest

from genform import cli, hamiltonian
from genform.hamiltonian import MAX_STEPS, integrate_hamilton, max_l, step_count

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1/0", "x", "")

# Every flag is passed as --flag=value, so that argparse never reads a value
# starting with '-' as an option.
BASE = {
    "identities": ["identities", "--dim=2", "--trials=1", "--seed=0", "--epsilon=1",
                   "--suite=cartan"],
    "oscillator": ["oscillator", "--epsilon=0", "--v0=1", "--l=1", "--t-end=2", "--dt=0.05",
                   "--q0=1", "--p0=0", "--tol=1e-3"],
    "cover": ["cover", f"--fixture={FIXTURES / 'two_chart.json'}", "--epsilon=2"],
}
FLAGS = {
    "identities": ("--dim", "--trials", "--seed", "--epsilon"),
    "oscillator": ("--epsilon", "--v0", "--l", "--t-end", "--dt", "--tol", "--q0", "--p0"),
    "cover": ("--epsilon",),
}

# The values each flag accepts; every other value must exit 2.
ACCEPTED = {
    ("identities", "--seed"): {"0", "-1"},
    ("identities", "--epsilon"): {"0", "-1"},
    ("oscillator", "--epsilon"): {"0", "-1"},
    ("oscillator", "--v0"): {"0", "-1"},
    ("oscillator", "--tol"): {"1e308"},
    ("oscillator", "--q0"): {"0", "-1", "1e308"},
    ("oscillator", "--p0"): {"0", "-1", "1e308"},
    ("cover", "--epsilon"): {"0", "-1"},
}

# Accepted values whose documented result is not a verdict, and why.
EXIT = {
    # the state leaves the floats in the first step: "integration failed"
    ("oscillator", "--q0", "1e308"): 2,
    ("oscillator", "--p0", "1e308"): 2,
}

# Rejections that cli checks itself: one stderr line that names the flag.
# Every rejected value of a rational flag is one of them.
RATIONAL = (("identities", "--epsilon"), ("oscillator", "--epsilon"), ("oscillator", "--v0"),
            ("cover", "--epsilon"))
NAMED = {
    ("oscillator", "--t-end", "inf"), ("oscillator", "--tol", "nan"),
    ("oscillator", "--tol", "-1"), ("oscillator", "--q0", "nan"),
    ("oscillator", "--p0", "inf"), ("identities", "--dim", "-1"),
} | {(command, flag, value) for command, flag in RATIONAL
     for value in VALUES if value not in ACCEPTED[command, flag]}

CASES = [(command, flag) for command, flags in FLAGS.items() for flag in flags]


def _argv(command: str, flag: str, value: str) -> list[str]:
    return [f"{flag}={value}" if arg.startswith(flag + "=") else arg for arg in BASE[command]]


def _expected(command: str, flag: str, value: str) -> set[int]:
    if (command, flag, value) in EXIT:
        return {EXIT[command, flag, value]}
    return {0, 1} if value in ACCEPTED.get((command, flag), ()) else {2}


def _run(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # allowed, but only with the usage code
        assert exc.code == 2, argv
        return 2


@pytest.mark.parametrize("command,flag", CASES)
def test_numeric_flag_exits_as_documented(command, flag, tmp_path, capsys):
    assert sum(arg.startswith(flag + "=") for arg in BASE[command]) == 1
    wrong = []
    for value in VALUES:
        argv = _argv(command, flag, value)
        argv += ["--report" if command == "oscillator" else "--out", str(tmp_path / "r.json")]
        code = _run(argv)  # an exception here is the traceback the CLI must not show
        err = capsys.readouterr().err
        if code not in _expected(command, flag, value):
            wrong.append((value, code, err))
        if (command, flag, value) in NAMED:
            lines = err.strip().splitlines()
            if len(lines) != 1 or flag not in lines[0]:
                wrong.append((value, "stderr", err))
    assert not wrong, wrong


@pytest.mark.parametrize("flag", ["--q0", "--p0"])
@pytest.mark.parametrize("values", ["1,2,3", "1,2,3,4"])
def test_initial_values_of_another_length_exit_2_naming_the_flag(flag, values, capsys):
    # one value for all components or one per component (--l = 2), nothing else
    code = _run(["oscillator", "--epsilon=0", "--v0=1", "--l=2", "--t-end=1", "--dt=0.05",
                 f"{flag}={values}"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and flag in lines[0], lines


@pytest.mark.parametrize("t_end,dt", [("1", "0.5"), ("1", "2"), ("1e308", "1e-300")])
def test_oscillator_step_count_out_of_range_exits_2(t_end, dt, capsys):
    # zero steps at 8 * dt (nothing checked), or a step count past every bound
    code = _run(["oscillator", "--epsilon=0", "--v0=1", f"--t-end={t_end}", f"--dt={dt}"])
    assert code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_step_cap_rejects_before_integrating():
    # Only counts the cap rejects are tried, and only step_count sees a finite
    # one: a broken cap must fail this test, not start a long integration.
    assert step_count(MAX_STEPS * 0.5, 0.5) == MAX_STEPS
    for t_end, dt in ((MAX_STEPS + 1, 1.0), (1.0, 1e-12), (1e308, 1e-300)):
        with pytest.raises(ValueError, match="steps"):
            step_count(t_end, dt)
    with pytest.raises(ValueError, match="steps"):
        integrate_hamilton(0, 1, 1, [1.0], [0.0], 1e308, 1e-300)


@pytest.mark.parametrize("t_end,dt,l", [("0.1", "0.01", "2000"), ("1000000", "1", "2"),
                                        ("1", "0.01", "100000000000000000000")])
def test_oscillator_l_past_the_memory_bound_exits_2_before_building(t_end, dt, l,
                                                                     monkeypatch, capsys):
    # a broken bound must fail here, not start building a large h
    def unbuilt(l):
        raise AssertionError(f"h built for l = {l}")

    monkeypatch.setattr(hamiltonian, "oscillator_hamiltonian", unbuilt)
    code = _run(["oscillator", "--epsilon=0", "--v0=1", f"--l={l}", f"--t-end={t_end}",
                 f"--dt={dt}"])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "--l" in lines[0], lines


def test_l_bound_fits_the_memory_of_the_longest_l_1_run():
    budget = 2 * (MAX_STEPS + 1)  # the floats of the longest l = 1 run
    assert max_l(MAX_STEPS) == 1 and max_l(300) == 1000 and max_l(2000) == 499
    for steps in (1, 10, 300, 2000, 12345, MAX_STEPS):
        l = max_l(steps)
        assert (steps + 1) * 2 * l <= budget and 2 * l * l <= budget
        assert (steps + 1) * 2 * (l + 1) > budget or 2 * (l + 1) ** 2 > budget


@pytest.mark.parametrize("value", ["abc", "1/2", "nan"])
def test_bad_seed_environment_variable_exits_2_naming_it(value, monkeypatch, tmp_path, capsys):
    # without --seed the seed comes from GENFORM_SEED; its error must say so
    monkeypatch.setenv("GENFORM_SEED", value)
    code = _run(["identities", "--dim=1", "--trials=1", "--suite=cartan",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "GENFORM_SEED" in lines[0], lines
