"""The benchmark's workloads: seeded command lists for ``genform.cli.main``.

A workload is a list of commands run one after another in one process (a
closed loop with one client: each command starts when the previous one has
returned).  An *item* is one suite trial for ``identities`` commands and one
command otherwise.  Every command writes its JSON report with ``--out`` into
the run's scratch directory; the harness reads it back and checks the verdict
against the known answer: every identity suite passes, and every fixture
command exits with its documented code (``broken_triple`` fails with 1).

Sizes scale with ``--seconds``: each workload states how much work fits in
one second at the reference speed of ``speed.py`` (2 vCPUs, Python 3.11), so
a run of S seconds does a fixed amount of work that depends only on S, never
on the clock.  That keeps
every counter of a traced run exactly repeatable for one seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from speed import Speed

# identities-d2 trials per run-second, per suite.  The sub-second suites need
# hundreds of trials for their own time to repeat within a tenth across seeds.
D2_TRIALS_PER_SECOND = {"cartan": 10.4, "gform": 7.0, "super": 7.0,
                        "gvector": 2.8, "connection": 3.1}
# connection-d3: one trial takes 7-12 s, so a run holds a few trials.  The
# suite seed is pinned (the CLI default, 0) because per-trial cost varies 3x
# with the random draw; --seed picks epsilon, which changes every soul
# coefficient but not the sparsity pattern, so cost stays steady per run.
D3_SECONDS_PER_TRIAL = 8.5
D3_SUITE_SEED = 0
# Values outside randgen.EPSILON_POOL, so trial 0 is the only trial whose
# epsilon depends on the seed and the pinned later trials stay the same.
D3_EPSILONS = ("3", "-3", "3/2", "-3/2", "2/3", "-2/3", "1/3", "-1/3",
               "5/2", "-5/2", "4/3", "-4/3")
# Values that may start with '-' are passed as --flag=value, which argparse
# cannot mistake for an option.
# cli-mix: one round (nine commands) takes ~0.09 s.
CLI_ROUNDS_PER_SECOND = 11.0
# Oscillator parameters with |epsilon * v0| < 1, so the closed-form error and
# the RK4 order are checked; on t-end 3 every pair estimates order >= 4.0.
OSC_EPSILONS = ("0", "1/2", "-1/2", "1/3", "-1/3", "1/4", "-1/4")
OSC_V0S = ("1", "3/2", "-1", "1/2")
OSC_STARTS = (("1", "0"), ("0.5", "1"), ("-1", "0.5"))


@dataclass
class Command:
    part: str              # label of the per-part seconds metric
    argv: list[str]
    expect_exit: int
    report: str            # JSON report path the command writes
    trials: int = 0        # > 0 for identities: items are trials


@dataclass
class Outcome:
    """What one pass over a workload produced."""

    wall_s: float = 0.0         # seconds of work, calibration left out
    host_speed: float = 1.0     # speed.Speed.host_speed() over the pass
    item_s: list[float] = field(default_factory=list)
    item_at: list[float] = field(default_factory=list)     # work-clock starts
    item_ref_s: list[float] = field(default_factory=list)  # at the reference speed
    part_s: dict[str, float] = field(default_factory=dict)
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


class Workload:
    """A command list bound to one imported genform, run as a closed loop.

    Host speed is calibrated on a timer (``speed.Speed``) while an untraced
    pass runs; every interval is read from the work clock, so calibration time
    stays out of items, parts and wall time.
    """

    def __init__(self, commands: list[Command], genform):
        self.commands = commands
        self.cli = genform.cli
        self.suites = genform.suites
        self.speed = Speed()
        self.item_hook = None   # called with the item id as each item starts
        self._item = 0
        self._marks: list[float] = []
        trial_setup = self.suites._trial_setup

        def mark_trial(*args):
            self._marks.append(self.speed.work_clock())
            self._start_item()
            return trial_setup(*args)

        # Items inside an identities command are trials; the suites call
        # _trial_setup exactly once as each trial starts.
        self.suites._trial_setup = mark_trial

    def _start_item(self) -> None:
        if self.item_hook is not None:
            self.item_hook(self._item)
        self._item += 1

    @property
    def attempted(self) -> int:
        return sum(c.trials or 1 for c in self.commands)

    def run(self, calibrate: bool = True) -> Outcome:
        out = Outcome()
        self._item = 0
        self.speed = Speed()
        clock = self.speed.work_clock
        if calibrate:
            self.speed.start()
        try:
            start = clock()
            for cmd in self.commands:
                self._run_command(cmd, out)
            out.wall_s = clock() - start
        finally:
            if calibrate:
                self.speed.stop()
        if calibrate:
            out.host_speed = self.speed.host_speed()
            out.item_ref_s = [d * self.speed.local_speed(t, t + d)
                              for t, d in zip(out.item_at, out.item_s)]
        return out

    def _run_command(self, cmd: Command, out: Outcome) -> None:
        clock = self.speed.work_clock
        if os.path.exists(cmd.report):
            os.remove(cmd.report)
        self._marks.clear()
        if not cmd.trials:
            self._start_item()
        t0 = clock()
        try:
            code = self.cli.main(cmd.argv)
        except Exception as exc:  # a crash is a wrong verdict, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        out.part_s[cmd.part] = out.part_s.get(cmd.part, 0.0) + (t1 - t0)
        marks = self._marks + [t1] if cmd.trials else [t0, t1]
        out.item_at.extend(marks[:-1])
        out.item_s.extend(b - a for a, b in zip(marks, marks[1:]))
        out.failed += self._verdict(cmd, code, out)

    def _verdict(self, cmd: Command, code, out: Outcome) -> int:
        """Number of the command's items whose verdict is wrong."""
        items = cmd.trials or 1
        try:
            with open(cmd.report) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            out.errors.append(f"{' '.join(cmd.argv)}: exit {code}, no report ({exc})")
            return items
        for suite in report.get("suites", ()):
            suite.pop("wall_time", None)
        out.digests.append(hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest())
        problems = []
        if code != cmd.expect_exit:
            problems.append(f"exit {code} != {cmd.expect_exit}")
        if report.get("pass") is not (cmd.expect_exit == 0):
            problems.append(f"pass = {report.get('pass')!r}")
        if cmd.argv[0] == "oscillator" and not {"max_err", "order_estimate"} <= set(report):
            problems.append("oscillator error and order not checked")
        failed_trials = set()
        for suite in report.get("suites", ()):
            if suite.get("trials") != cmd.trials:
                problems.append(f"{suite.get('suite')}: {suite.get('trials')} trials")
            failed_trials.update((suite.get("suite"), f.get("trial"))
                                 for f in suite.get("failures", ()))
        if problems:
            out.errors.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
        # A suite failure names its trials; any other wrong verdict fails them all.
        return len(failed_trials) or (items if problems else 0)


def _identities(outdir: str, part: str, dim: int, epsilon: str, trials: int,
                seed: int, suite: str) -> Command:
    report = os.path.join(outdir, f"identities-{suite}-d{dim}.json")
    argv = ["identities", "--dim", str(dim), f"--epsilon={epsilon}",
            "--trials", str(trials), "--seed", str(seed), "--suite", suite,
            "--out", report]
    return Command(part, argv, 0, report, trials)


def identities_d2(seed: int, seconds: float, fixtures: str, outdir: str) -> list[Command]:
    """All five suites at dim 2; --seed is the suite seed."""
    return [_identities(outdir, f"{suite}_s", 2, "1",
                        max(1, round(rate * seconds)), seed, suite)
            for suite, rate in D2_TRIALS_PER_SECOND.items()]


def connection_d3(seed: int, seconds: float, fixtures: str, outdir: str) -> list[Command]:
    """The connection suite alone at dim 3, pinned draws, seeded epsilon."""
    epsilon = random.Random(seed).choice(D3_EPSILONS)
    trials = max(1, round(seconds / D3_SECONDS_PER_TRIAL))
    return [_identities(outdir, "connection_s", 3, epsilon, trials,
                        D3_SUITE_SEED, "connection")]


def cli_mix(seed: int, seconds: float, fixtures: str, outdir: str) -> list[Command]:
    """Rounds of the nine fixture commands, each round in a seeded order."""
    rng = random.Random(seed)

    def fixture(name: str) -> str:
        return os.path.join(fixtures, name)

    def report(name: str) -> str:
        return os.path.join(outdir, f"{name}.json")

    commands = []
    for _ in range(max(1, round(CLI_ROUNDS_PER_SECOND * seconds))):
        q0, p0 = rng.choice(OSC_STARTS)
        osc = ["oscillator", f"--epsilon={rng.choice(OSC_EPSILONS)}",
               f"--v0={rng.choice(OSC_V0S)}", f"--l={rng.choice((1, 2))}",
               f"--q0={q0}", f"--p0={p0}", "--t-end", "3", "--dt", "0.01",
               "--out", os.path.join(outdir, "oscillator.csv"),
               "--report", report("oscillator")]
        cover_eps = rng.choice(("1", "-1", "2", "1/2", "-3/2"))
        round_ = [
            Command("hamiltonian_s", ["hamiltonian", "--fixture", fixture("hamiltonian_n2.json"),
                                      "--out", report("ham-n2")], 0, report("ham-n2")),
            Command("hamiltonian_s", ["hamiltonian", "--fixture", fixture("hamiltonian_n4.json"),
                                      "--out", report("ham-n4")], 0, report("ham-n4")),
            Command("connection_thm_s",
                    ["connection-thm", "--fixture", fixture("connection_case_i.json"),
                     "--case", "i", "--out", report("thm-i")], 0, report("thm-i")),
            Command("connection_thm_s",
                    ["connection-thm", "--fixture", fixture("connection_case_ii.json"),
                     "--case", "ii", "--out", report("thm-ii")], 0, report("thm-ii")),
            Command("connection_thm_s",
                    ["connection-thm", "--fixture", fixture("connection_case_ii_ordinary.json"),
                     "--case", "ii", "--out", report("thm-ii-ord")], 0, report("thm-ii-ord")),
            Command("cover_s", ["cover", "--fixture", fixture("two_chart.json"),
                                f"--epsilon={cover_eps}", "--out", report("cover-two")],
                    0, report("cover-two")),
            Command("cover_s", ["cover", "--fixture", fixture("case_i_cover.json"),
                                "--epsilon", "0", "--out", report("cover-i")],
                    0, report("cover-i")),
            Command("cover_s", ["cover", "--fixture", fixture("broken_triple.json"),
                                "--epsilon", "1", "--out", report("cover-broken")],
                    1, report("cover-broken")),
            Command("oscillator_s", osc, 0, report("oscillator")),
        ]
        rng.shuffle(round_)
        commands.extend(round_)
    return commands


WORKLOADS = {"identities-d2": identities_d2, "connection-d3": connection_d3,
             "cli-mix": cli_mix}
