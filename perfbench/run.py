"""genform benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload identities-d2 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; genform is imported from ``src/``.
The run is one process and one thread, a closed loop over the workload's
items (see ``workloads.py``).  It prints every metric by name and unit, then,
as the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every item's verdict matches
the known answer; without a genform source tree the run exits 2 without a
result.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Their
times are seconds at the reference speed (``speed.py``): the measured time
times the host speed calibrated during the same run, which cancels the
shared host's drift.  The measured wall time and the host speed are printed
beside them.

``--trace 1`` runs the workload once untraced and once traced (``spans.py``)
and reports the per-layer metrics, as measured: span counts and self times
of the traced pass, the per-part seconds of the untraced pass, and the ratio
of the two wall times.  It fails the run if the two passes' reports differ
(apart from ``wall_time``) or if the layers' self times plus the time outside
every span do not add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_UNITS = 20      # reference units run before and after each set-up
OUTDIR = os.path.join(HERE, "out")

# Per-layer metric groups: metric prefix -> span names.  ``calls`` counts the
# first name only (the others are helpers it calls, or siblings of one
# operation); ``self_s`` sums the self time of all of them.
GROUPS = {
    "ring.mul": ("ring.Polynomial.__mul__",),
    "ring.init": ("ring.Polynomial.__init__",),
    "ring.add": ("ring.Polynomial.__add__",),
    "ring.partial": ("ring.Polynomial.partial",),
    "ring.parse": ("ring.Polynomial.parse", "ring.parse_rational"),
    "ring.str": ("ring.Polynomial.__str__", "ring.format_rational"),
    "exterior.wedge": ("exterior.wedge",),
    "exterior.ext_d": ("exterior.ext_d",),
    "exterior.interior": ("exterior.interior",),
    "exterior.pullback": ("exterior.pullback",),
    "gform.gwedge": ("gform.gwedge",),
    "gform.gd": ("gform.gd",),
    "superspace.mul": ("superspace.SuperFunction.mul",),
    "superspace.convert": ("superspace.to_super", "superspace.from_super"),
    "superspace.ops": ("superspace.super_d", "superspace.super_interior",
                       "superspace.super_lie", "superspace.super_lie_expansion"),
    "gvector.gv_bracket": ("gvector.gv_bracket",),
    "gvector.gv_lie": ("gvector.gv_lie",),
    "connection.curvature": ("connection.curvature",),
    "connection.metric_inverse": ("connection.metric_inverse",),
    "hamiltonian.hamiltonian_vf": ("hamiltonian.hamiltonian_vf",),
    "hamiltonian.integrate": ("hamiltonian.integrate_hamilton",),
    "cover.glue_validate": ("cover.glue_validate",),
    "cover.canonicalize": ("cover.canonicalize",),
}
# Groups whose calls count every name (several entry points of one kind).
SUMMED_CALLS = {"superspace.convert", "superspace.ops"}
PARTS = ("cartan_s", "gform_s", "super_s", "gvector_s", "connection_s",
         "hamiltonian_s", "connection_thm_s", "cover_s", "oscillator_s")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fresh_import():
    """Import genform from this checkout's ``src`` as if for the first time."""
    for name in [m for m in sys.modules if m == "genform" or m.startswith("genform.")]:
        del sys.modules[name]
    genform = importlib.import_module("genform")
    importlib.import_module("genform.cli")
    if not os.path.abspath(genform.__file__).startswith(SRC + os.sep):
        raise ImportError(f"genform imported from {genform.__file__}, not {SRC}")
    return genform


def set_up(name: str, seed: int, seconds: float):
    """Import genform and build the workload's inputs; returns the workload."""
    genform = fresh_import()
    outdir = os.path.join(OUTDIR, name)
    os.makedirs(outdir, exist_ok=True)
    commands = workloads.WORKLOADS[name](seed, seconds, os.path.join(ROOT, "fixtures"), outdir)
    return workloads.Workload(commands, genform)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(outcome, setup_s: list[float]) -> dict[str, float]:
    """Times at the reference speed: measured seconds times the host speed
    over the run, or around each item for item latencies."""
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": outcome.wall_s * outcome.host_speed,
        "item_s.p50": statistics.median(outcome.item_ref_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def extra_end_to_end(outcome, attempted: int) -> dict[str, tuple[float, str]]:
    """Printed with the end-to-end metrics but kept out of the JSON line:
    zero on some workloads, or without ten samples beyond the tail."""
    host = outcome.host_speed
    extra = {"failed_share": (outcome.failed / attempted, "share"),
             "host_speed": (host, "ratio"),
             "measured.wall_s": (outcome.wall_s, "s")}
    if len(outcome.item_s) >= 100:
        extra["item_s.p90"] = (percentile(outcome.item_ref_s, 0.9), "s")
    extra.update((part, (seconds * host, "s")) for part, seconds in outcome.part_s.items())
    return extra


def per_layer(tracer, traced, untraced) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and any accounting errors."""
    agg = spans.aggregate(tracer)

    def calls(*names):
        return sum(agg.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0))[1] for n in names)

    def layer_s(prefix):
        return sum(s for n, (_, s) in agg.items() if n.startswith(prefix + "."))

    m: dict[str, float] = {}
    for group, names in GROUPS.items():
        m[group + ".calls"] = calls(*names) if group in SUMMED_CALLS else calls(names[0])
        m[group + ".self_s"] = self_s(*names)
    m["ring.mul.term_products"] = tracer.term_products
    m["ring.mul.max_terms"] = tracer.max_terms
    m["ring.mul.ns_per_term_product"] = (
        1e9 * m["ring.mul.self_s"] / tracer.term_products if tracer.term_products else 0.0)
    m["ring.exppoly.calls"] = sum(c for n, (c, _) in agg.items() if n.startswith("ring.ExpPoly."))
    m["ring.exppoly.self_s"] = layer_s("ring.ExpPoly")
    for layer in spans.MODULES:
        m[layer + ".self_s"] = layer_s(layer)
    m["ring.share"] = m["ring.self_s"] / traced.wall_s
    m["suites.checks"] = calls("suites._check")
    m["suites.check_failures"] = calls("suites._record")
    m["trace.overhead"] = traced.wall_s / untraced.wall_s
    m["trace.remainder_s"] = traced.wall_s - spans.top_level_seconds(tracer)
    m["trace.spans"] = len(tracer)
    for part in PARTS:
        m[part] = untraced.part_s.get(part, 0.0)

    errors = []
    accounted = sum(m[layer + ".self_s"] for layer in spans.MODULES) + m["trace.remainder_s"]
    if abs(accounted - traced.wall_s) > 1e-6 * traced.wall_s:
        errors.append(f"self times + remainder = {accounted} s, traced wall_s = {traced.wall_s} s")
    if m["trace.remainder_s"] < 0:
        errors.append(f"spans cover more than the traced wall time ({m['trace.remainder_s']} s)")
    return m, errors


def emit(spec_metrics: list[dict], values: dict[str, float],
         extra: dict[str, tuple[float, str]], correct: bool, attempted: int, failed: int) -> None:
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"attempted {attempted}, failed {failed}")
    listing = [(m["name"], values[m["name"]], m["unit"]) for m in spec_metrics]
    listing += [(name, value, unit) for name, (value, unit) in sorted(extra.items())]
    for name, value, unit in listing:
        print(f"{name:36s} {value:>16.6g} {unit}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "genform", "__init__.py")):
        print(f"no genform source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()

    setup_s = []
    for _ in range(SETUP_REPEATS):
        before = speed.unit_seconds(SETUP_UNITS)
        t0 = time.perf_counter()
        work = set_up(args.workload, args.seed, args.seconds)
        seconds = time.perf_counter() - t0
        host_speed = speed.REFERENCE_UNIT_S * 2 / (before + speed.unit_seconds(SETUP_UNITS))
        setup_s.append(seconds * host_speed)
    attempted = work.attempted

    untraced = work.run()
    errors = list(untraced.errors)
    failed = untraced.failed
    if not args.trace:
        values = end_to_end(untraced, setup_s)
        extra = extra_end_to_end(untraced, attempted)
        spec_metrics = spec["end_to_end"]
    else:
        tracer = spans.Tracer()
        work.item_hook = tracer.set_item
        spans.install(tracer, sys.modules["genform"])
        traced = work.run(calibrate=False)
        failed = max(failed, traced.failed)
        errors += traced.errors
        if traced.digests != untraced.digests:
            errors.append("traced reports differ from untraced reports")
        values, accounting = per_layer(tracer, traced, untraced)
        errors += accounting
        tracer.write(os.path.join(OUTDIR, f"spans-{args.workload}"))
        extra = {"traced_wall_s": (traced.wall_s, "s"), "untraced_wall_s": (untraced.wall_s, "s"),
                 "traced_peak_rss_mb": (peak_rss_mb(), "MB")}
        spec_metrics = spec["per_layer"]

    for error in errors[:20]:
        print(f"WRONG: {error}", file=sys.stderr)
    correct = not errors and failed == 0
    emit(spec_metrics, values, extra, correct, attempted, failed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
