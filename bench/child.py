"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED MODE [--smoke] [--spans FILE]

MODE is ``setup`` (import and build the algebra, then stop), ``run``
(also run the workload and judge every verdict) or ``trace`` (as
``run``, with the per-layer tracer installed around the workload).

The process prints one JSON object on its last stdout line.  ``ready``
is the ``time.perf_counter()`` reading just before the first check call;
the parent subtracts its own reading from before the spawn to get the
set-up time, which is valid because that clock is system-wide on Linux.
``setup_probe_s`` and ``setup_factor`` let it leave out the speed
probe's time and scale the rest to the reference speed (``speed.py``).

Each repetition runs in its own process so that module-level caches
(``moyal._SYM_CACHE``, ``RingContext._fpow`` and ``_dF``) start cold, as
they do for a user of the command line.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# workload -> (algebra, suite blocks, checks that must appear in the report)
VERIFY = {
    "module-spin6": ("spin:6", "hmodule,lowest", ("module-stability", "lowest-weight")),
    "identities-full3": (
        "full:3",
        "jordan,brackets,critical,innw,delta,ft,closure",
        ("w-bracket", "idempotent-bracket", "double-commutator", "critical-values",
         "w-conjugation", "delta-antimap", "fourier-consistency", "closure"),
    ),
}
LAB = "lab-tables"
LAB_DEGREE = 7
WORKLOADS = (*VERIFY, LAB)

# smoke mode: the same harness on inputs that finish in about a second
SMOKE_ALGEBRA = "sym:2"
SMOKE_DEGREE = 3


class SetupError(Exception):
    pass


def import_program():
    src = ROOT / "src"
    if not (src / "twistedops" / "__init__.py").is_file():
        raise SetupError(f"no twistedops sources under {src}")
    sys.path.insert(0, str(src))
    import twistedops
    from twistedops import jordan, moyal, verify  # noqa: F401  (what the CLI loads)

    if Path(twistedops.__file__).resolve().parent != (src / "twistedops").resolve():
        raise SetupError(f"imported twistedops from {twistedops.__file__}, not {src}")
    return twistedops


def run_verify(twistedops, J, blocks: str, seed: int):
    """The suite through ``run_suite``, then negative controls on an algebra
    whose m is off by one: each must fail with a witness."""
    import dataclasses

    verify = twistedops.verify
    report = verify.run_suite(J, selection=blocks, seed=seed)
    skew = dataclasses.replace(J, m=J.m + 1)
    controls = [verify.check_critical(skew), verify.check_h_module(skew),
                verify.check_lowest_weight(skew)]
    return report, controls


def run_lab(twistedops, degree: int):
    moyal = twistedops.moyal
    return moyal.pairing_table(degree), moyal.component_table(degree)


def run_workload(twistedops, workload: str, J, blocks: str, seed: int, degree: int):
    if workload in VERIFY:
        return run_verify(twistedops, J, blocks, seed)
    return run_lab(twistedops, degree)


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    smoke = "--smoke" in argv
    spans = Path(argv[argv.index("--spans") + 1]) if "--spans" in argv else None
    if workload not in WORKLOADS or mode not in ("setup", "run", "trace"):
        raise SetupError(f"bad arguments {argv}")

    from speed import SETUP_INTERVAL_S, SpeedProbe

    J = blocks = None
    with SpeedProbe(SETUP_INTERVAL_S, warmup=3) as setup:
        twistedops = import_program()
        if workload in VERIFY:
            selector, blocks, required = VERIFY[workload]
            if smoke:
                selector = SMOKE_ALGEBRA
            J = twistedops.jordan.from_selector(selector)
    degree = SMOKE_DEGREE if smoke else LAB_DEGREE
    ready = {"ready": setup.end, "setup_probe_s": setup.probe_s, "setup_factor": setup.factor()}

    import json

    if mode == "setup":
        print(json.dumps(ready))
        return 0

    tracer = probe = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install(twistedops)
        start = time.perf_counter()
        outcome = run_workload(twistedops, workload, J, blocks, seed, degree)
        wall_s = time.perf_counter() - start
        tracer.uninstall()
    else:
        with SpeedProbe() as probe:
            outcome = run_workload(twistedops, workload, J, blocks, seed, degree)
        wall_s = probe.wall_s

    import resource

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import refs

    if workload in VERIFY:
        report, controls = outcome
        n_a, wrong_a = refs.judge_report(selector, report.checks, required)
        n_b, wrong_b = refs.judge_controls(controls)
        attempted, wrong = n_a + n_b, wrong_a + wrong_b
        if (J.n, J.r) != refs.dimensions(selector):
            attempted, wrong = attempted + 1, wrong + [f"{selector}: n, r = {J.n}, {J.r}"]
        checks_ms = {c.name: c.elapsed_ms for c in report.checks}
    else:
        pairing, components = outcome
        n_a, wrong_a = refs.judge_pairing(pairing, degree)
        n_b, wrong_b = refs.judge_components(components, degree)
        attempted, wrong = n_a + n_b, wrong_a + wrong_b
        checks_ms = {}

    out = {
        **ready,
        "verdict_wall_s": wall_s,
        "rss_kb": rss_kb,
        "attempted": attempted,
        "wrong": wrong,
        "checks_ms": checks_ms,
    }
    if probe is not None:
        out["verdict_s"] = probe.scaled_s()
        out["probe_s"] = probe.probe_s
    if tracer is not None:
        out["layers"] = tracer.layer_stats()
        out["ratios"] = tracer.ratios()
        out["spans"] = tracer.span_count
        if spans is not None:
            tracer.write_spans(spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except SetupError as exc:
        sys.stderr.write(f"child: {exc}\n")
        sys.exit(2)
