"""netsmith benchmark: one closed-loop caller per workload, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: certify_sweep, sim_montecarlo, oracle_exhaustive, cli_pipeline
(see ``workloads.py`` and BENCHMARK.json for what each stresses).  The
item set of a workload is built from ``--seed``; a run repeats whole
passes over it, one item after another, until ``--seconds`` would be
exceeded (at least one pass).  Every item's output is checked after its
pass, outside the timed spans.

Every item's latency is taken as its median over the run's passes, so a
burst of load from elsewhere on the host that slows a few passes does not
move the figures.  ``items_per_s`` is the item count over the sum of
those medians (items per second of one pass at typical speed);
``item_ms_p50`` and ``item_ms_p90`` are quantiles of the same per-item
medians, over at least 100 items.  Before each pass the garbage
collector runs, outside the timing, so every pass starts from the same
heap.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which every public netsmith function
is wrapped in a span recorder (``tracer.py``); it reports the per-layer
metrics, per pass over the item set, and ``trace.overhead_ratio``.  Progress and metadata go to standard output
and the last line is one JSON object: correct, attempted, failed, metrics.
``failed`` counts every item run whose output check failed or that raised
(error_rate = failed / attempted); ``correct`` is false when any of those
is not a documented known defect (``Item.known_defect``).  A record of the
run is written to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import os

# Single-threaded BLAS: the workloads are serial, and threaded small-matrix
# eigensolves on a shared machine made item times vary several-fold.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify_sweep", "sim_montecarlo", "oracle_exhaustive",
             "cli_pipeline")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

END_TO_END = [
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _calls_and_self(prefix: str, names) -> list:
    return [(f"{prefix}.{n}.{k}", u) for n in names
            for k, u in (("calls", "count"), ("self_ms", "ms"))]


LAYERS = ("lti_core", "smith_design", "packet_channel", "gain_analysis",
          "stability_criteria", "lmi_assembly", "sim_engine", "cli")
CLI_COMMANDS = ("design", "check", "gain", "oracle", "simulate", "lmi")

# Per-layer metrics.  Counts and times are per pass over the item set, so
# counts repeat exactly from run to run at a given seed; a ratio is listed
# next to the counts it is made of.
PER_LAYER = (
    _calls_and_self("lti_core", ("inf_norm", "tf_arith", "realize"))
    + [("lti_core.roots.calls", "count")]
    + _calls_and_self("smith_design", ("make_design", "design_filter", "build_H"))
    + _calls_and_self("stability_criteria",
                      ("check_nominal", "check_uncertain", "max_certified_tau",
                       "nominal_loop_gains", "build_M"))
    + _calls_and_self("lmi_assembly",
                      ("assemble_augmented", "build_lmi", "verify_candidate"))
    + _calls_and_self("gain_analysis", ("oracle_gain",))
    + [("gain_analysis.oracle_gain.total_ms", "ms"),
       ("gain_analysis.assignments", "count"),
       ("gain_analysis.assignments_per_s", "1/s"),
       ("gain_analysis.alpha_formula.calls", "count")]
    + _calls_and_self("packet_channel", ("channel_step",))
    + [("packet_channel.receive_instants", "count"),
       ("packet_channel.holds", "count"),
       ("packet_channel.hold_ratio", "ratio"),
       ("packet_channel.uses", "count"),
       ("packet_channel.stale_uses", "count"),
       ("packet_channel.stale_use_ratio", "ratio")]
    + _calls_and_self("sim_engine", ("simulate", "simulate_sample_delay"))
    + [("sim_engine.simulate.total_ms", "ms"),
       ("sim_engine.steps", "count"),
       ("sim_engine.us_per_step", "us"),
       ("sim_engine.diverged_runs", "count")]
    + [(f"cli.{c}.self_ms", "ms") for c in CLI_COMMANDS]
    + [("cli.main.calls", "count"),
       ("cli.files_written", "count"),
       ("cli.bytes_written", "B")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [("bench.item.self_ms", "ms"),
       ("bench.items", "count"),
       ("trace.spans", "count"),
       ("trace.passes", "count"),
       ("trace.items_per_s_traced", "1/s"),
       ("trace.items_per_s_untraced", "1/s"),
       ("trace.overhead_ratio", "ratio")]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced item sets, for the self-test")
    return ap.parse_args(argv)


class Run:
    """Latencies, failures and per-pass counts of one measured phase."""

    def __init__(self):
        self.latencies: list[float] = []
        # Latencies of each item over the passes, by item key.
        self.by_item: dict[str, list] = {}
        self.passes = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: dict[str, tuple] = {}
        self.counts: dict[str, float] = {}

    def item_medians(self) -> list:
        """Each item's median latency over the passes, in seconds."""
        return [statistics.median(v) for v in self.by_item.values()]

    @property
    def items_per_s(self) -> float:
        medians = self.item_medians()
        return len(medians) / sum(medians)


def run_pass(workload, run: Run, tracer=None, pending=None) -> None:
    """Run every item once, then check the outputs.

    With a tracer, the netsmith functions are wrapped for the pass, each
    item runs inside a root span ``bench.item``, and spans are recorded
    only inside it; ``pending`` collects the results the tracer hooks hand
    over, turned into counts after the pass.
    """
    outputs = {}
    gc.collect()
    if tracer is not None:
        item_span = tracer.name_id("bench.item")
        tracer.install(netsmith)
    try:
        for item in workload.items:
            item.prepare()
            if tracer is not None:
                tracer.active = True
                span = tracer.open(item_span)
            t0 = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:  # the item fails; the run goes on
                result = wl.Raised(exc)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.active = False
            run.latencies.append(dt)
            run.by_item.setdefault(item.key, []).append(dt)
            outputs[item.key] = (result if isinstance(result, wl.Raised)
                                 else item.collect(result))
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.passes += 1
    for item in workload.items:
        try:
            reasons = item.check(outputs[item.key], outputs)
        except Exception:  # a crashing check is a failed item
            reasons = ["check raised: " + traceback.format_exc(limit=3)]
        if reasons:
            run.failed += 1
            run.unexpected += item.known_defect is None
            run.reasons.setdefault(item.key, (reasons, item.known_defect))
    counts = workload.tally(outputs)
    if pending is not None:
        counts.update(tally_traced(pending))
        pending.clear()
    for key, val in counts.items():
        run.counts[key] = run.counts.get(key, 0) + val


def measure(workload, budget_s: float, phases) -> None:
    """Repeat rounds of one pass per phase, a phase being the arguments
    ``(run, tracer, pending)`` of ``run_pass``, until another round would
    overrun ``budget_s``; at least one round runs."""
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for phase in phases:
            run_pass(workload, *phase)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (rounds + 1) / rounds > budget_s:
            return


def tally_traced(pending) -> dict:
    """Exact counts from results the tracer hooks captured in one pass."""
    import numpy as np  # imported with netsmith, inside the set-up timing
    c = dict.fromkeys(("gain_analysis.assignments", "sim_engine.steps",
                       "sim_engine.diverged_runs",
                       "packet_channel.receive_instants", "packet_channel.holds",
                       "packet_channel.uses", "packet_channel.stale_uses"), 0)
    for name, args, result in pending:
        if name == "gain_analysis.oracle_gain":
            c["gain_analysis.assignments"] += result.evaluations
            continue
        c["sim_engine.steps"] += len(result.k)
        c["sim_engine.diverged_runs"] += bool(result.diverged)
        if args[0].model != "packetized":
            continue
        sel = result.selected_index
        used = sel[sel >= 0]
        c["packet_channel.receive_instants"] += len(sel)
        c["packet_channel.holds"] += int(np.count_nonzero(sel < 0))
        c["packet_channel.uses"] += len(used)
        if len(used) > 1:
            newest = np.maximum.accumulate(used)[:-1]
            c["packet_channel.stale_uses"] += int(np.count_nonzero(used[1:] < newest))
    return c


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the netsmith
    modules the workloads use (numpy with them), over ``IMPORT_REPEATS``
    child processes run one at a time."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            "import netsmith, netsmith.cli, netsmith.presets; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", code, str(SRC)],
                               capture_output=True, text=True, timeout=60,
                               check=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def setup(args, workdir):
    """Build the seeded item set and warm up on the reduced set, which
    runs the same code paths at small sizes.  Returns the workload and
    the time taken."""
    t0 = time.perf_counter()
    build = wl.BUILDERS[args.workload]
    extra = (workdir,) if args.workload == "cli_pipeline" else ()
    warm = build(args.seed, *extra, smoke=True)
    for item in warm.items:
        item.prepare()
        try:
            item.collect(item.run())
        except Exception:  # warm-up only; the timed passes check outputs
            pass
    workload = build(args.seed, *extra, smoke=args.smoke)
    # Checks look their partner items up by key.
    if len({item.key for item in workload.items}) != len(workload.items):
        raise ValueError(f"{args.workload}: item keys are not unique")
    return workload, time.perf_counter() - t0


def end_to_end(run: Run, setup_s: float) -> dict:
    lat_ms = [x * 1e3 for x in run.item_medians()]
    return {
        "items_per_s": run.items_per_s,
        "item_ms_p50": statistics.median(lat_ms),
        "item_ms_p90": statistics.quantiles(lat_ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(summary: dict, traced: Run, untraced: Run, spans: int) -> dict:
    passes = traced.passes

    def per_pass(x):
        v = x / passes
        return int(v) if float(v).is_integer() else v

    def calls(name):
        return per_pass(summary.get(name, {}).get("calls", 0))

    def ms(name, key="self_s"):
        return summary.get(name, {}).get(key, 0.0) * 1e3 / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    for name, unit in PER_LAYER:
        head, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls(head)
        elif kind == "self_ms" and head in LAYERS:
            m[name] = sum(v["self_s"] for k, v in summary.items()
                          if k.startswith(head + ".")) * 1e3 / passes
        elif kind == "self_ms" and head.startswith("cli.") \
                and head[4:] in CLI_COMMANDS:
            m[name] = ms("cli.cmd_" + head[4:])
        elif kind == "self_ms":
            m[name] = ms(head)
        elif kind == "total_ms":
            m[name] = ms(head, "total_s")
    counts = {k: per_pass(v) for k, v in traced.counts.items()}
    m.update(counts)
    m["gain_analysis.assignments_per_s"] = ratio(
        counts["gain_analysis.assignments"],
        m["gain_analysis.oracle_gain.total_ms"] / 1e3)
    m["packet_channel.hold_ratio"] = ratio(counts["packet_channel.holds"],
                                           counts["packet_channel.receive_instants"])
    m["packet_channel.stale_use_ratio"] = ratio(counts["packet_channel.stale_uses"],
                                                counts["packet_channel.uses"])
    m["sim_engine.us_per_step"] = ratio(m["sim_engine.simulate.total_ms"] * 1e3,
                                        counts["sim_engine.steps"])
    m["bench.items"] = per_pass(len(traced.latencies))
    m["trace.spans"] = per_pass(spans)
    m["trace.passes"] = passes
    m["trace.items_per_s_traced"] = traced.items_per_s
    m["trace.items_per_s_untraced"] = untraced.items_per_s
    m["trace.overhead_ratio"] = traced.items_per_s / untraced.items_per_s
    return m


def git_sha():
    """HEAD commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(args) -> dict:
    import numpy as np
    src = hashlib.sha256()
    for path in sorted((SRC / "netsmith").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    why = None
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        why = {w["name"]: w["why"] for w in json.loads(spec.read_text())["workloads"]}
    return {
        "workload": args.workload,
        "why": (why or {}).get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netsmith" / "__init__.py").is_file():
        print(f"error: no netsmith sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    global netsmith, wl
    import netsmith
    import workloads as wl
    import_s = import_seconds()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            workload, dt = setup(args, workdir)
            times.append(dt)
        setup_s = import_s + statistics.median(times)

        main_run = Run()
        if args.trace == 0:
            measure(workload, args.seconds, [(main_run, None, None)])
            metrics = end_to_end(main_run, setup_s)
            spec = END_TO_END
            runs = [main_run]
        else:
            from tracer import Tracer
            pending = []
            hooks = {name: (lambda a, kw, result, name=name:
                            pending.append((name, a, result)))
                     for name in ("gain_analysis.oracle_gain",
                                  "sim_engine.simulate")}
            tracer = Tracer(on_return=hooks)
            traced = Run()
            # Untraced and traced passes alternate, so drift over the run
            # does not show up as tracing overhead.
            measure(workload, args.seconds,
                    [(main_run, None, None), (traced, tracer, pending)])
            metrics = per_layer(tracer.summary(), traced, main_run, len(tracer))
            tracer.save(OUT / f"spans-{args.workload}.npz")
            spec = PER_LAYER
            runs = [main_run, traced]
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)

    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    unexpected = sum(r.unexpected for r in runs)
    reasons = {}
    for r in runs:
        for key, val in r.reasons.items():
            reasons.setdefault(key, val)
    meta = metadata(args)
    meta.update(passes=[r.passes for r in runs], items=attempted,
                items_per_pass=len(workload.items),
                latency_samples=[len(r.latencies) for r in runs],
                items_per_s_all_samples=[len(r.latencies) / sum(r.latencies)
                                         for r in runs],
                import_s=import_s,
                error_rate=failed / attempted)
    for key, (why, known) in sorted(reasons.items()):
        tag = f"known defect, {known}" if known else "FAILED"
        print(f"{tag}: {key}: {'; '.join(why)}", file=sys.stderr)

    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result,
                    "failures": {k: {"reasons": v[0], "known_defect": v[1]}
                                 for k, v in reasons.items()}},
                   indent=2, sort_keys=True) + "\n")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {attempted} timed items "
          f"(latency samples {meta['latency_samples']}) in {meta['passes']} "
          f"passes of {meta['items_per_pass']} (latency quantiles over "
          f"{meta['items_per_pass']} per-item medians), error_rate "
          f"{failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, unit in spec:
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
