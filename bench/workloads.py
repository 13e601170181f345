"""The four benchmark workloads: seeded item sets plus their output checks.

Each builder returns a ``Workload``: a fixed list of items that one pass
runs in order.  An item's ``run`` is the timed call into netsmith; its
``collect`` turns the result into the record kept for checking (it runs
right after the item, outside the timed span); its ``check`` runs after
the pass and returns the reasons the item failed, an empty list if it
passed.  All library calls go through module attributes
(``sd.make_design``, not a name imported from the module), so the traced
run sees the wrapped functions.

Every item set is stratified: a seed changes the values inside each
stratum (filter poles, delay traces, amplitudes, order), never how many
items of each kind and size a pass holds, so the work per pass stays the
same from seed to seed.
"""
from __future__ import annotations

from dataclasses import dataclass
import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path
from typing import Any, Callable

import numpy as np

import netsmith.cli as cli
import netsmith.gain_analysis as ga
import netsmith.lmi_assembly as la
import netsmith.lti_core as lc
import netsmith.packet_channel as pc
import netsmith.presets as presets
import netsmith.sim_engine as se
import netsmith.smith_design as sd
import netsmith.stability_criteria as sc

PROTOCOLS = ("p1", "p2", "p3")
GAMMA = 0.9
EQUIV_TOL = 1e-9
GAIN_TOL = 1e-9


@dataclass
class Raised:
    """Record of an item whose call raised."""
    error: BaseException


@dataclass
class Item:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list]
    collect: Callable[[Any], Any] = lambda result: result
    # Runs before the timed call, e.g. to remove stale output files.
    prepare: Callable[[], None] = lambda: None
    # Reason this item is expected to fail until a known defect is fixed.
    known_defect: str | None = None


@dataclass
class Workload:
    items: list
    # Exact per-pass counts computed from the pass's item records.
    tally: Callable[[dict], dict] = lambda outputs: {}


def _raised(out, accept=()) -> list:
    """Failure reasons for an item record that holds an exception."""
    if isinstance(out, Raised):
        if isinstance(out.error, accept):
            return []
        return [f"raised {type(out.error).__name__}: {out.error}"]
    return []


# ---------------------------------------------------------------- certify


@dataclass
class CertifyOut:
    design: Any
    nominal: dict
    scans: dict
    uncertain: Any
    model: Any
    problems: list
    reports: list


def lifted_radius(model, tau: int) -> float:
    """Spectral radius of the constant-delay model
    xi[k+1] = A xi[k] + A_d xi[k - d_hat - tau], lifted to one matrix."""
    n = model.n_xi
    D = model.d_hat + tau
    L = np.zeros(((D + 1) * n, (D + 1) * n))
    L[:n, :n] = model.A_tilde
    L[:n, D * n:] += model.A_d_tilde
    L[n:, :-n] = np.eye(D * n)
    return float(np.max(np.abs(np.linalg.eigvals(L))))


def _certify_run(plant, controller, prefilter, d_hat, tmin, tmax, lam,
                 alpha_A, unc_kind):
    def run():
        design = sd.make_design(plant, controller, prefilter, d_hat=d_hat,
                                tau_n_min=tmin, tau_n_max=tmax, lam=lam)
        nominal, scans = {}, {}
        for kind in PROTOCOLS:
            proto = pc.Protocol(kind)
            nominal[kind] = sc.check_nominal(design, proto)
            scans[kind] = sc.max_certified_tau(design, proto)
        uncertain = sc.check_uncertain(design, pc.Protocol(unc_kind), alpha_A)
        model = la.assemble_augmented(design)
        problems = [la.build_lmi(model, "compact", GAMMA)]
        if tmax > tmin:
            problems.append(la.build_lmi(model, "lifted", GAMMA))
        reports = [la.verify_candidate(pb, {name: np.eye(dim) for name, dim
                                            in pb.unknowns.items()})
                   for pb in problems]
        return CertifyOut(design, nominal, scans, uncertain, model, problems,
                          reports)
    return run


def _certify_check(expected_scans=None, accept=()):
    def check(out, _outputs) -> list:
        if isinstance(out, Raised):
            return _raised(out, accept)
        bad = []
        d = out.design
        for node, order, res in sd.interpolation_residuals(
                d.plant_nominal, d.filter, d.tau_hat):
            if not res <= sd.INTERP_RESIDUAL_TOL:
                bad.append(f"interpolation residual {res:.3e} at {node} "
                           f"(order {order})")
        unc = out.uncertain
        zero = sc.check_uncertain(d, unc.protocol, 0.0)
        nom = out.nominal[unc.protocol.kind]
        if zero.verdict != nom.verdict or zero.margin != nom.margin:
            bad.append("check_uncertain(alpha_A=0) disagrees with check_nominal")
        for kind in PROTOCOLS:
            if (out.scans[kind] >= d.tau_bar) != out.nominal[kind].certified:
                bad.append(f"{kind}: scan {out.scans[kind]} contradicts the "
                           f"verdict at tau_bar {d.tau_bar}")
        if expected_scans is not None:
            got = tuple(out.scans[k] for k in PROTOCOLS)
            if got != expected_scans:
                bad.append(f"thresholds {got}, documented {expected_scans}")
        verdicts = list(out.nominal.values()) + [unc]
        if any(v.certified for v in verdicts):
            for tau in range(d.tau_n_min, d.tau_n_max + 1):
                rho = lifted_radius(out.model, tau)
                if not rho < 1.0:
                    bad.append(f"certified, but the constant-delay model at "
                               f"tau={tau} has spectral radius {rho:.6g}")
        n = out.model.n_xi
        for pb in out.problems:
            if pb.variant == "compact":
                want = (8 * n, la.compact_variable_count(n))
            else:
                want = ((d.d_hat + d.tau_n_max + 2) * n,
                        la.lifted_variable_count(n, d.d_hat, d.tau_n_max))
            if (pb.side, pb.variable_count) != want:
                bad.append(f"{pb.variant} LMI side/count "
                           f"{(pb.side, pb.variable_count)}, expected {want}")
        for rep in out.reports:
            if not math.isfinite(rep.lambda_max):
                bad.append("verify_candidate returned a non-finite eigenvalue")
        return bad
    return check


def build_certify_sweep(seed: int, smoke: bool = False) -> Workload:
    """A seeded grid over the demo family plus three fixed cases.

    Three items per (d_hat, tau_n_max) cell, d_hat 1..10 and tau_n_max
    1..4: the seed draws one filter pole from each third of [0.8, 0.97]
    and alpha_A in [0.01, 0.05] per item.  The fixed cases are the two
    documented threshold designs and the unstable-cancellation probe of
    ROADMAP item 2(b).
    """
    rng = np.random.default_rng(seed)
    plant = presets.demo_plant()
    controller = presets.demo_controller()
    prefilter = presets.demo_prefilter()
    d_hats = (1, 5) if smoke else range(1, 11)
    tau_maxes = (1, 2) if smoke else range(1, 5)
    lam_edges = np.linspace(0.8, 0.97, 2 if smoke else 4)
    items = []
    for d_hat in d_hats:
        for tmax in tau_maxes:
            tmin = len(items) % 2 if tmax >= 2 else 0
            for lo, hi in zip(lam_edges[:-1], lam_edges[1:]):
                lam = float(rng.uniform(lo, hi))
                alpha_A = float(rng.uniform(0.01, 0.05))
                items.append(Item(
                    key=f"grid-d{d_hat}-t{tmin}:{tmax}-lam{lam:.4f}",
                    run=_certify_run(plant, controller, prefilter, d_hat, tmin,
                                     tmax, lam, alpha_A,
                                     PROTOCOLS[len(items) % 3]),
                    check=_certify_check()))
    for lam, want in ((0.9, (3, 2, 2)), (0.95, (4, 3, 2))):
        items.append(Item(
            key=f"threshold-lam{lam}",
            run=_certify_run(plant, controller, prefilter, 5, 0, 2, lam, 0.02,
                             "p1"),
            check=_certify_check(expected_scans=want)))
    # The controller zero at 1.051 cancels the unstable plant pole; the
    # loop is internally unstable, so "certified" is wrong here.  A
    # NumericError or a not-certified verdict is the correct outcome.
    cancelling = lc.RationalTF([5.0, -5.0 * 1.051], [1.0, -0.5])
    items.append(Item(
        key="roadmap-2b-unstable-cancellation",
        run=_certify_run(plant, cancelling, prefilter, 5, 0, 2, 0.9, 0.02,
                         "p1"),
        check=_certify_check(accept=(lc.NumericError,)),
        known_defect="ROADMAP open item 2(b): check_nominal certifies a loop "
                     "whose unstable plant pole is cancelled by the "
                     "controller zero (spectral radius 1.051)"))
    order = rng.permutation(len(items))
    return Workload([items[i] for i in order])


# ---------------------------------------------------------------- simulate


def _sim_check(scenario, certified: bool, partner: str | None = None,
               contrast: str | None = None):
    tau_max = scenario.trace.tau_max

    def check(out, outputs) -> list:
        if isinstance(out, Raised):
            return _raised(out)
        bad = []
        n = len(out.k)
        if not out.diverged and n != scenario.steps:
            bad.append(f"{n} records for {scenario.steps} steps")
        if scenario.model == "packetized":
            sel = out.selected_index
            k = out.k
            used = sel >= 0
            if np.any(used & ((sel < k - tau_max) | (sel > k))):
                bad.append("selected index outside [k - tau_max, k]")
            if scenario.protocol.kind == "p1" and np.any(np.diff(sel[used]) <= 0):
                bad.append("p1 used an index not newer than its last")
        if certified and out.diverged:
            bad.append(f"certified pair diverged at step {out.divergence_step}")
        if partner is not None:
            other = outputs.get(partner)
            if not isinstance(other, se.SimTrace) or len(other.y) != n:
                bad.append(f"no comparable output from {partner}")
            elif not np.max(np.abs(out.y - other.y)) <= EQUIV_TOL:
                bad.append("constant-delay packetized and sample-delay outputs "
                           "differ by more than 1e-9")
        if contrast == "escapes" and not np.any(np.abs(out.y) > 10.0):
            bad.append("contrast: stale-reading selection did not escape |y|>10")
        if contrast == "bounded" and (out.diverged or out.y.min() < -1.0 - 1e-9
                                      or out.y.max() > 3.0 + 1e-9):
            bad.append("contrast: freshest-only selection left [-1, 3]")
        return bad
    return check


def build_sim_montecarlo(seed: int, smoke: bool = False) -> Workload:
    """Packetized and sample-delay scenarios over fixed designs.

    Three designs of the demo plant, each certified for every protocol at
    its own bounds (filter pole 0.9 with delays [0, 2], 0.95 with [1, 3],
    0.9 with [2, 3]), run every protocol on two seeded uniform traces and
    on the adversarial pattern, at a short and a long horizon, plus the
    sample-delay model of each trace.  Constant-delay pairs check the two
    models against each other; the contrast pair (filter pole 0.85,
    delays [0, 4], adversarial pattern) checks that stale-reading
    selection escapes where freshest-only does not.
    """
    rng = np.random.default_rng(seed)
    short, long_ = (60, 200) if smoke else (300, 2000)
    designs = {"a": presets.demo_design(lam=0.9, tau_n_min=0, tau_n_max=2),
               "b": presets.demo_design(lam=0.95, tau_n_min=1, tau_n_max=3),
               "c": presets.demo_design(lam=0.9, tau_n_min=2, tau_n_max=3)}
    protocols = [pc.Protocol("p1"), pc.Protocol("p2"),
                 pc.Protocol("p3", selector="oldest")]
    items = []
    verdicts = {}

    def add(key, design, protocol, trace, steps, model="packetized",
            amplitude=1.0, **check_kw):
        scenario = se.SimScenario(design=design, protocol=protocol,
                                  trace=trace, steps=steps, model=model,
                                  reference=np.full(steps, amplitude))
        pair = (id(design), protocol.kind)
        if pair not in verdicts:
            verdicts[pair] = sc.check_nominal(design, protocol).certified
        certified = model == "packetized" and verdicts[pair]
        items.append(Item(key=key, run=lambda: se.simulate(scenario),
                          check=_sim_check(scenario, certified, **check_kw)))

    for dname, design in designs.items():
        p3_random = pc.Protocol("p3", selector="random",
                                seed=int(rng.integers(2**63)))
        for steps in (short, long_):
            base = pc.worst_case_trace(steps, design.tau_bar)
            traces = [("pattern", pc.PacketTrace(
                tuple(t + design.tau_n_min for t in base.delays),
                design.tau_n_min, design.tau_n_max))]
            for rep in range(1 if smoke else 2):
                traces.append((f"uniform{rep}", pc.uniform_trace(
                    steps, design.tau_n_min, design.tau_n_max,
                    int(rng.integers(2**63)))))
            for tname, trace in traces:
                for proto in protocols + [p3_random]:
                    add(f"{dname}-{tname}-{steps}-{proto.label}", design,
                        proto, trace, steps,
                        amplitude=float(rng.uniform(0.5, 2.0)))
                add(f"{dname}-{tname}-{steps}-sample_delay", design,
                    protocols[0], trace, steps, model="sample_delay",
                    amplitude=float(rng.uniform(0.5, 2.0)))
    for dname in ("a", "b"):
        design = designs[dname]
        for c in range(design.tau_n_min, design.tau_n_max + 1):
            trace = pc.PacketTrace((c,) * short, design.tau_n_min,
                                   design.tau_n_max)
            amplitude = float(rng.uniform(0.5, 2.0))
            pk = f"{dname}-const{c}-packetized"
            add(pk, design, protocols[0], trace, short, amplitude=amplitude)
            add(f"{dname}-const{c}-sample_delay", design, protocols[0], trace,
                short, model="sample_delay", amplitude=amplitude, partner=pk)
    contrast = presets.demo_design(lam=0.85, tau_n_max=4)
    trace = pc.worst_case_trace(300, 4)
    add("contrast-p3-oldest", contrast, protocols[2], trace, 300,
        contrast="escapes")
    add("contrast-p1", contrast, protocols[0], trace, 300, contrast="bounded")
    return Workload([items[i] for i in rng.permutation(len(items))])


# ---------------------------------------------------------------- oracle


def _oracle_check(kind: str, tau_bar: int, T: int, v_bar: float):
    def check(out, _outputs) -> list:
        if isinstance(out, Raised):
            return _raised(out)
        bad = []
        bound = ga.alpha_formula(pc.Protocol(kind), tau_bar)
        if not out.alpha_T <= bound + GAIN_TOL:
            bad.append(f"alpha_T {out.alpha_T!r} above the analytic bound "
                       f"{bound!r}")
        if kind == "p3":
            closed = ga.alpha_T_closed_form(tau_bar, T, v_bar)
            if not abs(out.alpha_T - closed) <= GAIN_TOL:
                bad.append(f"alpha_T {out.alpha_T!r} differs from the closed "
                           f"form {closed!r}")
        return bad
    return check


# Largest horizon per tau_bar: 2**17, 3**11 and 4**9 assignments, up to
# about 2.6e5, so a pass takes a few seconds and a run holds several
# passes to take each item's median over.
ORACLE_HORIZONS = {1: 16, 2: 10, 3: 8}
SMOKE_ORACLE_HORIZONS = {1: 8, 2: 5, 3: 4}


def build_oracle_exhaustive(seed: int, smoke: bool = False) -> Workload:
    """Every horizon T = 0..T_max for p1, p2 and p3-oldest at tau_bar 1..3,
    serial enumeration; the seed draws each case's amplitude v_bar and
    the order.  The p3 newest/random selectors are left out on purpose
    (ROADMAP item 3 may make them raise)."""
    rng = np.random.default_rng(seed)
    horizons = SMOKE_ORACLE_HORIZONS if smoke else ORACLE_HORIZONS
    items = []
    for kind in PROTOCOLS:
        for tau_bar, t_max in horizons.items():
            for T in range(t_max + 1):
                v_bar = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
                proto = pc.Protocol(kind)
                items.append(Item(
                    key=f"{kind}-tb{tau_bar}-T{T}",
                    run=(lambda proto=proto, tb=tau_bar, T=T, v=v_bar:
                         ga.oracle_gain(proto, tb, T, v)),
                    check=_oracle_check(kind, tau_bar, T, v_bar)))
    return Workload([items[i] for i in rng.permutation(len(items))])


# ---------------------------------------------------------------- cli


@dataclass
class CliOut:
    code: int
    stdout: str
    stderr: str
    files: dict


def _cli_outputs(argv) -> list:
    """Files a command writes: every -o/--bode/--trace-out target and its
    manifest."""
    out = []
    for flag in ("-o", "--bode", "--trace-out"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            out += [path, path + ".manifest.json"]
    return out


def _cli_run(argv):
    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        return code, stdout.getvalue(), stderr.getvalue()
    return run


def _cli_collect(argv):
    paths = _cli_outputs(argv)

    def collect(result):
        code, stdout, stderr = result
        files = {p: Path(p).read_bytes() for p in paths if os.path.exists(p)}
        return CliOut(code, stdout, stderr, files)
    return collect


def _cli_prepare(argv):
    """Remove a command's outputs left by an earlier run, so the check
    sees only what this run wrote."""
    paths = _cli_outputs(argv)

    def prepare():
        for p in paths:
            if os.path.exists(p):
                os.remove(p)
    return prepare


def _cli_tally(outputs: dict) -> dict:
    records = [o for o in outputs.values() if isinstance(o, CliOut)]
    return {"cli.files_written": sum(len(o.files) for o in records),
            "cli.bytes_written": sum(len(b) for o in records
                                     for b in o.files.values())}


def _expected_code(expect, out: CliOut) -> int:
    """Documented exit code: a fixed number, or one derived from the
    command's own output document."""
    if isinstance(expect, int):
        return expect
    doc = json.loads(out.files[expect[1]])
    if expect[0] == "verdict":
        return 0 if doc["verdict"] == "certified" else 1
    return 0 if doc["feasible"] else 1


def _cli_check(argv, expect, twin: str | None):
    paths = _cli_outputs(argv)

    def check(out, outputs) -> list:
        if isinstance(out, Raised):
            return _raised(out)
        bad = []
        missing = [p for p in paths if p not in out.files]
        if missing:
            return [f"exit code {out.code}, missing outputs {missing}: "
                    f"{out.stderr.strip()[:200]}"]
        want = _expected_code(expect, out)
        if out.code != want:
            bad.append(f"exit code {out.code}, documented {want}: "
                       f"{out.stderr.strip()[:200]}")
        for p in paths[::2]:  # each output; its manifest follows it
            manifest = json.loads(out.files[p + ".manifest.json"])
            if manifest["output_sha256"] != hashlib.sha256(out.files[p]).hexdigest():
                bad.append(f"manifest hash of {p} does not match its bytes")
        if twin is not None:
            first = outputs.get(twin)
            if not isinstance(first, CliOut) or first.files != out.files \
                    or first.code != out.code or first.stdout != out.stdout:
                bad.append("rerun is not byte-identical to the first run")
        return bad
    return check


CLI_DELAYS = (("a", 0, 2), ("b", 1, 3), ("c", 0, 1), ("d", 0, 3), ("e", 1, 2))


def build_cli_pipeline(seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """The README walkthrough, every command run twice in a row.

    Five designs of the demo plant (seeded filter poles in [0.85, 0.95],
    delay bounds from ``CLI_DELAYS``; two in the reduced set) go through
    design, check --scan for each protocol, check --bode at a seeded
    protocol and bound, two simulations of seeded lengths, and lmi
    sizes/export/verify; then gain, three oracle cases and two documented
    usage errors.  The second run of each
    command must reproduce the first byte for byte.  Commands use paths
    relative to ``workdir`` so outputs and manifests are identical from
    run to run.
    """
    rng = np.random.default_rng(seed)
    for name, tf in (("plant", presets.demo_plant()),
                     ("controller", presets.demo_controller()),
                     ("prefilter", presets.demo_prefilter())):
        (workdir / f"{name}.json").write_text(tf.to_json())
    commands = []  # (argv, expected exit)
    for tag, tmin, tmax in CLI_DELAYS[:2] if smoke else CLI_DELAYS:
        lam = float(rng.uniform(0.85, 0.95))
        # The two simulations share 600 steps, so a pass's work does not
        # depend on the seed.
        steps = int(rng.integers(200, 401))
        sim_steps = ("60", "60") if smoke else (str(steps), str(600 - steps))
        design = presets.demo_design(lam=lam, tau_n_min=tmin, tau_n_max=tmax)
        n_xi = la.assemble_augmented(design).n_xi
        cand = f"candidates_{tag}.json"
        (workdir / cand).write_text(json.dumps(
            {k: np.eye(n_xi).tolist() for k in ("P", "Q1", "Q2", "R1", "R2", "S")}))
        dfile = f"design_{tag}.json"
        commands.append((["design", "plant.json", "controller.json",
                          "prefilter.json", "--lambda", repr(lam),
                          "--tau-plant", "5", "--tau-net-min", str(tmin),
                          "--tau-net-max", str(tmax), "-o", dfile], 0))
        for kind in PROTOCOLS:
            commands.append((["check", dfile, "--protocol", kind, "--scan",
                              "-o", f"scan_{tag}_{kind}.json"], 0))
        verdict = f"verdict_{tag}.json"
        commands.append((["check", dfile, "--protocol", str(rng.choice(PROTOCOLS)),
                          "--tau-max", str(int(rng.integers(1, 5))),
                          "--bode", f"bode_{tag}.csv", "-o", verdict],
                         ("verdict", verdict)))
        commands.append((["simulate", dfile, "--protocol",
                          str(rng.choice(PROTOCOLS)), "--delays", "pattern",
                          "--steps", sim_steps[0], "--amplitude",
                          repr(float(rng.uniform(0.5, 2.0))),
                          "-o", f"sim_pattern_{tag}.csv"], 0))
        commands.append((["simulate", dfile, "--protocol", "p3", "--selector",
                          "random", "--delays", "random", "--seed",
                          str(int(rng.integers(2**63))), "--steps", sim_steps[1],
                          "-o", f"sim_random_{tag}.csv"], 0))
        commands.append((["lmi", dfile, "sizes", "--variant", "ii",
                          "-o", f"sizes_{tag}.json"], 0))
        commands.append((["lmi", dfile, "export", "--variant", "i",
                          "-o", f"lmi_{tag}.json"], 0))
        report = f"verify_{tag}.json"
        commands.append((["lmi", dfile, "verify", cand, "--variant", "ii",
                          "-o", report], ("feasible", report)))
    commands.append((["gain", "--tau-max-range", f"0:{int(rng.integers(4, 9))}",
                      "-o", "gain.csv"], 0))
    for tau_bar, horizon in ((1, 8), (2, 6), (3, 5)):
        commands.append((["oracle", "--protocol", str(rng.choice(PROTOCOLS)),
                          "--tau-max", str(tau_bar), "--horizon", str(horizon),
                          "--trace-out", f"oracle_trace_{tau_bar}.csv",
                          "-o", f"oracle_{tau_bar}.csv"], 0))
    commands.append((["lmi", "design_a.json", "verify", "--variant", "ii"], 2))
    commands.append((["simulate", "design_a.json", "--protocol", "p3",
                      "--selector", "random", "--delays", "pattern"], 2))

    items = []
    for i, (argv, expect) in enumerate(commands):
        first = f"{i:02d}-{argv[0]}"
        for key, twin in ((first, None), (first + "-rerun", first)):
            items.append(Item(key=key, run=_cli_run(argv),
                              collect=_cli_collect(argv),
                              prepare=_cli_prepare(argv),
                              check=_cli_check(argv, expect, twin)))
    return Workload(items, _cli_tally)


BUILDERS = {
    "certify_sweep": build_certify_sweep,
    "sim_montecarlo": build_sim_montecarlo,
    "oracle_exhaustive": build_oracle_exhaustive,
    "cli_pipeline": build_cli_pipeline,
}
