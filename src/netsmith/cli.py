"""Command line front end.

Subcommands cover the whole workflow: ``design`` builds a predictor
design from plant/controller/prefilter files, ``check`` certifies it for
a protocol, ``gain`` and ``oracle`` tabulate channel gains, ``simulate``
runs the closed loop, and ``lmi`` exports or verifies the delay-robust
feasibility problem.

Every file the tool writes gets a sibling ``<name>.manifest.json``
recording the sha256 of the output bytes and of the resolved
configuration, so reruns with the same arguments are byte-identical and
verifiable.  Nothing in the outputs depends on wall-clock time.
Randomized runs (random delay traces, random packet selection) refuse to
start without an explicit --seed.

Exit codes: 0 success or certified, 1 completed but not certified (or
infeasible), 2 usage or validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .gain_analysis import alpha_formula, alpha_T_closed_form, oracle_gain
from .lmi_assembly import assemble_augmented, build_lmi, problem_document, verify_candidate
from .lti_core import NumericError, RationalTF, roots
from .packet_channel import (P3_SELECTORS, PROTOCOL_KINDS, PacketTrace, Protocol,
                             uniform_trace, worst_case_trace)
from .sim_engine import SimScenario, simulate
from .smith_design import PredictorDesign, interpolation_residuals, make_design
from .stability_criteria import (check_nominal, check_uncertain, margin_sweep,
                                 max_certified_tau)

FLOAT_FMT = "%.17g"

VARIANT_ALIASES = {"i": "lifted", "ii": "compact",
                   "lifted": "lifted", "compact": "compact"}


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _config_dict(command: str, args: argparse.Namespace) -> dict:
    cfg = {}
    for key, val in vars(args).items():
        if key == "func":
            continue
        if isinstance(val, Path):
            val = str(val)
        cfg[key] = val
    cfg["command"] = command
    return cfg


def _write_output(path, text: str, config: dict) -> None:
    """Write text to path plus a sibling manifest with content hashes."""
    path = Path(path)
    data = text.encode("utf-8")
    path.write_bytes(data)
    config_blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(config_blob.encode("utf-8")).hexdigest(),
        "generator": "netsmith",
        "output": path.name,
        "output_sha256": hashlib.sha256(data).hexdigest(),
    }
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8")


def _emit(text: str, output, config: dict) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _write_output(output, text, config)


def _load_tf(path) -> RationalTF:
    return RationalTF.from_json(Path(path).read_text(encoding="utf-8"))


def _load_design(path) -> PredictorDesign:
    design = PredictorDesign.from_json(Path(path).read_text(encoding="utf-8"))
    design.validate()
    return design


def _design_at_tau(design: PredictorDesign, tau_bar: int) -> PredictorDesign:
    """Same design evaluated at a different residual delay bound."""
    if tau_bar < 0:
        raise ValueError("tau_bar must be non-negative")
    return dataclasses.replace(design, tau_n_max=design.tau_n_min + tau_bar)


def _parse_range(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {text!r}; expected N or LO:HI with 0 <= LO <= HI")
    return range(lo, hi + 1)


def cmd_design(args) -> int:
    plant = _load_tf(args.plant)
    controller = _load_tf(args.controller)
    prefilter = _load_tf(args.prefilter)
    design = make_design(plant, controller, prefilter,
                         d_hat=args.tau_plant,
                         tau_n_min=args.tau_net_min,
                         tau_n_max=args.tau_net_max,
                         lam=args.lam,
                         slow_pole_threshold=args.slow_pole_threshold)
    for node, order, res in interpolation_residuals(plant, design.filter,
                                                    design.tau_hat):
        print(f"interpolation residual at z={node:.6g} (order {order}): {res:.3e}")
    H = design.predictor_block
    if not H.is_zero and H.den.degree > 0:
        radii = sorted(float(r) for r in np.abs(roots(H.den)))
        print("prediction block pole radii: "
              + ", ".join(f"{r:.6f}" for r in radii))
    else:
        print("prediction block pole radii: none")
    print(f"compensated delay: {design.tau_hat} samples, "
          f"residual bound: {design.tau_bar}")
    _write_output(args.output, design.to_json() + "\n",
                  _config_dict("design", args))
    print(f"wrote {args.output}")
    return 0


def cmd_check(args) -> int:
    design = _load_design(args.design)
    protocol = Protocol(args.protocol)
    config = _config_dict("check", args)

    if args.scan:
        if args.tau_max is not None or args.bode is not None:
            raise ValueError("--scan finds the bound itself; it takes neither "
                             "--tau-max nor --bode")
        best = max_certified_tau(design, protocol, alpha_A=args.alpha_a)
        doc = {
            "alpha_a": args.alpha_a,
            "criterion": "uncertain" if args.alpha_a > 0 else "nominal",
            "max_certified_tau_bar": best,
            "protocol": protocol.label,
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output, config)
        return 0

    tau_bar = design.tau_bar if args.tau_max is None else args.tau_max
    at = _design_at_tau(design, tau_bar)
    # check_uncertain rejects every alpha_A but a finite one >= 0
    if args.alpha_a != 0:
        verdict = check_uncertain(at, protocol, alpha_A=args.alpha_a)
    else:
        verdict = check_nominal(at, protocol)
    if args.bode is not None:
        omega, mag_db = margin_sweep(at, protocol)
        lines = ["omega,mag_db"]
        lines += [f"{_fmt(w)},{_fmt(m)}" for w, m in zip(omega, mag_db)]
        _write_output(args.bode, "\n".join(lines) + "\n", config)
    _emit(verdict.to_json() + "\n", args.output, config)
    if args.output is not None:
        word = "certified" if verdict.certified else "not certified"
        print(f"{protocol.label} at tau_bar={tau_bar}: {word} "
              f"(margin {verdict.margin:.6g})")
    return 0 if verdict.certified else 1


def cmd_gain(args) -> int:
    kinds = PROTOCOL_KINDS if args.protocol is None else (args.protocol,)
    taus = _parse_range(args.tau_max_range)
    lines = ["tau_bar," + ",".join(f"alpha_{k}" for k in kinds)]
    for tb in taus:
        vals = [alpha_formula(Protocol(k), tb) for k in kinds]
        lines.append(f"{tb}," + ",".join(_fmt(v) for v in vals))
    _emit("\n".join(lines) + "\n", args.output, _config_dict("gain", args))
    return 0


def cmd_oracle(args) -> int:
    protocol = Protocol(args.protocol, selector=args.selector)
    result = oracle_gain(protocol, args.tau_max, args.horizon)
    config = _config_dict("oracle", args)
    alpha = alpha_formula(protocol, args.tau_max)
    lines = ["T,alpha_T,alpha_analytic",
             f"{result.T},{_fmt(result.alpha_T)},{_fmt(alpha)}"]
    _emit("\n".join(lines) + "\n", args.output, config)
    if args.trace_out is not None:
        _write_output(args.trace_out, result.trace.to_csv(), config)
    if args.output is not None:
        # the closed form is the exact worst case of oldest-first p3 only
        closed = ""
        if protocol.label == "p3-oldest" and args.tau_max >= 1:
            exact = alpha_T_closed_form(args.tau_max, args.horizon)
            closed = f"closed form {exact:.12g}, "
        print(f"alpha_T = {result.alpha_T:.12g} over {result.evaluations} traces "
              f"({closed}analytic bound {alpha:.12g})")
    return 0


def _delays_for(args, design: PredictorDesign) -> PacketTrace:
    source = args.delays
    if source == "pattern":
        base = worst_case_trace(args.steps, design.tau_bar)
        if design.tau_n_min == 0:
            return base
        shifted = tuple(t + design.tau_n_min for t in base.delays)
        return PacketTrace(shifted, design.tau_n_min, design.tau_n_max)
    if source == "random":
        if args.seed is None:
            raise ValueError("random delays need an explicit --seed")
        return uniform_trace(args.steps, design.tau_n_min, design.tau_n_max,
                             args.seed)
    return PacketTrace.from_csv(Path(source).read_text(encoding="utf-8"))


def cmd_simulate(args) -> int:
    design = _load_design(args.design)
    if args.protocol == "p3" and args.selector == "random" and args.seed is None:
        raise ValueError("random packet selection needs an explicit --seed")
    protocol = Protocol(args.protocol, selector=args.selector,
                        seed=args.seed if args.seed is not None else 0)
    if args.steps < 1:
        raise ValueError("horizon must be at least 1 step")
    trace = _delays_for(args, design)
    reference = np.full(args.steps, args.amplitude)
    scenario = SimScenario(design=design, protocol=protocol, trace=trace,
                           reference=reference, steps=args.steps,
                           model=args.model.replace("-", "_"))
    out = simulate(scenario)
    _emit(out.to_csv(), args.output, _config_dict("simulate", args))
    if out.diverged:
        print(f"output magnitude crossed 1e6 at step {out.divergence_step}",
              file=sys.stderr)
    return 0


def cmd_lmi(args) -> int:
    design = _load_design(args.design)
    if args.tau_net_max is not None:
        if args.tau_net_max < design.tau_n_min:
            raise ValueError(
                f"--tau-net-max {args.tau_net_max} is below the design's "
                f"minimum network delay {design.tau_n_min}")
        design = dataclasses.replace(design, tau_n_max=args.tau_net_max)
    model = assemble_augmented(design)
    variant = VARIANT_ALIASES[args.variant]
    problem = build_lmi(model, variant, args.gamma)
    config = _config_dict("lmi", args)

    if args.action == "sizes":
        doc = {
            "block_orders": list(model.block_orders),
            "free_parameter_count": problem.free_parameter_count,
            "gamma": problem.gamma,
            "n_xi": model.n_xi,
            "side": problem.side,
            "variable_count": problem.variable_count,
            "variant": variant,
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n",
              args.output, config)
        return 0

    if args.action == "export":
        out = args.output if args.output is not None else "lmi_problem.json"
        _write_output(out, problem_document(problem), config)
        print(f"wrote {out} (side {problem.side}, "
              f"{problem.variable_count} scalar unknowns)")
        return 0

    # verify
    if args.candidates is None:
        raise ValueError("verify needs a candidates file "
                         "(lmi DESIGN verify CANDIDATES.json)")
    raw = json.loads(Path(args.candidates).read_text(encoding="utf-8"))
    candidates = {name: np.asarray(mat, dtype=float) for name, mat in raw.items()}
    report = verify_candidate(problem, candidates)
    _emit(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
          args.output, config)
    return 0 if report.feasible else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netsmith",
        description="Design and certify predictor-based loops over lossy-order "
                    "packet channels with bounded time-varying delays.")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="build a predictor design from component files")
    d.add_argument("plant", help="delay-free nominal plant (JSON transfer function)")
    d.add_argument("controller", help="feedback controller (JSON transfer function)")
    d.add_argument("prefilter", help="reference prefilter (JSON transfer function)")
    d.add_argument("--lambda", dest="lam", type=float, default=0.9,
                   help="robustness filter pole (default 0.9)")
    d.add_argument("--tau-plant", type=int, required=True,
                   help="nominal plant delay in samples")
    d.add_argument("--tau-net-min", type=int, default=0,
                   help="minimum network delay in samples (default 0)")
    d.add_argument("--tau-net-max", type=int, required=True,
                   help="maximum network delay in samples")
    d.add_argument("--slow-pole-threshold", type=float, default=None,
                   help="also compensate stable poles with radius at least "
                        "this, in [0, 1)")
    d.add_argument("-o", "--output", default="design.json")
    d.set_defaults(func=cmd_design)

    c = sub.add_parser("check", help="certify a design for one protocol")
    c.add_argument("design")
    c.add_argument("--protocol", choices=PROTOCOL_KINDS, required=True)
    c.add_argument("--tau-max", type=int, default=None,
                   help="residual delay bound to certify (default: from design)")
    c.add_argument("--scan", action="store_true",
                   help="report the largest certified residual bound instead")
    c.add_argument("--alpha-a", type=float, default=0.0,
                   help="plant perturbation gain bound (default 0)")
    c.add_argument("--bode", default=None, metavar="CSV",
                   help="also write the scaled loop-gain frequency sweep")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=cmd_check)

    g = sub.add_parser("gain", help="tabulate analytic channel gains")
    g.add_argument("--protocol", choices=PROTOCOL_KINDS, default=None,
                   help="restrict to one protocol (default: all three)")
    g.add_argument("--tau-max-range", required=True, metavar="N|LO:HI",
                   help="residual delay bounds to tabulate")
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=cmd_gain)

    o = sub.add_parser("oracle",
                       help="exact finite-horizon worst-case channel gain "
                            "(dynamic program over packet delays)")
    o.add_argument("--protocol", choices=PROTOCOL_KINDS, required=True)
    o.add_argument("--tau-max", type=int, required=True,
                   help="residual delay bound")
    o.add_argument("--horizon", type=int, required=True,
                   help="last driven step T; mismatch energy is summed to T+2*tau")
    o.add_argument("--selector", choices=P3_SELECTORS, default="oldest",
                   help="packet selector for the third protocol (default "
                        "oldest; random has no worst case and is refused)")
    o.add_argument("--trace-out", default=None, metavar="CSV",
                   help="write a maximizing delay trace")
    o.add_argument("-o", "--output", default=None)
    o.set_defaults(func=cmd_oracle)

    s = sub.add_parser("simulate", help="run the closed loop and dump a trace")
    s.add_argument("design")
    s.add_argument("--protocol", choices=PROTOCOL_KINDS, required=True)
    s.add_argument("--selector", choices=P3_SELECTORS, default="oldest")
    s.add_argument("--delays", required=True, metavar="pattern|random|CSV",
                   help="adversarial pattern, seeded uniform draw, or a trace file")
    s.add_argument("--seed", type=int, default=None,
                   help="64-bit seed; required for any randomized choice")
    s.add_argument("--steps", type=int, default=300)
    s.add_argument("--amplitude", type=float, default=1.0,
                   help="step reference amplitude (default 1)")
    s.add_argument("--model", choices=("packetized", "sample-delay"),
                   default="packetized")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=cmd_simulate)

    m = sub.add_parser("lmi", help="export or verify the delay-robust "
                                   "feasibility problem")
    m.add_argument("design")
    m.add_argument("action", choices=("export", "sizes", "verify"))
    m.add_argument("candidates", nargs="?", default=None,
                   help="candidate matrices JSON (verify only)")
    m.add_argument("--variant", choices=tuple(VARIANT_ALIASES), default="ii",
                   help="i: delay-lifted form, ii: compact form (default ii)")
    m.add_argument("--gamma", type=float, default=0.9,
                   help="target disturbance attenuation level in (0, 1)")
    m.add_argument("--tau-net-max", type=int, default=None,
                   help="override the design's maximum network delay")
    m.add_argument("-o", "--output", default=None)
    m.set_defaults(func=cmd_lmi)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
