"""Closed-loop simulation: packetized loop and sample-delay abstraction."""

import warnings

import numpy as np
import pytest

from channel_reference import ChannelState, channel_step
from conftest import prefiltered
from netsmith.cli import main
from netsmith.lmi_assembly import assemble_augmented
from netsmith.lti_core import RationalTF, realize
from netsmith.packet_channel import (PacketTrace, Protocol, held_index, uniform_trace,
                                     worst_case_trace)
from netsmith.presets import demo_design
from netsmith.sim_engine import (DIVERGENCE_LIMIT, SimScenario, SimTrace, simulate,
                                 simulate_sample_delay)
from netsmith.smith_design import PredictorDesign, make_design
import netsmith.lmi_assembly as la
import netsmith.sim_engine as se
import netsmith.smith_design as sd
from netsmith.presets import demo_controller, demo_plant, demo_prefilter


def _constant_trace(c, steps, lo, hi):
    return PacketTrace((c,) * steps, lo, hi)


def _run(design, kind, trace, steps, model="packetized", amplitude=1.0,
         selector="oldest"):
    scenario = SimScenario(design=design, protocol=Protocol(kind, selector=selector),
                           trace=trace, reference=np.full(steps, amplitude),
                           steps=steps, model=model)
    return simulate(scenario)


def _sample_delay_y(design, trace, steps, amplitude=1.0, disturbance=None):
    """Measured output of the A_d_tilde model, iterated literally."""
    r_V = prefiltered(design, np.full(steps, amplitude))
    _, y = simulate_sample_delay(assemble_augmented(design), trace.delays, steps,
                                 reference=r_V, disturbance=disturbance)
    return y


def _reference_packetized(scenario):
    """The packetized loop stepped as five separate realizations.

    An independent slow reference for ``simulate``: the plant, prediction
    block, filter, controller and prefilter each advance on their own, the
    measured output runs through a d_hat-sample shift list and every sent
    sample is kept in a growing list for the channel.
    """
    design = scenario.design
    sp = realize(design.plant_nominal)
    sh = realize(design.predictor_block)
    sf = realize(design.filter)
    sc = realize(design.controller)
    sv = realize(design.prefilter)

    n = scenario.steps
    r = np.zeros(n)
    r[:len(scenario.reference)] = scenario.reference[:n]
    w = np.zeros(n)
    if scenario.disturbance is not None:
        w[:len(scenario.disturbance)] = scenario.disturbance[:n]
    x_p, x_h, x_f, x_c, x_v = (np.zeros(s.order) for s in (sp, sh, sf, sc, sv))
    ybuf = [0.0] * design.d_hat
    state = ChannelState()
    sent = []

    rec = {name: np.zeros(n) for name in ("r", "u", "y", "y_hat", "y_F", "y_H")}
    sel = np.zeros(n, dtype=int)
    div_step = None
    last = n
    for k in range(n):
        y_raw = sp.c @ x_p
        y_k = ybuf[0] if design.d_hat else y_raw
        sent.append(y_k)
        state.send(k, k + scenario.trace.delays[k])
        y_hat = channel_step(state, scenario.protocol, k, sent)
        y_f = sf.c @ x_f + sf.d * y_hat
        y_h = sh.c @ x_h
        r_v = sv.c @ x_v + sv.d * r[k]
        e = r_v - y_f - y_h
        u = sc.c @ x_c + sc.d * e

        rec["r"][k] = r[k]
        rec["u"][k] = u
        rec["y"][k] = y_k
        rec["y_hat"][k] = y_hat
        rec["y_F"][k] = y_f
        rec["y_H"][k] = y_h
        sel[k] = state.selected_index
        if abs(y_k) > DIVERGENCE_LIMIT:
            div_step = k
            last = k + 1
            break

        x_p = sp.A @ x_p + sp.b * (u + w[k])
        x_h = sh.A @ x_h + sh.b * u
        x_f = sf.A @ x_f + sf.b * y_hat
        x_c = sc.A @ x_c + sc.b * e
        x_v = sv.A @ x_v + sv.b * r[k]
        if design.d_hat:
            ybuf.pop(0)
            ybuf.append(y_raw)

    return SimTrace(k=np.arange(last), r=rec["r"][:last], u=rec["u"][:last],
                    y=rec["y"][:last], y_hat=rec["y_hat"][:last],
                    y_F=rec["y_F"][:last], y_H=rec["y_H"][:last],
                    selected_index=sel[:last], divergence_step=div_step)


def _differential_cases():
    """(label, design, trace, disturbance) over certified and diverging loops."""
    demo = demo_design()
    shifted = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                          d_hat=5, tau_n_min=1, tau_n_max=3)
    contrast = demo_design(lam=0.85, tau_n_max=4)
    load = np.zeros(300)
    load[80:] = 0.2
    pattern = worst_case_trace(300, 2)
    return [
        ("demo-pattern", demo, pattern, None),
        ("demo-uniform", demo, uniform_trace(300, 0, 2, 11), None),
        ("demo-pattern-load", demo, pattern, load),
        ("shifted-pattern", shifted,
         PacketTrace(tuple(t + 1 for t in pattern.delays), 1, 3), None),
        ("shifted-uniform-load", shifted, uniform_trace(300, 1, 3, 12), load),
        ("contrast-pattern", contrast, worst_case_trace(1300, 4), None),
        ("contrast-uniform", contrast, uniform_trace(400, 0, 4, 13), None),
    ]


LABELS = [("p1", "oldest"), ("p2", "oldest"), ("p3", "oldest"), ("p3", "random")]


def _assert_matches_reference(scenario, label):
    """simulate against the five-realization loop; returns the reference."""
    got = simulate(scenario)
    want = _reference_packetized(scenario)
    assert np.array_equal(got.selected_index, want.selected_index), label
    assert (got.diverged, got.divergence_step) == (
        want.diverged, want.divergence_step), label
    for name in ("k", "r", "u", "y", "y_hat", "y_F", "y_H"):
        a, b = getattr(got, name), getattr(want, name)
        scale = max(1.0, float(np.max(np.abs(b))))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale, (label, name)
    return want


def _assert_matches_sample_delay(design, trace, steps, amplitude, label):
    """The sample-delay scenario against the A_d_tilde iteration."""
    got = simulate(SimScenario(design=design, protocol=Protocol("p1"), trace=trace,
                               reference=np.full(steps, amplitude), steps=steps,
                               model="sample_delay"))
    want = _sample_delay_y(design, trace, steps, amplitude=amplitude)
    assert len(got.y) == steps and not got.diverged, label
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got.y - want)) <= 1e-12 * scale, label


@pytest.mark.parametrize("kind,selector", LABELS)
def test_packetized_matches_reference_loop(kind, selector):
    protocol = Protocol(kind, selector=selector, seed=5)
    diverging = 0
    for label, design, trace, dist in _differential_cases():
        steps = len(trace)
        scenario = SimScenario(design=design, protocol=protocol, trace=trace,
                               reference=np.full(steps, 1.5), steps=steps,
                               disturbance=dist)
        diverging += _assert_matches_reference(scenario, label).diverged
    # oldest-first selection escapes on the contrast pattern, so the
    # divergence cut-off is compared too
    assert diverging == (kind == "p3" and selector == "oldest")


def _least_staleness(scenario):
    """min_k (k - held_k) over the steps that read a packet; simulate
    advances d_hat + 1 + this many steps at a time."""
    n = scenario.steps
    held = held_index(scenario.trace, scenario.protocol, n)
    read = held >= 0
    return int((np.arange(n)[read] - held[read]).min(initial=n))


@pytest.mark.parametrize("d_hat,tau_n_min,tau_n_max", [(1, 0, 2), (12, 0, 3), (11, 2, 4)])
def test_lifted_loop_edges(d_hat, tau_n_min, tau_n_max):
    """Shortest blocks (L = 2), long ones (d_hat >= 10), horizons shorter
    than a block and horizons that end inside one."""
    design = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                         d_hat=d_hat, tau_n_min=tau_n_min, tau_n_max=tau_n_max)
    span = tau_n_max - tau_n_min
    lengths, short, ragged = set(), False, False
    for steps in (1, 2, 3, d_hat + 1, d_hat + 2, 5 * d_hat + 7, 157):
        pattern = PacketTrace(tuple(t + tau_n_min for t in
                                    worst_case_trace(steps, span).delays),
                              tau_n_min, tau_n_max)
        uniform = uniform_trace(steps, tau_n_min, tau_n_max, steps)
        for tname, trace in (("pattern", pattern), ("uniform", uniform)):
            label = f"{tname}-{steps}"
            for kind, selector in LABELS:
                scenario = SimScenario(design=design,
                                       protocol=Protocol(kind, selector=selector, seed=3),
                                       trace=trace, reference=np.full(steps, 0.7),
                                       steps=steps)
                _assert_matches_reference(scenario, (label, kind, selector))
                L = design.d_hat + 1 + _least_staleness(scenario)
                lengths.add(L)
                short |= steps < L
                # the states 1 .. steps-1 fill whole blocks only when L divides
                ragged |= (steps - 1) % L > 0
            _assert_matches_sample_delay(design, trace, steps, 0.7, label)
    assert short and ragged
    assert (2 in lengths) == (d_hat == 1)


def test_divergence_cut_off_at_every_block_offset():
    """The first crossing of DIVERGENCE_LIMIT lands on each row of a block
    in turn, and is cut off at the same step as in the reference loop.

    A horizon far past the crossing must neither warn nor change the
    records.
    """
    design = demo_design(lam=0.85, tau_n_max=4)
    for steps in (1300, 80000):
        trace = worst_case_trace(steps, 4)

        def scenario(amplitude):
            return SimScenario(design=design, protocol=Protocol("p3"), trace=trace,
                               reference=np.full(steps, amplitude), steps=steps)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = _assert_matches_reference(scenario(1.0), steps)
            assert unit.divergence_step == 1116
            # the loop is linear from rest, so scaling the reference moves
            # the crossing to any step where |y| sets a new record
            peak = np.abs(unit.y)
            before = np.maximum.accumulate(np.append(0.0, peak[:-1]))
            L = design.d_hat + 1 + _least_staleness(scenario(1.0))
            first = {}
            for k in np.flatnonzero((before > 0) & (peak > 1.01 * before)):
                # block rows run d_hat + bL + 1 .. d_hat + bL + L
                first.setdefault((k - design.d_hat - 1) % L, k)
            assert sorted(first) == list(range(L))
            for offset, k in sorted(first.items()):
                amplitude = DIVERGENCE_LIMIT / np.sqrt(peak[k] * before[k])
                want = _assert_matches_reference(scenario(amplitude), (steps, offset))
                assert want.divergence_step == k


def test_diverging_run_stops_near_its_crossing(monkeypatch):
    """A diverging run makes at most about twice the block products up to
    its crossing, whatever its horizon."""
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ other

    lifted = se._lifted

    def counted(*args):
        step, forced = lifted(*args)
        return step.view(Counted), forced

    monkeypatch.setattr(se, "_lifted", counted)
    design = demo_design(lam=0.85, tau_n_max=4)
    for steps in (1300, 80000):
        scenario = SimScenario(design=design, protocol=Protocol("p3"),
                               trace=worst_case_trace(steps, 4),
                               reference=np.ones(steps), steps=steps)
        products.clear()
        assert simulate(scenario).divergence_step == 1116
        L = design.d_hat + 1 + _least_staleness(scenario)
        assert 1116 // L <= len(products) <= 2 * (1116 // L + 1)


@pytest.mark.parametrize("model", ["packetized", "sample_delay"])
def test_biproper_plant_is_rejected(model, tmp_path):
    d = make_design(RationalTF([0.5, -0.2], [1.0, -0.6]), demo_controller(),
                    demo_prefilter(), d_hat=3, tau_n_min=0, tau_n_max=2)
    with pytest.raises(ValueError, match="strictly proper"):
        _run(d, "p1", worst_case_trace(20, 2), 20, model=model)
    path = tmp_path / "biproper.json"
    path.write_text(d.to_json() + "\n")
    assert main(["simulate", str(path), "--protocol", "p1", "--delays", "pattern",
                 "--steps", "20", "--model", model.replace("_", "-")]) == 2


@pytest.mark.parametrize("c", [0, 1, 2])
def test_cross_model_agreement_constant_delay(c):
    d = demo_design()
    tr = _constant_trace(c, 200, 0, 2)
    pk = _run(d, "p1", tr, 200)
    assert np.max(np.abs(pk.y - _sample_delay_y(d, tr, 200))) < 1e-9


@pytest.mark.parametrize("c", [1, 2, 3])
def test_cross_model_agreement_with_transport_minimum(c):
    d = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                    d_hat=5, tau_n_min=1, tau_n_max=3)
    tr = _constant_trace(c, 200, 1, 3)
    pk = _run(d, "p1", tr, 200)
    assert np.max(np.abs(pk.y - _sample_delay_y(d, tr, 200))) < 1e-9


def test_protocols_agree_under_constant_delay():
    d = demo_design()
    tr = _constant_trace(2, 150, 0, 2)
    outs = [_run(d, kind, tr, 150, selector=sel).y
            for kind, sel in [("p1", "oldest"), ("p2", "oldest"),
                              ("p3", "oldest"), ("p3", "random")]]
    for other in outs[1:]:
        assert np.array_equal(outs[0], other)


def test_loop_is_linear_in_the_reference():
    d = demo_design()
    tr = worst_case_trace(120, 2)
    one = _run(d, "p1", tr, 120, amplitude=1.0)
    three = _run(d, "p1", tr, 120, amplitude=3.0)
    assert np.allclose(three.y, 3.0 * one.y, rtol=1e-12, atol=1e-12)
    assert np.allclose(three.u, 3.0 * one.u, rtol=1e-12, atol=1e-12)


def test_certified_worst_case_run_tracks_reference():
    # tau_bar = 2 is certified for every protocol at the default filter
    d = demo_design()
    tr = worst_case_trace(400, 2)
    for kind in ("p1", "p2", "p3"):
        out = _run(d, kind, tr, 400)
        assert not out.diverged
        assert abs(out.y[-1] - 1.0) < 0.05
        assert np.max(np.abs(out.y)) < 3.0


def test_divergence_is_recorded():
    d = demo_design(lam=0.85, tau_n_max=4)
    tr = worst_case_trace(1300, 4)
    out = _run(d, "p3", tr, 1300)
    assert out.diverged
    assert out.divergence_step is not None
    assert np.max(np.abs(out.y)) > 1e6
    # nothing past the recorded step is meaningful
    assert out.divergence_step <= 1300


def test_divergence_flag_follows_the_divergence_step():
    rec = np.zeros(3)
    records = dict(k=np.arange(3), r=rec, u=rec, y=rec, y_hat=rec, y_F=rec,
                   y_H=rec, selected_index=np.full(3, -1))
    assert SimTrace(**records, divergence_step=2).diverged
    assert not SimTrace(**records).diverged
    with pytest.raises(TypeError):
        SimTrace(**records, diverged=True)


def test_scenario_validation():
    d = demo_design()
    tr = worst_case_trace(10, 2)
    r = np.ones(10)
    with pytest.raises(ValueError, match="model"):
        SimScenario(d, Protocol("p1"), tr, r, 10, model="continuous")
    with pytest.raises(ValueError, match="horizon"):
        SimScenario(d, Protocol("p1"), tr, r, 0)
    with pytest.raises(ValueError, match="covers"):
        SimScenario(d, Protocol("p1"), tr, r, 50)
    wide = PacketTrace((3,) * 10, 0, 3)
    with pytest.raises(ValueError, match="bounds"):
        SimScenario(d, Protocol("p1"), wide, r, 10)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="reference has non-finite"):
            SimScenario(d, Protocol("p1"), tr, np.append(r[:-1], bad), 10)
        with pytest.raises(ValueError, match="disturbance has non-finite"):
            SimScenario(d, Protocol("p1"), tr, r, 10, disturbance=[0.0, bad])


def test_disturbance_rejection_settles():
    d = demo_design()
    steps = 400
    dist = np.zeros(steps)
    dist[50:] = 0.2  # constant load after step 50
    tr = _constant_trace(1, steps, 0, 2)
    scenario = SimScenario(design=d, protocol=Protocol("p1"), trace=tr,
                           reference=np.ones(steps), steps=steps,
                           disturbance=dist)
    out = simulate(scenario)
    assert not out.diverged
    assert abs(out.y[-1] - 1.0) < 0.02


def test_trace_csv_shape():
    d = demo_design()
    out = _run(d, "p2", worst_case_trace(12, 2), 12)
    lines = out.to_csv().strip().splitlines()
    assert lines[0] == "k,r,u,y,y_hat,y_F,y_H,selected_index"
    assert len(lines) == 13


def test_sample_delay_scenario_masks_internal_signals():
    d = demo_design()
    out = _run(d, "p1", _constant_trace(1, 20, 0, 2), 20, model="sample_delay")
    assert np.all(np.isnan(out.u))
    assert np.all(out.selected_index == -1)
    assert not np.any(np.isnan(out.y))


def test_sample_delay_rejects_out_of_range_delay():
    d = demo_design()
    model = assemble_augmented(d)
    with pytest.raises(ValueError):
        simulate_sample_delay(model, [5] * 20, 20)


def test_sample_delay_direct_call_matches_scenario_path():
    d = demo_design()
    steps = 300
    load = np.zeros(steps)
    load[100:] = -0.3
    for trace, dist in [(_constant_trace(2, steps, 0, 2), None),
                        (uniform_trace(steps, 0, 2, 21), load),
                        (worst_case_trace(steps, 2), load)]:
        y = _sample_delay_y(d, trace, steps, amplitude=1.2, disturbance=dist)
        scenario = SimScenario(design=d, protocol=Protocol("p1"), trace=trace,
                               reference=np.full(steps, 1.2), steps=steps,
                               disturbance=dist, model="sample_delay")
        assert np.allclose(y, simulate(scenario).y, rtol=1e-12, atol=1e-12)


def test_simulate_realizes_each_transfer_function_once_per_design(monkeypatch):
    realized = []
    for module in (la, se):
        def counted(g, *args, _realize=module.realize, **kwargs):
            realized.append(g)
            return _realize(g, *args, **kwargs)
        monkeypatch.setattr(module, "realize", counted)
    d = demo_design()
    trace = uniform_trace(200, 0, 2, 5)
    first = _run(d, "p2", trace, 200)
    second = _run(d, "p1", trace, 200, model="sample_delay")
    parts = (d.plant_nominal, d.predictor_block, d.filter, d.controller, d.prefilter)
    assert sorted(map(id, realized)) == sorted(map(id, parts))
    fresh = PredictorDesign.from_dict(d.to_dict())
    assert first.to_csv() == _run(fresh, "p2", trace, 200).to_csv()
    assert second.to_csv() == _run(fresh, "p1", trace, 200, model="sample_delay").to_csv()
    model = assemble_augmented(d)
    assert assemble_augmented(d) is model
    for arr in (model.A_tilde, model.A_d_tilde):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0


def test_lifted_step_built_once_per_design_and_block_length(monkeypatch):
    """Traces of least staleness 0, 1 and 2 give three block lengths; run
    in alternating order on one design, each length is lifted once, and
    every record equals the one of a fresh copy of the design."""
    d = demo_design()
    runs = [(_constant_trace(c, 150, 0, 2), model)
            for c in (0, 2, 1) for model in ("packetized", "sample_delay")]
    runs += [(worst_case_trace(150, 2), "packetized")] + runs
    want = [_run(PredictorDesign.from_dict(d.to_dict()), "p2", trace, 150,
                 model=model).to_csv() for trace, model in runs]
    lifted = []
    _lifted = se._lifted
    monkeypatch.setattr(se, "_lifted", lambda *args: lifted.append(args[-1])
                        or _lifted(*args))
    got = [_run(d, "p2", trace, 150, model=model).to_csv() for trace, model in runs]
    assert got == want
    assert lifted == [d.d_hat + 1, d.d_hat + 3, d.d_hat + 2]


def test_prediction_block_built_once_per_design(monkeypatch):
    calls = []
    build_H = sd.build_H
    monkeypatch.setattr(sd, "build_H", lambda *args: calls.append(args) or build_H(*args))
    d = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                    d_hat=5, tau_n_min=0, tau_n_max=2)
    trace = uniform_trace(200, 0, 2, 5)
    assemble_augmented(d)
    _run(d, "p2", trace, 200)
    _run(d, "p1", trace, 200, model="sample_delay")
    assert calls == [(d.plant_nominal, d.filter, d.tau_hat)]
