"""Delay-robust feasibility problem: augmented model and matrix blocks."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from netsmith.lmi_assembly import (AugmentedModel, assemble_augmented,
                                   assemble_matrix, build_lmi,
                                   compact_variable_count, lifted_variable_count,
                                   problem_document, verify_candidate)
from netsmith.lti_core import RationalTF
from netsmith.presets import (demo_controller, demo_design, demo_plant,
                              demo_prefilter)
from netsmith.smith_design import PredictorDesign, make_design

# demo_design() as it was when the hashes below were frozen.  The filter
# is now the remainder of a polynomial division, a few rounding units away
# from this one, and the hashes read the model's bytes.  Design files then
# stored the prediction block; loading ignores it and derives H.
PINNED_DEMO_DESIGN = {
    "controller": {"den": [1.0, -1.0], "h": 1.0, "num": [29.504, -29.017184000000004]},
    "d_hat": 5,
    "filter": {"den": [1.0, -0.9], "h": 1.0,
               "num": [1.836038683050351, -1.7360386830503511]},
    "plant_nominal": {"den": [1.0, -1.051], "h": 1.0, "num": [0.0051271]},
    "predictor_block": {
        "den": [1.0, -0.9, 0.0, 0.0, 0.0, 0.0, 0.0], "h": 1.0,
        "num": [0.0051271, 0.0007741920999999995, 0.0008136758970999995,
                0.0008551733678520993, 0.0008987872096125564,
                -0.008468928574564659]},
    "prefilter": {"den": [1.0, -0.9835], "h": 1.0, "num": [0.16527, -0.14874300000000001]},
    "tau_n_max": 2,
    "tau_n_min": 0,
}


@pytest.fixture(scope="module")
def model():
    return assemble_augmented(demo_design())


@pytest.fixture(scope="module")
def pinned_model():
    return assemble_augmented(PredictorDesign.from_dict(PINNED_DEMO_DESIGN))


def test_pinned_prediction_block_is_derived_bit_for_bit():
    H = PredictorDesign.from_dict(PINNED_DEMO_DESIGN).predictor_block
    assert H.to_dict() == PINNED_DEMO_DESIGN["predictor_block"]


def test_augmented_dimensions(model):
    assert model.n_xi == 9
    assert model.block_orders == (1, 6, 1, 1)
    assert model.A_tilde.shape == (9, 9)
    assert model.A_d_tilde.shape == (9, 9)
    assert model.input_reference.shape == (9,)
    assert model.input_disturbance.shape == (9,)
    assert model.output_row.shape == (9,)


def test_delayed_coupling_enters_through_plant_state_only(model):
    n_plant = model.block_orders[0]
    assert np.any(model.A_d_tilde[:, :n_plant] != 0.0)
    assert np.all(model.A_d_tilde[:, n_plant:] == 0.0)


def test_disturbance_enters_plant_block_only(model):
    n_plant = model.block_orders[0]
    assert np.any(model.input_disturbance[:n_plant] != 0.0)
    assert np.all(model.input_disturbance[n_plant:] == 0.0)


def test_variable_counts_for_worked_example(model):
    assert compact_variable_count(9) == 900
    assert lifted_variable_count(9, 5, 8) == 8046
    prob = build_lmi(model, "compact", 0.9)
    assert prob.variable_count == 900
    assert prob.free_parameter_count == 270


def test_lifted_count_matches_generic_formula():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        d_hat = int(rng.integers(0, 9))
        tau_n_max = int(rng.integers(1, 9))
        D = d_hat + tau_n_max
        generic = ((D * D + 2 * D + 2) * n * n + (D + 2) * n) // 2
        assert lifted_variable_count(n, d_hat, tau_n_max) == generic


def test_lifted_problem_shape(model):
    prob = build_lmi(model, "lifted", 0.9)
    side = (5 + 2 + 2) * 9
    assert prob.side == side
    assert prob.blocks["G"].shape == (side, side)
    assert prob.unknowns == {"P": 72, "S": 9}
    assert prob.variable_count == lifted_variable_count(9, 5, 2)


def test_compact_problem_shape(model):
    prob = build_lmi(model, "compact", 0.9)
    assert prob.side == 72
    assert prob.blocks["Phi2"].shape == (9, 36)
    assert prob.blocks["Phi3"].shape == (9, 36)
    assert set(prob.unknowns) == {"P", "Q1", "Q2", "R1", "R2", "S"}
    assert all(side == 9 for side in prob.unknowns.values())


def test_gamma_domain(model):
    for gamma in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            build_lmi(model, "compact", gamma)
    with pytest.raises(ValueError):
        build_lmi(model, "nonsense", 0.9)


def test_lifted_needs_delay_spread():
    d = demo_design(tau_n_min=1, tau_n_max=1)
    m = assemble_augmented(d)
    with pytest.raises(ValueError):
        build_lmi(m, "lifted", 0.9)
    build_lmi(m, "compact", 0.9)  # fine


def _identity_candidates(prob):
    return {name: np.eye(side) for name, side in prob.unknowns.items()}


@pytest.mark.parametrize("variant", ["lifted", "compact"])
def test_assembled_matrix_is_symmetric(model, variant):
    prob = build_lmi(model, variant, 0.9)
    mat = assemble_matrix(prob, _identity_candidates(prob))
    assert mat.shape == (prob.side, prob.side)
    assert np.array_equal(mat, mat.T)


def _seeded_candidates(prob, seed):
    """Non-symmetric Gaussian candidates: the assembly must not rely on
    symmetry of its inputs."""
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal((dim, dim))
            for name, dim in sorted(prob.unknowns.items())}


def _blkdiag(*mats):
    side = sum(m.shape[0] for m in mats)
    out = np.zeros((side, side))
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at:at + k, at:at + k] = m
        at += k
    return out


def _dense_lifted(prob, cands):
    """G' blkdiag(P, S) G - blkdiag(P, gamma^2 S), symmetrized, with dense G."""
    P, S, G = cands["P"], cands["S"], prob.blocks["G"]
    M = G.T @ _blkdiag(P, S) @ G - _blkdiag(P, prob.gamma**2 * S)
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("d_hat", [1, 5, 10])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_lifted_matrix_matches_dense_products(d_hat, width):
    tau_n_min = d_hat % 2
    d = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                    d_hat=d_hat, tau_n_min=tau_n_min,
                    tau_n_max=tau_n_min + width, lam=0.9)
    prob = build_lmi(assemble_augmented(d), "lifted", 0.9)
    cands = _seeded_candidates(prob, 10 * d_hat + width)
    want = _dense_lifted(prob, cands)
    got = assemble_matrix(prob, cands)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _block_compact(prob, cands):
    """The compact matrix as one nested np.block, entry by entry the same
    arithmetic as assemble_matrix."""
    n, gamma, model = prob.model.n_xi, prob.gamma, prob.model
    P, Q1, Q2, R1, R2, S = (cands[k] for k in ("P", "Q1", "Q2", "R1", "R2", "S"))
    phi2, phi3 = prob.blocks["Phi2"], prob.blocks["Phi3"]
    z = np.zeros((n, n))
    phi1 = np.block([
        [-P + Q1 + Q2 - R1 - R2, R1, R2, z],
        [R1.T, -Q1 - R1, z, z],
        [R2.T, z, -Q2 - R2, z],
        [z, z, z, -gamma**2 * S],
    ])
    psi = np.hstack([
        phi2.T @ P,
        (model.d_hat + model.tau_n_min) * (phi3.T @ R1),
        (model.d_hat + model.tau_n_max) * (phi3.T @ R2),
        phi3.T @ S,
    ])
    M = np.block([[phi1, psi], [psi.T, _blkdiag(-P, -R1, -R2, -S)]])
    return 0.5 * (M + M.T)


# sha256 of the compact matrix bytes on PINNED_DEMO_DESIGN at gamma 0.9 with
# _seeded_candidates(prob, seed), frozen while it was built by np.block
COMPACT_MATRIX_SHA256 = {
    1: "ecba8e7bfff394a47bd892b9cad766d61cf9315c2c430672b86f2de79dccd7f1",
    2: "6ed521a9afabdf44b259f7b1896cb0d8e62d265060fbb977d115e11f0aee18a4",
}


@pytest.mark.parametrize("seed", sorted(COMPACT_MATRIX_SHA256))
def test_compact_matrix_is_bit_identical_to_block_assembly(pinned_model, seed):
    prob = build_lmi(pinned_model, "compact", 0.9)
    cands = _seeded_candidates(prob, seed)
    got = assemble_matrix(prob, cands)
    assert np.array_equal(got, _block_compact(prob, cands))
    assert hashlib.sha256(got.tobytes()).hexdigest() == COMPACT_MATRIX_SHA256[seed]


def test_assemble_rejects_bad_shapes(model):
    prob = build_lmi(model, "compact", 0.9)
    cands = _identity_candidates(prob)
    cands["P"] = np.eye(5)
    with pytest.raises(ValueError):
        assemble_matrix(prob, cands)
    del cands["P"]
    with pytest.raises(ValueError):
        assemble_matrix(prob, cands)


def test_verify_identity_candidates_infeasible(model):
    prob = build_lmi(model, "compact", 0.9)
    report = verify_candidate(prob, _identity_candidates(prob))
    assert not report.feasible
    assert report.lambda_max > 0.0
    assert set(report.candidate_min_eigs) == set(prob.unknowns)
    assert all(v == pytest.approx(1.0) for v in report.candidate_min_eigs.values())


def test_verify_flags_indefinite_candidate(model):
    prob = build_lmi(model, "compact", 0.9)
    cands = _identity_candidates(prob)
    cands["S"] = -np.eye(9)
    report = verify_candidate(prob, cands)
    assert not report.feasible
    assert report.candidate_min_eigs["S"] == pytest.approx(-1.0)


# sha256 of problem_document on PINNED_DEMO_DESIGN at gamma 0.9, frozen
# before the stacked loop and the augmented model became one record
DEMO_DOCUMENT_SHA256 = {
    "lifted": "d878f93f88831e44a48ea013aa1f6d72fd464a3e483b230a3f931594537069c8",
    "compact": "2d560c2ed288ce84f25688dbd16208a4387c0cc077d84a01342ba1921271b80f",
}


@pytest.mark.parametrize("variant", ["lifted", "compact"])
def test_problem_document_pinned(pinned_model, variant):
    doc = problem_document(build_lmi(pinned_model, variant, 0.9))
    assert hashlib.sha256(doc.encode()).hexdigest() == DEMO_DOCUMENT_SHA256[variant]


def test_problem_document_is_deterministic(model):
    a = problem_document(build_lmi(model, "lifted", 0.9))
    b = problem_document(build_lmi(model, "lifted", 0.9))
    assert a == b
    doc = json.loads(a)
    assert doc["kind"] == "delay-robust-lmi"


def test_rejects_plant_with_direct_term():
    plant = RationalTF([1.0, 0.1], [1.0, -0.5], 1.0)
    d = make_design(plant, RationalTF.constant(0.1, 1.0), demo_prefilter(),
                    d_hat=2, tau_n_min=0, tau_n_max=1)
    with pytest.raises(ValueError, match="strictly proper"):
        assemble_augmented(d)


def test_delayed_state_matrix_is_derived(model):
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(AugmentedModel)}
    assert "A_d_tilde" not in fields
    with pytest.raises(TypeError):
        AugmentedModel(**fields, A_d_tilde=model.A_d_tilde)
    n = model.block_orders[0]
    Ad = AugmentedModel(**fields).A_d_tilde
    assert np.array_equal(Ad[:, :n], np.outer(model.g, model.output_row)[:, :n])
    # +0.0 off the plant columns, where np.outer(g, output_row) writes -0.0
    assert np.any(np.signbit(np.outer(model.g, model.output_row)[:, n:]))
    assert not np.any(Ad[:, n:]) and not np.any(np.signbit(Ad[:, n:]))
    with pytest.raises(ValueError):
        Ad[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.A_d_tilde = Ad


def test_tau_override_changes_lifted_size_only(model):
    d = demo_design()
    wide = dataclasses.replace(d, tau_n_max=8)
    m = assemble_augmented(wide)
    lifted = build_lmi(m, "lifted", 0.9)
    compact = build_lmi(m, "compact", 0.9)
    assert lifted.variable_count == 8046
    assert lifted.side == (5 + 8 + 2) * 9
    assert compact.variable_count == 900
    assert compact.side == 72
