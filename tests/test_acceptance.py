"""Acceptance gate: ten numbered checks over the full simulator.

Each test prints exactly one ``[acceptance] criterion NN ...: PASS|FAIL``
line outside pytest's capture (``capsys.disabled``) so a teed pytest log
always carries the per-criterion outcome. Tolerances are pinned in the
asserts.
"""

import time

import numpy as np

import premeasure
from premeasure import dsl, engine
from premeasure.born import (
    OutcomeEvent,
    conditional_probability,
    joint_distribution,
    marginal_distribution,
    total_probability,
)
from premeasure.chain import (
    Disturbance,
    apply_evolution,
    attach_device,
    init_chain,
    make_reader_device,
)
from premeasure.collapse import unknown_result_mixture
from premeasure.linalg import hermitian_evolution
from premeasure.model import make_device, make_observable
from premeasure.propsuite import attach_residual
from premeasure.sampling import (
    distinct_eigenvalues,
    random_degenerate_observable,
    random_density_matrix,
    random_observable,
    random_orthonormal_basis,
    random_scenario,
    random_state_vector,
)
from premeasure.verify import partial_trace_check, repeatability_matrix

from reference import interaction, random_unitary

PROB_SLACK = 1e-12


def _report(capsys, num: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _obs_pair(rng, dim):
    basis_a = random_orthonormal_basis(rng, dim)
    basis_b = random_orthonormal_basis(rng, dim)
    obs_a = make_observable("A", "S", distinct_eigenvalues(rng, dim), basis_a)
    obs_b = make_observable("B", "S", distinct_eigenvalues(rng, dim), basis_b)
    return obs_a, basis_a, obs_b, basis_b


def test_criterion_01_repeatability_identity(capsys):
    started = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([1, trial])
        dim = int(rng.integers(2, 7))
        obs = random_observable(rng, dim, "A")
        chain = init_chain(random_state_vector(rng, dim))
        chain = attach_device(chain, make_device("M1", obs))
        chain = attach_device(chain, make_device("M2", obs))
        rep = repeatability_matrix(chain, "M1", "M2", tol=1e-10)
        worst = max(worst, rep.max_identity_deviation)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed <= 30.0
    _report(capsys, 1, "repeatability identity", ok,
            f"max dev {worst:.3e}, {elapsed:.1f}s for 100 scenarios")


def test_criterion_02_avalanche_chain_depth(capsys):
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng([2, trial])
        dim = int(rng.integers(2, 7))
        obs = random_observable(rng, dim, "A")
        chain = init_chain(random_state_vector(rng, dim))
        labels = ["M1", "M2", "M3", "M4"]
        for lbl in labels:
            chain = attach_device(chain, make_device(lbl, obs))
        dist = joint_distribution(chain, labels)
        p_agree = sum(dist.probability((j,) * 4) for j in range(1, dim + 1))
        worst = max(worst, abs(p_agree - 1.0))
    ok = worst <= 1e-10
    _report(capsys, 2, "four-device agreement", ok, f"max |p-1| {worst:.3e}")


def test_criterion_03_collapse_equivalence_static(capsys):
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([3, trial])
        dim = int(rng.integers(2, 7))
        obs_a, basis_a, obs_b, basis_b = _obs_pair(rng, dim)
        psi = random_state_vector(rng, dim)
        chain = init_chain(psi)
        chain = attach_device(chain, make_device("MA", obs_a))
        chain = attach_device(chain, make_device("MB", obs_b))
        for j in range(1, dim + 1):
            p_j = abs(np.vdot(basis_a[j - 1], psi)) ** 2
            if p_j <= PROB_SLACK:
                continue
            for k in range(1, dim + 1):
                chain_p = conditional_probability(
                    chain, OutcomeEvent("MB", k), [OutcomeEvent("MA", j)]
                )
                direct = abs(np.vdot(basis_b[k - 1], basis_a[j - 1])) ** 2
                worst = max(worst, abs(chain_p - direct))
    ok = worst <= 1e-10
    _report(capsys, 3, "conditionals match projection amplitudes", ok, f"max dev {worst:.3e}")


def test_criterion_04_dynamic_equivalence(capsys):
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng([4, trial])
        dim = int(rng.integers(2, 7))
        obs_a, basis_a, obs_b, basis_b = _obs_pair(rng, dim)
        psi = random_state_vector(rng, dim)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2
        t = float(rng.uniform(0.0, 2 * np.pi))
        u_t = hermitian_evolution(h, t)

        chain = init_chain(psi)
        chain = attach_device(chain, make_device("MA", obs_a))
        chain = apply_evolution(chain, u_t)
        chain = attach_device(chain, make_device("MB", obs_b))
        for j in range(1, dim + 1):
            if abs(np.vdot(basis_a[j - 1], psi)) ** 2 <= PROB_SLACK:
                continue
            evolved = u_t @ basis_a[j - 1]
            for k in range(1, dim + 1):
                chain_p = conditional_probability(
                    chain, OutcomeEvent("MB", k), [OutcomeEvent("MA", j)]
                )
                direct = abs(np.vdot(basis_b[k - 1], evolved)) ** 2
                worst = max(worst, abs(chain_p - direct))
    ok = worst <= 1e-9
    _report(capsys, 4, "conditionals match evolved amplitudes", ok, f"max dev {worst:.3e}")


def test_criterion_05_partial_trace_mixture(capsys):
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([5, trial])
        dim = int(rng.integers(2, 7))
        degenerate = dim >= 3 and trial % 3 == 0
        if degenerate:
            obs = random_degenerate_observable(rng, dim, "A")
        else:
            obs = random_observable(rng, dim, "A")
        if trial % 4 == 0:
            state = random_density_matrix(rng, dim)
        else:
            state = random_state_vector(rng, dim)
        chain = init_chain(state)
        chain = attach_device(chain, make_device("M1", obs))
        rep = partial_trace_check(chain, tol=1e-10)
        worst = max(worst, rep.max_deviation)
    ok = worst <= 1e-10
    _report(capsys, 5, "traced state equals projection mixture", ok, f"max dev {worst:.3e}")


def test_criterion_06_total_probability(capsys):
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng([6, trial])
        dim = int(rng.integers(2, 7))
        obs_a, basis_a, obs_b, basis_b = _obs_pair(rng, dim)
        psi = random_state_vector(rng, dim)
        chain = init_chain(psi)
        chain = attach_device(chain, make_device("MA", obs_a))
        chain = attach_device(chain, make_device("MB", obs_b))
        # route 1: direct chain marginal (cross-checked internally against
        # the decomposition over first-device outcomes)
        dist = total_probability(chain, "MB")
        # route 2: sum_j p(A_j) |<beta_k|alpha_j>|^2
        # route 3: tr(W P_beta_k) with W the unknown-result mixture
        w = unknown_result_mixture(psi, obs_a).matrix
        for k in range(1, dim + 1):
            beta = basis_b[k - 1]
            p_sum = sum(
                abs(np.vdot(basis_a[j - 1], psi)) ** 2 * abs(np.vdot(beta, basis_a[j - 1])) ** 2
                for j in range(1, dim + 1)
            )
            p_tr = float(np.real(np.vdot(beta, w @ beta)))
            p_chain = dist.probability((k,))
            worst = max(worst, abs(p_chain - p_sum), abs(p_chain - p_tr))
    ok = worst <= 1e-10
    _report(capsys, 6, "total probability via mixture", ok, f"max dev {worst:.3e}")


def test_criterion_07_weak_counterexample(capsys):
    weak = dsl.parse_scenario(
        premeasure.bundled_scenario_path("weak_flip").read_text()
    )
    ideal = dsl.parse_scenario(
        premeasure.bundled_scenario_path("weak_flip_ideal_twin").read_text()
    )
    weak_chain = engine.build_chain(weak)
    ideal_chain = engine.build_chain(ideal)
    rep = repeatability_matrix(weak_chain, "MW", "M2", tol=1e-10)
    rows_ok = (
        rep.rows[0] is not None
        and rep.rows[1] is not None
        and abs(rep.rows[0][0] - 1.0) <= 1e-12
        and abs(rep.rows[0][1]) <= 1e-12
        and abs(rep.rows[1][0] - 1.0) <= 1e-12
        and abs(rep.rows[1][1]) <= 1e-12
    )
    weak_m = marginal_distribution(weak_chain, "MW")
    ideal_m = marginal_distribution(ideal_chain, "M1")
    marg_dev = max(
        abs(weak_m.probability((k,)) - ideal_m.probability((k,))) for k in (1, 2)
    )
    ok = rows_ok and marg_dev <= 1e-12
    _report(capsys, 7, "weak coupling breaks repeatability only", ok,
            f"rows {'ok' if rows_ok else 'bad'}, marginal dev {marg_dev:.3e}")


def test_criterion_08_reader_invariance(capsys):
    worst = 0.0
    for trial in range(30):
        rng = np.random.default_rng([8, trial])
        dim = int(rng.integers(2, 5))
        obs_a, _, obs_b, _ = _obs_pair(rng, dim)
        psi = random_state_vector(rng, dim)

        bare = init_chain(psi)
        bare = attach_device(bare, make_device("M1", obs_a))
        bare = attach_device(bare, make_device("MB", obs_b))

        read = init_chain(psi)
        read = attach_device(read, make_device("M1", obs_a))
        rdev = make_reader_device("R", read.device("M1").spec)
        read = attach_device(read, rdev)
        read = attach_device(read, make_device("MB", obs_b))

        first = marginal_distribution(bare, "M1")
        for j in range(1, dim + 1):
            if first.probability((j,)) <= PROB_SLACK:
                continue
            for k in range(1, dim + 1):
                p = conditional_probability(
                    bare, OutcomeEvent("MB", k), [OutcomeEvent("M1", j)]
                )
                q = conditional_probability(
                    read, OutcomeEvent("MB", k), [OutcomeEvent("M1", j)]
                )
                worst = max(worst, abs(p - q))
    ok = worst <= 1e-12
    _report(capsys, 8, "reader leaves conditionals unchanged", ok, f"max dev {worst:.3e}")


def test_criterion_09_dsl_round_trip(capsys):
    names = premeasure.bundled_scenario_names()
    corpus_ok = len(names) >= 10
    mismatches = 0
    for name in names:
        text = premeasure.bundled_scenario_path(name).read_text()
        s = dsl.parse_scenario(text)
        if dsl.parse_scenario(dsl.format_scenario(s)) != s:
            mismatches += 1
    for trial in range(100):
        rng = np.random.default_rng([9, trial])
        s = random_scenario(rng, max_dim=6, max_depth=3)
        if dsl.parse_scenario(dsl.format_scenario(s)) != s:
            mismatches += 1
    ok = corpus_ok and mismatches == 0
    _report(capsys, 9, "format/parse round trip", ok,
            f"{len(names)} bundled + 100 random, {mismatches} mismatches")


def test_criterion_10_unitarity_sweep(capsys):
    # The couplings as production attaches them: the ideal device, a weak one
    # and a reader of the ideal one.  Each attach map must be an isometry,
    # and the ideal and weak ones the reference's dense U (then V) on the
    # ready pointer.
    worst = 0.0
    count = 0
    for trial in range(40):
        rng = np.random.default_rng([10, trial])
        dim = int(rng.integers(2, 7))
        if dim >= 3 and trial % 4 == 0:
            obs = random_degenerate_observable(rng, dim, "A")
        else:
            obs = random_observable(rng, dim, "A")
        dev = make_device("M", obs)
        dist = Disturbance(
            tuple(random_unitary(rng, dim) for _ in range(obs.outcome_count))
        )
        deviations = [
            attach_residual(dev),
            attach_residual(dev, dist),
            attach_residual(make_reader_device("R", dev), target=dev),
        ]
        p = dev.pointer_dim
        for disturbance in (None, dist):
            weak = None if disturbance is None else disturbance.unitaries
            dense = interaction(obs.projectors, [dim, p], 0, 1, weak).reshape(dim, p, dim, p)
            grown = [
                attach_device(init_chain(e), dev, disturbance=disturbance).state
                for e in np.eye(dim)
            ]
            deviations.append(float(np.max(np.abs(np.stack(grown, axis=-1) - dense[:, 1:, :, 0]))))
        count += len(deviations)
        worst = max(worst, *deviations)
    ok = worst <= 1e-12
    _report(capsys, 10, "every attach map is an isometry and matches the dense U", ok,
            f"{count} checked, max dev {worst:.3e}")
