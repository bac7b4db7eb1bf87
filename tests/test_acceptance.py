"""Acceptance gate: each test checks one release criterion at its stated
tolerance and prints one PASS/FAIL line (run with -s to see them inline).

Reference window endpoints used below are the desk-scale reproduction
targets: 0.29/0.59 for the qubit robustness window, 0.26/0.28 for the
noisy T-gate crossings, 0.4679/0.7129 for the qutrit mana window.
"""

import time

import numpy as np

from magicswitch import (
    DensityOperator,
    apply_channel,
    build_switch,
    channel_robustness,
    conditional_outputs,
    depolarizing_channel,
    find_threshold,
    mana_state,
    noisy_th_channel,
    qutrit_k2_variant_report,
    qutrit_noisy_th_channel,
    rom_state,
    run_appendix_c,
    run_fig2,
    run_fig3,
)
from magicswitch.experiments import default_config
from magicswitch.gates import plus_state
from magicswitch.phasespace import wigner_of_operator

from conftest import depolarizing_switch_closed_form, extend_with_reference, random_density_matrix


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_channel_free_onset():
    start = time.time()
    result = find_threshold("fig2_channel_robustness", lo=0.2, hi=0.4, threshold_tol=1e-3)
    elapsed = time.time() - start
    ok = abs(result.threshold - 0.29) <= 0.01 and elapsed < 60.0
    _report(
        "1 channel-free onset",
        ok,
        f"threshold={result.threshold:.4f} expected 0.29+-0.01, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_magic_generation_window(qubit_dict, choi_atoms):
    checks = []
    for p in (0.35, 0.45, 0.55):
        ch = noisy_th_channel(p)
        rob = channel_robustness(ch, choi_atoms).value
        rho_plus, _, prob_plus, _ = conditional_outputs(
            build_switch(ch, ch), DensityOperator.pure(plus_state(2))
        )
        rom_plus = rom_state(rho_plus, qubit_dict).value
        checks.append((p, rob, rom_plus))
    inside_ok = all(abs(rob - 1.0) <= 1e-6 and rom > 1.0 + 1e-6 for _, rob, rom in checks)
    lower = find_threshold("fig2_channel_robustness", lo=0.2, hi=0.4, threshold_tol=1e-3)
    upper = find_threshold("fig2_rom_plus", lo=0.5, hi=0.7, threshold_tol=1e-3)
    ends_ok = abs(lower.threshold - 0.29) <= 0.01 and abs(upper.threshold - 0.59) <= 0.01
    detail = (
        f"free channel + magic output at p=0.35/0.45/0.55: {inside_ok}; "
        f"window=[{lower.threshold:.4f}, {upper.threshold:.4f}] expected [0.29, 0.59]+-0.01"
    )
    _report("2 magic-generation window", inside_ok and ends_ok, detail)


def test_criterion_3_minus_branch_always_free():
    rows = run_fig2(default_config("fig2"))
    checked = 0
    worst = 0.0
    degenerate = []
    for row in rows:
        if row.status["rom_minus"] == "degenerate":
            degenerate.append(row.p)
            continue
        checked += 1
        worst = max(worst, abs(row.values["rom_minus"] - 1.0))
    # Only the zero-noise point lacks a minus branch (probability 0).
    ok = worst <= 1e-6 and checked >= 100 and degenerate in ([], [0.0])
    _report(
        "3 minus branch always free",
        ok,
        f"max |R-1|={worst:.2e} over {checked} grid points, degenerate at {degenerate}",
    )


def test_criterion_4_t_gate_thresholds():
    seq = find_threshold("fig3_sequential", lo=0.2, hi=0.35, threshold_tol=1e-3)
    plus = find_threshold("fig3_switch_plus", lo=0.2, hi=0.35, threshold_tol=1e-3)
    rows = run_fig3(default_config("fig3"))
    minus_vals = [row.values["rob_switch_minus"] for row in rows]
    minus_spread = max(minus_vals) - min(minus_vals)
    ok = (
        abs(seq.threshold - 0.26) <= 0.01
        and abs(plus.threshold - 0.28) <= 0.01
        and minus_spread < 1e-6
    )
    _report(
        "4 noisy T-gate thresholds",
        ok,
        f"sequential={seq.threshold:.4f} (0.26+-0.01), switched={plus.threshold:.4f} "
        f"(0.28+-0.01), minus-branch spread={minus_spread:.2e}",
    )


def test_criterion_5_qutrit_mana_window(frame3):
    kraus_report = qutrit_k2_variant_report()
    print(
        "ACCEPTANCE 5 kraus-set note: using the row-aligned (completeness-consistent) "
        f"qutrit set; residuals aligned={kraus_report['aligned']:.2e}, "
        f"misaligned={kraus_report['cross']:.2e}"
    )
    assert kraus_report["aligned"] < 1e-9 < kraus_report["cross"]

    lower = find_threshold("figs1_mana_channel", lo=0.3, hi=0.6, threshold_tol=1e-4)
    upper = find_threshold("figs1_mana_plus", lo=0.5, hi=0.9, threshold_tol=1e-4)
    minus_ok = True
    minus_vals = []
    for p in (0.8, 0.9):
        ch = qutrit_noisy_th_channel(p)
        _, rho_minus, _, prob_minus = conditional_outputs(
            build_switch(ch, ch), DensityOperator.pure(plus_state(3))
        )
        val = mana_state(rho_minus, frame3)
        minus_vals.append(val)
        minus_ok = minus_ok and prob_minus > 1e-9 and val > 0.0
    ok = (
        abs(lower.threshold - 0.4679) <= 0.005
        and abs(upper.threshold - 0.7129) <= 0.005
        and minus_ok
    )
    _report(
        "5 qutrit mana window",
        ok,
        f"window=[{lower.threshold:.5f}, {upper.threshold:.5f}] expected "
        f"[0.4679, 0.7129]+-0.005; minus-branch mana at p=0.8/0.9 = "
        f"{minus_vals[0]:.4f}/{minus_vals[1]:.4f} > 0",
    )


def test_criterion_6_closed_form_matches_generic_path():
    rng = np.random.default_rng(600)
    worst = 0.0
    for d in (2, 3):
        for k in range(11):
            p = k / 10
            noise = depolarizing_channel(d, p)
            switched = build_switch(noise, noise)
            for _ in range(20):
                rho = DensityOperator(random_density_matrix(d, rng))
                got_plus, got_minus, _, _ = conditional_outputs(switched, rho)
                want_plus, want_minus = depolarizing_switch_closed_form(d, p, rho)
                worst = max(
                    worst,
                    np.abs(got_plus.matrix - want_plus.matrix).max(),
                    np.abs(got_minus.matrix - want_minus.matrix).max(),
                )
    ok = worst < 1e-10
    _report(
        "6 closed form vs generic composition",
        ok,
        f"max entrywise gap {worst:.2e} over d=2,3 x 11 noise values x 20 states",
    )


def test_criterion_7_strict_noise_advantage():
    report = run_appendix_c(d_values=(2, 3, 5, 10), n_points=10_000)
    ok = report["strictly_negative"] and report["max_identity_residual"] < 1e-12
    _report(
        "7 strict switched-noise advantage",
        ok,
        f"max gap {report['max_gap']:.3e} < 0, identity residual "
        f"{report['max_identity_residual']:.2e} < 1e-12",
    )


def test_criterion_8_property_suites(qubit_dict, twoq_dict, choi_atoms, frame3):
    start = time.time()
    problems = []

    if not (len(qubit_dict) == 6 and len(twoq_dict) == 60):
        problems.append("dictionary counts")

    # Six phase-point identities: hermiticity, resolution, orthogonality,
    # unit trace, reconstruction, transpose closure.
    a_ops = frame3.phase_points
    rng = np.random.default_rng(800)
    herm = random_density_matrix(3, rng) - 0.3 * np.eye(3)
    rebuilt = np.einsum(
        "u,uij->ij", wigner_of_operator(herm, frame3).reshape(-1), a_ops
    )
    identities = [
        all(np.abs(A - A.conj().T).max() < 1e-12 for A in a_ops),
        np.abs(a_ops.sum(axis=0) / 3 - np.eye(3)).max() < 1e-12,
        np.abs(np.einsum("uij,vji->uv", a_ops, a_ops) - 3 * np.eye(9)).max() < 1e-10,
        all(abs(np.trace(A) - 1) < 1e-12 for A in a_ops),
        np.abs(rebuilt - herm).max() < 1e-9,
        all(any(np.abs(A.T - B).max() < 1e-10 for B in a_ops) for A in a_ops),
    ]
    if not all(identities):
        problems.append(f"phase-point identities {identities}")

    for dct in (qubit_dict, twoq_dict):
        for proj in dct.projectors:
            value = rom_state(DensityOperator(np.array(proj)), dct).value
            if abs(value - 1.0) > 1e-7:
                problems.append(f"faithfulness violated on a {dct.n_qubits}-qubit atom")
                break

    ch = noisy_th_channel(0.5)
    if abs(channel_robustness(ch, choi_atoms).value - 1.0) > 1e-6:
        problems.append("reference channel not free at p=0.5")
    extended = extend_with_reference(ch, 2)
    worst = 0.0
    for proj in twoq_dict.projectors:
        out = apply_channel(extended, DensityOperator(np.array(proj)))
        worst = max(worst, abs(rom_state(out, twoq_dict).value - 1.0))
    if worst > 1e-7:
        problems.append(f"free channel maps some atom to a magic state ({worst:.2e})")

    elapsed = time.time() - start
    if elapsed >= 300.0:
        problems.append(f"property suite too slow ({elapsed:.0f}s)")
    _report(
        "8 property suites",
        not problems,
        f"counts 6/60, six frame identities, faithfulness on 66 atoms, "
        f"complete-stabilizer-preservation over 60 atoms (worst {worst:.2e}), "
        f"{elapsed:.1f}s < 300s" + (f"; problems: {problems}" if problems else ""),
    )
