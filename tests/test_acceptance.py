"""Acceptance criteria for the whole pipeline, one test per criterion.

Each test measures its quantity at the stated tolerance, records one
``ACCEPTANCE NN PASS/FAIL`` line (printed in the terminal summary), and
asserts with that line as the failure message.
"""

import time

import numpy as np

from gaitkinetics.events import DOUBLE_STANCE, detect_events_zeni
from gaitkinetics.grf import decompose_ds, decompose_gait, total_grf
from gaitkinetics.kinematics import com_trajectory, filter_com_trajectory
from gaitkinetics.metrics import compare, stance_vgrf_shape
from gaitkinetics.signal import UniformSeries, lowpass

from conftest import (
    CUTOFF_HZ,
    axis_entry,
    FILTER_ORDER,
    decompose_ds_oracle,
    detect_timeline_from_markers,
    generate_static,
    shift_markers,
)

GRAVITY = 9.81


def _verdict(number: int, ok: bool, detail: str) -> str:
    return f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} — {detail}"


def _smooth_force(rng, n, scale=800.0):
    tau = np.linspace(0.0, 1.0, n)
    rows = []
    for _ in range(3):
        vals = np.zeros(n)
        for k in range(1, 5):
            vals += rng.uniform(-1.0, 1.0) * np.sin(
                np.pi * k * tau + rng.uniform(0.0, 2.0 * np.pi)
            )
        rows.append(scale * vals)
    return np.vstack(rows)


def _increment_energy(*arrays):
    return float(sum(np.sum(np.diff(a, axis=1) ** 2) for a in arrays))


def _complete_double_stances(bilateral):
    return [
        p
        for p in bilateral.timeline.phases
        if p.label == DOUBLE_STANCE and not p.incomplete
    ]


def test_criterion_01_limb_sum_reproduces_the_total(
    acceptance_log, walker, table, definitions
):
    start = time.perf_counter()
    com = com_trajectory(walker.markers, definitions, table, walker.subject)
    filtered = filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER)
    total = total_grf(filtered, walker.subject)
    timeline = detect_timeline_from_markers(walker)
    bilateral = decompose_gait(total, timeline, walker.subject.mass_kg)
    elapsed = time.perf_counter() - start

    residual = bilateral.left.force + bilateral.right.force - bilateral.total.force
    worst = float(np.max(np.abs(residual[:, bilateral.analyzed])))
    n_analyzed = int(bilateral.analyzed.sum())
    n_cycles = len(walker.right_events.heel_strikes) - 1
    ok = worst <= 1e-9 and elapsed < 1.0 and n_cycles >= 3
    line = _verdict(
        1,
        ok,
        f"L+R vs total: max residual {worst:.3e} N over {n_analyzed} analyzed "
        f"frames (tol 1e-9 N); {n_cycles} cycles processed in {elapsed:.3f} s "
        f"(limit 1 s)",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_02_double_stance_boundary_forces_are_exactly_zero(
    acceptance_log, walker_bilateral
):
    phases = _complete_double_stances(walker_bilateral)
    all_zero = bool(phases)
    for phase in phases:
        leading = walker_bilateral.limb(phase.leading_foot).force
        trailing = walker_bilateral.limb(phase.trailing_foot).force
        if not (
            np.all(leading[:, phase.start] == 0.0)
            and np.all(trailing[:, phase.end] == 0.0)
        ):
            all_zero = False
    line = _verdict(
        2,
        all_zero,
        f"{len(phases)} double stances: leading-limb force at the opening "
        f"frame and trailing-limb force at the closing frame are all "
        f"bitwise 0.0",
    )
    acceptance_log(line)
    assert all_zero, line


def test_criterion_03_closed_form_matches_the_discrete_minimizer(acceptance_log):
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        force = _smooth_force(rng, n)
        r1c, r2c = decompose_ds(force)
        r1o, r2o = decompose_ds_oracle(force)
        scale = max(1.0, float(np.max(np.abs(force))))
        gap = max(
            float(np.max(np.abs(r1c - r1o))),
            float(np.max(np.abs(r2c - r2o))),
        )
        worst_rel = max(worst_rel, gap / scale)

    # refinement study on one fixed smooth profile: the discrepancy must be
    # bounded by an O(h^2) envelope (a roundoff floor far below tolerance)
    def profile(n):
        tau = np.linspace(0.0, 1.0, n)
        return 800.0 * np.vstack(
            [
                np.sin(2.0 * np.pi * tau) + 0.3 * np.sin(3.0 * np.pi * tau),
                np.cos(np.pi * tau) - 0.2 * np.sin(2.0 * np.pi * tau),
                1.0 + 0.5 * np.sin(np.pi * tau) + 0.1 * np.cos(4.0 * np.pi * tau),
            ]
        )

    grids = [10, 20, 40, 80, 160]
    gaps = []
    for n in grids:
        force = profile(n)
        r1c, _ = decompose_ds(force)
        r1o, _ = decompose_ds_oracle(force)
        scale = max(1.0, float(np.max(np.abs(force))))
        gaps.append(float(np.max(np.abs(r1c - r1o))) / scale)
    h0 = 1.0 / (grids[0] - 1)
    envelope_c = 4.0 * gaps[0] / h0**2
    envelope_ok = all(
        gap <= max(envelope_c * (1.0 / (n - 1)) ** 2, 1e-9)
        for gap, n in zip(gaps, grids)
    )
    ok = worst_rel <= 1e-6 and envelope_ok
    line = _verdict(
        3,
        ok,
        f"closed form vs discrete minimizer: worst relative gap "
        f"{worst_rel:.3e} over 100 random windows (tol 1e-6); refinement "
        f"gaps {['%.1e' % g for g in gaps]} stay under the O(h^2) envelope",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_04_endpoint_preserving_bumps_never_lower_the_objective(
    acceptance_log, walker_bilateral
):
    phases = _complete_double_stances(walker_bilateral)
    rng = np.random.default_rng(202)
    total = walker_bilateral.total.force
    worst_drop = 0.0
    n_trials = 1000
    for i in range(n_trials):
        phase = phases[i % len(phases)]
        s, e = phase.start, phase.end
        r1 = walker_bilateral.limb(phase.trailing_foot).force[:, s : e + 1]
        r2 = walker_bilateral.limb(phase.leading_foot).force[:, s : e + 1]
        j_opt = _increment_energy(r1, r2)
        tau = np.arange(e - s + 1) / (e - s)
        delta = rng.uniform(-50.0, 50.0) * np.sin(
            np.pi * int(rng.integers(1, 6)) * tau
        )
        delta[0] = 0.0
        delta[-1] = 0.0
        axis = int(rng.integers(0, 3))
        r1_alt = r1.copy()
        r1_alt[axis] += delta
        r2_alt = total[:, s : e + 1] - r1_alt
        j_alt = _increment_energy(r1_alt, r2_alt)
        worst_drop = max(worst_drop, (j_opt - j_alt) / j_opt)
    ok = worst_drop <= 1e-9
    line = _verdict(
        4,
        ok,
        f"{n_trials} random endpoint-preserving bumps over "
        f"{len(phases)} double stances: worst relative objective decrease "
        f"{worst_drop:.3e} (tol 1e-9)",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_05_limb_curvature_is_half_the_total_curvature(
    acceptance_log, walker_bilateral
):
    def second_diff(a):
        return a[:, 2:] - 2.0 * a[:, 1:-1] + a[:, :-2]

    worst = 0.0
    checked = 0
    total = walker_bilateral.total.force
    for phase in _complete_double_stances(walker_bilateral):
        s, e = phase.start, phase.end
        if e - s < 2:
            continue
        r1 = walker_bilateral.limb(phase.trailing_foot).force[:, s : e + 1]
        r2 = walker_bilateral.limb(phase.leading_foot).force[:, s : e + 1]
        target = 0.5 * second_diff(total[:, s : e + 1])
        scale = float(np.max(np.abs(second_diff(total[:, s : e + 1]))))
        for limb in (r1, r2):
            gap = float(np.max(np.abs(second_diff(limb) - target)))
            worst = max(worst, gap / scale)
        checked += 1
    ok = checked > 0 and worst <= 1e-9
    line = _verdict(
        5,
        ok,
        f"interior second differences of both limb forces equal half the "
        f"total's on {checked} double stances: worst residual {worst:.3e} "
        f"of max |dd F| (tol 1e-9)",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_06_static_weight_and_cyclic_average(
    acceptance_log, table, definitions, walker_total, walker
):
    static = generate_static()
    com = com_trajectory(static.markers, definitions, table, static.subject)
    filtered = filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER)
    force = total_grf(filtered, static.subject)
    weight = static.subject.mass_kg * GRAVITY
    static_err = max(
        float(np.max(np.abs(force.force[0]))),
        float(np.max(np.abs(force.force[1]))),
        float(np.max(np.abs(force.force[2] - weight))),
    )

    cycle = int(round(walker.params.cycle_s * walker.params.sample_rate_hz))
    span = slice(cycle, cycle * 7)  # six whole cycles, clear of the edges
    mean_vertical = float(np.mean(walker_total.force[2, span]))
    walker_weight = walker.subject.mass_kg * GRAVITY
    cyc_rel = abs(mean_vertical - walker_weight) / walker_weight
    ok = static_err <= 1e-6 and cyc_rel <= 0.01
    line = _verdict(
        6,
        ok,
        f"static force vs (0, 0, mg): max error {static_err:.3e} N "
        f"(tol 1e-6 N); walking vertical force averaged over 6 cycles "
        f"{mean_vertical:.3f} N vs weight {walker_weight:.3f} N "
        f"({100 * cyc_rel:.3f}%, tol 1%)",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_07_total_force_ignores_lab_origin_shifts(
    acceptance_log, walker, walker_total, table, definitions
):
    moved = shift_markers(walker.markers, (1.7, -2.3, 0.9))
    com = com_trajectory(moved, definitions, table, walker.subject)
    filtered = filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER)
    force = total_grf(filtered, walker.subject)
    worst = float(np.max(np.abs(force.force - walker_total.force)))
    ok = worst <= 1e-9
    line = _verdict(
        7,
        ok,
        f"shifting every marker by (1.7, -2.3, 0.9) m changes the total "
        f"force by at most {worst:.3e} N (tol 1e-9 N)",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_08_detected_events_match_the_script(
    acceptance_log, walker, walker_timeline
):
    worst = 0
    n_events = 0
    for scripted, detected in (
        (walker.left_events, walker_timeline.left),
        (walker.right_events, walker_timeline.right),
    ):
        for a, b in (
            (scripted.heel_strikes, detected.heel_strikes),
            (scripted.toe_offs, detected.toe_offs),
        ):
            count_ok = len(a) == len(b)
            if not count_ok:
                worst = 10**9
                break
            if a:
                worst = max(worst, int(np.max(np.abs(np.array(a) - np.array(b)))))
            n_events += len(a)

    # analytic single-sinusoid trial: extrema at exactly known frames
    rate = 200.0
    t = np.arange(600) / rate
    sacrum = UniformSeries(rate, 0.5 * t)
    excursion = UniformSeries(rate, 0.5 * t + np.sin(2.0 * np.pi * t))
    hs, to = detect_events_zeni(excursion, excursion, sacrum, min_period_s=0.5)
    sin_ok = (
        len(hs) == 3
        and len(to) == 3
        and int(np.max(np.abs(hs - np.array([50, 250, 450])))) <= 1
        and int(np.max(np.abs(to - np.array([150, 350, 550])))) <= 1
    )
    ok = n_events >= 20 and worst <= 2 and sin_ok
    line = _verdict(
        8,
        ok,
        f"walker: {n_events} scripted events all detected within {worst} "
        f"frame(s) (tol 2); sinusoid trial: extrema found within 1 frame "
        f"of the analytic times",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_09_stance_vertical_force_is_double_humped(
    acceptance_log, walker_bilateral
):
    timeline = walker_bilateral.timeline
    hs = next(f for f in timeline.right.heel_strikes if 900 < f < 1000)
    to = next(f for f in timeline.right.toe_offs if f > hs)
    profile = walker_bilateral.right.force[2, hs : to + 1]
    shape = stance_vgrf_shape(
        profile, walker_bilateral.mass_kg * walker_bilateral.gravity_mps2
    )
    ok = (
        shape.is_m_shaped
        and shape.first_peak_bw > 1.0
        and shape.valley_bw < 1.0
        and shape.second_peak_bw > 1.0
    )
    line = _verdict(
        9,
        ok,
        f"right stance frames {hs}..{to}: first peak "
        f"{shape.first_peak_bw:.3f} BW > 1, valley {shape.valley_bw:.3f} BW "
        f"< 1, second peak {shape.second_peak_bw:.3f} BW > 1",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_10_filter_gain_at_dc_and_cutoff(acceptance_log):
    rate, cutoff, order = 200.0, 5.0, 4
    n = int(60.0 * rate)
    constant = lowpass(UniformSeries(rate, np.full(n, 7.3)), cutoff, order)
    dc_gain_err = float(np.max(np.abs(constant.values[0] / 7.3 - 1.0)))

    t = np.arange(n) / rate
    omega = 2.0 * np.pi * cutoff
    filtered = lowpass(UniformSeries(rate, np.sin(omega * t)), cutoff, order)
    span = slice(2000, 10000)  # an exact whole number of cutoff periods
    y = filtered.values[0, span]
    in_phase = 2.0 * float(np.mean(y * np.sin(omega * t[span])))
    quadrature = 2.0 * float(np.mean(y * np.cos(omega * t[span])))
    amplitude = float(np.hypot(in_phase, quadrature))
    ok = dc_gain_err <= 1e-9 and abs(amplitude - 0.5) <= 0.01
    line = _verdict(
        10,
        ok,
        f"DC gain error {dc_gain_err:.3e} (tol 1e-9); amplitude at the "
        f"{cutoff:g} Hz cutoff {amplitude:.6f} (target 0.5 +/- 0.01, "
        f"zero-phase order-{order} pass)",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_11_comparison_isolates_a_pure_vertical_offset(
    acceptance_log, walker_com_raw
):
    rate = walker_com_raw.sample_rate_hz
    base = walker_com_raw.whole_body
    shifted = base.copy()
    shifted[2] += 0.072
    report = compare(UniformSeries(rate, shifted), UniformSeries(rate, base))
    z = axis_entry(report, "z")
    bias_err = abs(z.mean_bias - 0.072)
    ok = bias_err <= 1e-12 and z.bias_compensated_rmse <= 1e-12
    line = _verdict(
        11,
        ok,
        f"7.2 cm vertical offset: mean bias {z.mean_bias!r} m "
        f"(error {bias_err:.3e}, tol 1e-12), bias-compensated RMSE "
        f"{z.bias_compensated_rmse:.3e} m (tol 1e-12)",
    )
    acceptance_log(line)
    assert ok, line


def test_criterion_12_cli_runs_are_deterministic_and_fast(
    acceptance_log, walker, tmp_path, monkeypatch
):
    from gaitkinetics import cli
    from gaitkinetics.ingest import write_marker_file

    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    marker_path = tmp_path / "walker.tsv"
    write_marker_file(marker_path, walker.markers)
    n_markers = len(walker.markers.markers)
    duration = walker.params.duration_s
    rate = walker.params.sample_rate_hz

    def run(out_dir):
        argv = [
            "grf",
            "--marker-file", str(marker_path),
            "--output-dir", str(out_dir),
            "--subject-mass-kg", "80.0",
            "--subject-height-m", "1.78",
            "--subject-sex", "m",
        ]
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start

    code_a, elapsed = run(tmp_path / "a")
    code_b, _ = run(tmp_path / "b")
    names = ["grf.csv", "grf_diagnostics.csv", "events.csv", "butterfly.csv", "butterfly.svg"]
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    )
    ok = code_a == 0 and code_b == 0 and identical and elapsed < 1.0
    line = _verdict(
        12,
        ok,
        f"two grf runs on the {duration:g} s, {n_markers}-marker, "
        f"{rate:g} Hz trial: all {len(names)} outputs byte-identical; "
        f"one run took {elapsed:.3f} s (limit 1 s)",
    )
    acceptance_log(line)
    assert ok, line
