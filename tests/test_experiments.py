"""Tests for the scripted experiment drivers and their reports."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from pstlab import experiments, liouville, magnus, pst_core
from pstlab.errors import BranchCutError, ConfigError, ResolutionError
from pstlab.experiments import (
    RANDOM_AMPLITUDE_FLOOR,
    MagnusCheckConfig,
    ParitySweepConfig,
    Table1Config,
    _random_anticommuting_sets,
    parity_rows_to_csv,
    run_magnus_crosscheck,
    run_parity_sweep,
    run_table1,
)
from pstlab.numerics import op_norm
from pstlab.pauli import commutation_sign, pauli_from_label
from pstlab.pst_core import EffectiveGenerator, ideal_channel, pst_channel


class TestTable1:
    def test_default_reproduction(self):
        report = run_table1()
        assert report.pst["ZX"] == pytest.approx(1.0207, abs=1e-3)
        for label in ("XX", "YY", "ZZ", "YX"):
            assert abs(report.pst[label]) <= 1e-3
        assert report.no_pst["ZX"] == pytest.approx(1.0, abs=1e-9)
        for label, amplitude in (("XX", 0.2), ("YY", 0.6), ("ZZ", 0.2), ("YX", 0.4)):
            assert report.no_pst[label] == pytest.approx(amplitude, abs=1e-9)
        assert report.theoretical_drive_coeff == pytest.approx(1.019, abs=1e-3)
        assert report.agreement_pct == pytest.approx(99.8, abs=0.1)

    @pytest.mark.parametrize("tau", [0.5, 0.95, 1.0])
    def test_untwirled_row_reproduces_inputs(self, tau):
        # Past tau = 0.93 the default terms push the raw gate's eigenphases
        # beyond pi, where a log of its exponential would alias.  The row is
        # read off the term list, so it is exact.
        report = run_table1(Table1Config(tau=tau))
        inputs = {"XX": 0.2, "YY": 0.6, "ZZ": 0.2, "YX": 0.4, "ZX": 1.0}
        assert report.no_pst == inputs
        assert list(report.no_pst) == list(inputs)

    @pytest.mark.parametrize("tau", [math.pi / 2, 2.0])
    def test_aliased_drive_weight_is_refused(self, tau):
        # The block log is accepted, but the twirled drive rotates the
        # eigenphases by 2 tau f >= pi, so the log is an aliased branch and
        # reads the drive weight as -1.2895 (sinc law: 1.005) at pi / 2.
        config = Table1Config(drive="X", errors=(("Z", 0.1),), tau=tau)
        pst_core.twirled_channels(config.drive_spec(), [config.error_spec()])[0].weights()
        with pytest.raises(BranchCutError, match="branch cut"):
            run_table1(config)

    def test_untwirled_row_is_the_scaled_inputs(self):
        config = Table1Config(drive="ZZZZ", errors=(("XIII", 0.25), ("IYZX", 0.1)), scale=-1.5)
        assert run_table1(config).no_pst == {"XIII": -1.5 * 0.25, "IYZX": -1.5 * 0.1, "ZZZZ": 1.0}

    def test_zero_error_config(self):
        config = Table1Config(errors=(("XX", 0.0), ("YY", 0.0)))
        report = run_table1(config)
        for row in (report.no_pst, report.pst):
            assert row["ZX"] == pytest.approx(1.0, abs=1e-9)
            assert abs(row["XX"]) <= 1e-12
            assert abs(row["YY"]) <= 1e-12

    def test_report_labels_cover_errors_plus_drive(self):
        report = run_table1()
        assert list(report.pst) == ["XX", "YY", "ZZ", "YX", "ZX"]
        assert list(report.no_pst) == list(report.pst)

    def test_json_round_trip_and_determinism(self):
        first = run_table1()
        second = run_table1()
        assert first.to_json() == second.to_json()
        payload = json.loads(first.to_json())
        assert payload["config"]["drive"] == "ZX"
        assert payload["pst"]["ZX"] == pytest.approx(1.0207, abs=1e-3)

    def test_csv_format(self):
        text = run_table1().to_csv()
        lines = text.splitlines()
        assert lines[0] == "word,no_pst,pst"
        assert len(lines) == 6

    @pytest.mark.parametrize("config", [
        Table1Config(),
        Table1Config(drive="ZXII", errors=(("XXIZ", 0.2), ("IYYI", 0.3), ("YZXY", 0.15))),
    ], ids=["default", "4-qubit"])
    def test_reads_no_raw_liouvillian_and_no_word_table(self, config, monkeypatch):
        # Both rows come from 2^n x 2^n Hamiltonians and the coset blocks:
        # no lift, no superoperator, no dense change of basis, no dense
        # channel and no projection of a dense log.
        def refuse(*args, **kwargs):
            raise AssertionError("table1 reached a 4^n x 4^n path")

        for name in ("pst_realization", "enumerate_group", "_liouville_view",
                     "unitary_superop", "hamiltonian_superop", "dissipator_superop"):
            monkeypatch.setattr(pst_core, name, refuse)
        monkeypatch.setattr(pst_core.TwirledChannel, "dense", refuse)
        monkeypatch.setattr(EffectiveGenerator, "from_generator", classmethod(refuse))
        report = run_table1(config)
        assert report.agreement_pct >= 99.0
        for label, amplitude in config.errors:
            assert abs(report.pst[label]) <= 1e-12
            assert abs(report.no_pst[label] - amplitude) <= 1e-15

    def test_zero_twirled_drive_weight_is_typed(self, monkeypatch):
        # The agreement percentage would divide by a zero twirled weight.  A
        # weight of exactly 0.0 appears only from about XX = 1e18, far past
        # the resolution bound (test_cli's XX = 1e20 case), so a zero
        # weight row stands in for it.
        monkeypatch.setattr(pst_core.TwirledChannel, "weights", lambda self: np.zeros(16))
        with pytest.raises(ResolutionError, match="the twirled ZX weight reads 0.0"):
            run_table1()

    def test_zero_duration_is_rejected(self):
        # The twirled row divides the log by -i tau.
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            run_table1(Table1Config(tau=0.0))

    @pytest.mark.parametrize("tau", [1e-300, 1e-20, 1e-12, 2e-10])
    def test_unresolvable_duration_is_typed(self, tau):
        # The log's roundoff, about eps / tau relative, would swamp the weights.
        with pytest.raises(ResolutionError, match=f"tau={tau!r} is too short"):
            run_table1(Table1Config(tau=tau))

    @pytest.mark.parametrize("tau", [experiments.TABLE1_MIN_TAU, 1e-9, 1e-6])
    def test_short_resolvable_duration_runs(self, tau):
        report = run_table1(Table1Config(tau=tau))
        assert report.pst["ZX"] == pytest.approx(report.theoretical_drive_coeff,
                                                 rel=1e-6)

    def test_four_qubit_peak_memory_is_below_one_dense_channel(self):
        # One 256 x 256 complex array, the n = 4 Liouville size, is 1 MiB.
        config = Table1Config(
            drive="ZXII", errors=(("XXIZ", 0.2), ("IYYI", 0.3), ("YZXY", 0.15))
        )
        run_table1(config)  # fill the Pauli-matrix cache outside the window
        tracemalloc.start()
        try:
            run_table1(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256 * 16

    def test_config_round_trip(self):
        config = Table1Config(tau=0.7, scale=0.5)
        assert Table1Config.from_dict(config.to_dict()) == config

    def test_unknown_config_field(self):
        with pytest.raises(ConfigError, match="unknown config"):
            Table1Config.from_dict({"tua": 0.5})


SMALL_SWEEP = ParitySweepConfig(
    noise_kinds=("none", "pauli_z", "amplitude_damping"),
    deltas=(-1.0, -0.5, 0.0, 0.5, 1.0),
)


class TestParitySweep:
    def test_row_structure_and_order(self):
        rows = run_parity_sweep(SMALL_SWEEP)
        assert len(rows) == 15
        kinds = [row.noise_kind for row in rows]
        assert kinds == ["none"] * 5 + ["pauli_z"] * 5 + ["amplitude_damping"] * 5
        for chunk in (rows[:5], rows[5:10], rows[10:]):
            assert [row.delta for row in chunk] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for row in rows:
            assert row.error >= 0 and row.symmetrized >= 0

    def test_symmetry_split_by_noise_kind(self):
        rows = run_parity_sweep(SMALL_SWEEP)
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row.noise_kind, {})[row.delta] = row.error
        for kind in ("none", "pauli_z"):
            asym = max(
                abs(by_kind[kind][d] - by_kind[kind][-d]) for d in (0.5, 1.0)
            )
            assert asym <= 1e-10
        damping_asym = max(
            abs(by_kind["amplitude_damping"][d] - by_kind["amplitude_damping"][-d])
            for d in (0.5, 1.0)
        )
        assert damping_asym > 1e-8

    def test_block_norms_are_the_dense_norms(self, monkeypatch):
        # The sweep takes norms of coset-block stacks and never densifies a
        # channel; the dense norm of the Liouville difference is the same.
        drive = SMALL_SWEEP.drive_spec()
        expected = [
            op_norm(pst_channel(drive, SMALL_SWEEP.error_spec(delta), SMALL_SWEEP.noise_spec(kind))
                    - ideal_channel(drive))
            for kind in SMALL_SWEEP.noise_kinds
            for delta in SMALL_SWEEP.delta_grid()
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep densified a channel")

        monkeypatch.setattr(pst_core.TwirledChannel, "dense", refuse)
        rows = run_parity_sweep(SMALL_SWEEP)
        assert max(abs(row.error - e) for row, e in zip(rows, expected)) <= 1e-14

    def test_builds_generators_in_the_pauli_transfer_basis(self, monkeypatch):
        # The default sweep: 41 deltas x 2 kinds, one exponential per
        # drive-sign pattern of each point, stacked a chunk of specs per
        # expm call, and one noise generator per kind, built in the
        # Pauli-transfer basis, with no change of basis and no
        # Liouville-basis generator at all.
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a Liouville-basis generator")

        for name in ("pst_realization", "hamiltonian_superop", "dissipator_superop",
                     "_liouville_view"):
            monkeypatch.setattr(pst_core, name, refuse)
        for name in ("hamiltonian_superop", "dissipator_superop", "_liouville_view"):
            monkeypatch.setattr(liouville, name, refuse)
        noise_transfers = []

        def noise_transfer(spec, n, original=pst_core._noise_transfer):
            noise_transfers.append(original(spec, n))
            return noise_transfers[-1]

        monkeypatch.setattr(pst_core, "_noise_transfer", noise_transfer)
        # One entry per matrix: a call on a stack (..., d, d) adds prod(...).
        calls = {"expm": []}
        call_count = dict.fromkeys(calls, 0)
        for name in calls:
            original = getattr(pst_core, name)

            def recording(m, *args, original=original, name=name):
                shape = np.shape(m)
                calls[name].extend([shape[-2:]] * math.prod(shape[:-2]))
                call_count[name] += 1
                return original(m, *args)

            monkeypatch.setattr(pst_core, name, recording)
        config = ParitySweepConfig()
        rows = run_parity_sweep(config)
        assert len(rows) == 82
        assert [(m.shape, m.dtype) for m in noise_transfers] == (
            [((16, 16), np.dtype(float))] * len(config.noise_kinds))
        assert calls["expm"] == [(16, 16)] * 2 * 82
        # One stacked expm per chunk of specs, two 16 x 16 patterns each.
        chunks = -(-config.delta_points // (pst_core._EXPM_STACK_ENTRIES // (2 * 16**2)))
        assert call_count["expm"] == len(config.noise_kinds) * chunks

    def test_parses_the_error_terms_once(self, monkeypatch):
        # Labels are parsed once per run, whatever the grid's size: each
        # grid point rescales the parsed spec.
        counts = []
        for points in (3, 9):
            config = ParitySweepConfig(delta_points=points, noise_kinds=("pauli_z",))
            calls = []
            monkeypatch.setattr(magnus, "pauli_from_label",
                                lambda label: calls.append(label) or pauli_from_label(label))
            run_parity_sweep(config)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1] == 1 + len(ParitySweepConfig().errors)

    def test_noiseless_origin_is_exact(self):
        rows = run_parity_sweep(SMALL_SWEEP)
        origin = [r for r in rows if r.noise_kind == "none" and r.delta == 0.0]
        assert origin[0].error <= 1e-12

    def test_symmetrized_column(self):
        rows = run_parity_sweep(SMALL_SWEEP)
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row.noise_kind, {})[row.delta] = row
        row = by_kind["amplitude_damping"][1.0]
        partner = by_kind["amplitude_damping"][-1.0]
        assert row.symmetrized == pytest.approx(
            0.5 * (row.error + partner.error), abs=1e-15
        )
        assert row.symmetrized == partner.symmetrized

    def test_default_grid_is_mirrored(self):
        grid = ParitySweepConfig().delta_grid()
        assert len(grid) == 41
        assert grid[0] == -1.0 and grid[-1] == 1.0 and 0.0 in grid
        for d in grid:
            assert -d in grid

    def test_missing_pair_rejected(self):
        with pytest.raises(ConfigError, match="mirror"):
            ParitySweepConfig(deltas=(0.5, 1.0, -1.0)).delta_grid()

    @pytest.mark.parametrize("config, repeated", [
        (dict(deltas=(0.5, -0.5, 0.5)), "delta grid repeats [0.5]"),
        (dict(deltas=(0.0, -0.0)), "delta grid repeats [-0.0]"),
        # A grid too fine for its step repeats 0.
        (dict(delta_max=5e-324, delta_points=5), "delta grid repeats [0.0]"),
        (dict(noise_kinds=("pauli_z", "none", "pauli_z", "none")),
         "noise_kinds repeats ['pauli_z', 'none']"),
    ], ids=["delta", "signed-zero", "underflow", "kinds"])
    def test_repeated_points_rejected(self, config, repeated):
        with pytest.raises(ConfigError, match=re.escape(repeated)):
            ParitySweepConfig(**config)

    def test_even_point_count_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            ParitySweepConfig(delta_points=40)

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ConfigError):
            ParitySweepConfig(noise_kinds=("thermal",))

    def test_csv_format_and_round_trip(self):
        rows = run_parity_sweep(SMALL_SWEEP)
        text = parity_rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "delta,error,symmetrized,noise_kind"
        assert len(lines) == 16
        fields = lines[1].split(",")
        assert float(fields[0]) == -1.0
        assert float(fields[1]) == rows[0].error  # shortest round-trip repr
        assert text == parity_rows_to_csv(run_parity_sweep(SMALL_SWEEP))

    def test_config_round_trip(self):
        assert ParitySweepConfig.from_dict(SMALL_SWEEP.to_dict()) == SMALL_SWEEP


QUICK_MAGNUS = MagnusCheckConfig(
    taus=(0.5,),
    error_sets=((("XX", 0.2), ("YY", 0.6)),),
    quadrature_tol=1e-8,
)


class TestMagnusCrosscheck:
    def test_quick_run_within_tolerance(self):
        report = run_magnus_crosscheck(QUICK_MAGNUS)
        assert report.all_within_tolerance
        row = report.rows[0]
        assert row.discrepancy <= 1e-6
        assert row.omega1_norm <= 1e-9
        assert row.note == ""

    def test_commuting_only_set_is_exact(self):
        config = MagnusCheckConfig(taus=(0.5,), error_sets=((("YY", 0.6),),))
        report = run_magnus_crosscheck(config)
        assert report.rows[0].discrepancy == 0.0
        assert report.rows[0].omega1_norm <= 1e-12

    def test_convergence_failure_noted_and_run_continues(self):
        # Each tau's rows share its kernels; a failure reaches every row.
        config = MagnusCheckConfig(
            taus=(0.5, 1.0),
            error_sets=((("XX", 0.2),), (("YX", 0.4), ("XX", 0.1))),
            max_evaluations=50,
        )
        report = run_magnus_crosscheck(config)
        assert len(report.rows) == 4
        assert not report.all_within_tolerance
        for row in report.rows:
            assert "quadrature" in row.note
            assert row.discrepancy is None
            assert row.omega1_norm is None
            assert row.within_tolerance is False

    def test_resolves_the_error_sets_once(self, monkeypatch):
        # The random sets are drawn once per run, not once per tau.
        config = MagnusCheckConfig(taus=(0.3, 0.5), random_sets=1)
        calls = []
        resolve = MagnusCheckConfig.resolved_error_sets
        monkeypatch.setattr(MagnusCheckConfig, "resolved_error_sets",
                            lambda self: calls.append(self) or resolve(self))
        report = run_magnus_crosscheck(config)
        assert len(calls) == 1
        assert len(report.rows) == 2 * 2

    def test_default_random_sets_are_pinned(self):
        # The default run's sets, drawn by random.Random(20240): a change of
        # stream changes the magnus-check report, so it must be deliberate.
        assert _random_anticommuting_sets("ZX", 5, 20240, 0.6) == (
            (("ZZ", 0.13134196241979074), ("XX", 0.41922697684005905),
             ("XI", 0.4118206693250973), ("IY", 0.47782125957218563)),
            (("ZZ", 0.26817321086088414), ("IZ", 0.34673947198078936)),
            (("YI", 0.2372181400565243), ("IY", 0.18227867161616768)),
            (("YI", 0.36446299551203554), ("XI", 0.1347401916224955),
             ("IZ", 0.5094401005452975)),
            (("ZZ", 0.3222193928500612), ("YI", 0.2795694830673586),
             ("IZ", 0.41546972439103835)),
        )

    @pytest.mark.parametrize("drive", ["X", "ZX", "ZXY"])
    def test_random_sets_are_anticommuting_and_bounded(self, drive):
        beta = pauli_from_label(drive)
        pool_size = 4 ** beta.n_qubits // 2  # half the group anticommutes
        sets = _random_anticommuting_sets(drive, 40, 20240, 0.6)
        assert len(sets) == 40
        for pairs in sets:
            labels = [label for label, _ in pairs]
            assert 2 <= len(pairs) <= min(4, pool_size)
            assert len(set(labels)) == len(labels)
            for label, amplitude in pairs:
                assert commutation_sign(pauli_from_label(label), beta) == -1
                assert RANDOM_AMPLITUDE_FLOOR <= amplitude <= 0.6

    def test_seeded_determinism(self):
        first = run_magnus_crosscheck(QUICK_MAGNUS)
        second = run_magnus_crosscheck(QUICK_MAGNUS)
        assert first.to_json() == second.to_json()
        assert _random_anticommuting_sets("ZX", 3, 7, 0.6) == _random_anticommuting_sets(
            "ZX", 3, 7, 0.6
        )

    def test_report_formats(self):
        report = run_magnus_crosscheck(QUICK_MAGNUS)
        payload = json.loads(report.to_json())
        assert payload["all_within_tolerance"] is True
        assert payload["rows"][0]["tau"] == 0.5
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("tau,errors,discrepancy")
        assert len(lines) == 2

    def test_config_round_trip(self):
        assert MagnusCheckConfig.from_dict(QUICK_MAGNUS.to_dict()) == QUICK_MAGNUS
