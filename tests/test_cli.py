"""End-to-end tests of the command-line interface via in-process main().

Each invocation goes through the real argument parser and dispatch, so
these tests pin the exit-code contract, the file formats and the golden
values a user sees, without spawning subprocesses.
"""

import hashlib
import json
import math
import os
import re
import select
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qeraser import cli, protocols, qubits, sampler
from qeraser.cli import main
from qeraser.protocols import TSIRELSON_BOUND, hom_table


SCAN_BOUND = st.one_of(
    st.floats(-10.0, 10.0), st.floats(-1e-306, 1e-306), st.floats(-1e300, 1e300)
)


def parse_csv(text):
    """Split CLI CSV output into (metadata dict, header cells, data rows)."""
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    metadata = json.loads(lines[0][2:])
    rows = [line.split(",") for line in lines[2:] if not line.startswith("#")]
    return metadata, lines[1].split(","), rows


class TestExitCodes:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "qeraser 0.1.0" in capsys.readouterr().out

    def test_missing_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["hom", "--wavelength", "3"]) == 2

    def test_angles_and_optimize_conflict(self, capsys):
        code = main(["chsh", "--angles", "0,1,2,3", "--optimize"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_theta_and_scan_conflict(self, capsys):
        assert main(["phase-est", "--theta", "0", "--theta-scan", "0:1:4"]) == 2

    @pytest.mark.parametrize(
        "scan",
        # past 2**53 linspace raises for the first count and returns no points for the second
        ["0:1", "a:b:3", "0:1:0", "0:1:100000000000000000000", "0:1:9223372036854775807"],
    )
    def test_malformed_theta_scan(self, scan, capsys):
        assert main(["phase-est", "--theta-scan", scan]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theta-scan", "0:inf:2"],
            ["--theta-scan", "nan:1:2"],
            ["--theta-scan=-1e308:1.7e308:3"],
        ],
    )
    def test_non_finite_phase_points_are_one_usage_error_line(self, argv):
        # a child process, so an arithmetic warning printed on the way shows too
        result = subprocess.run(
            [sys.executable, "-m", "qeraser.cli", "phase-est", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        )
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("usage error: ")
        assert result.stdout == ""

    def test_unallocatable_theta_scan_fails_at_once(self, capsys):
        assert main(["phase-est", "--theta-scan", f"0:1:{2**53}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: MemoryError: no memory for {2**53} theta points"
        ]
        assert captured.out == ""

    def test_malformed_angles(self, capsys):
        assert main(["chsh", "--angles", "0,1,2"]) == 2
        assert main(["chsh", "--angles", "0,1,2,froth"]) == 2

    def test_sampled_csv_needs_output_path(self, capsys):
        code = main(["hom", "--mode", "sample", "--shots", "10", "--format", "csv"])
        assert code == 2
        assert "--output" in capsys.readouterr().err

    def test_invalid_config_value(self, capsys):
        assert main(["hom", "--mode", "sample", "--shots", "-4"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--mode", "sample", "--shots", "-4"],
            ["phase-est", "--n", "0"],
            ["phase-est", "--n", "21", "--mode", "sample"],
            ["chsh", "--angles", "0,1,2,inf"],
        ],
    )
    def test_rejected_flag_values_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--phi", "nan"],
            ["chsh", "--phi", "inf", "--angles", "0,1,2,3"],
            ["hom", "--control-angle=-inf"],
            ["hom", "--phi", "froth"],
        ],
    )
    def test_non_finite_float_flags_are_rejected(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "not a finite number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--phi", "0.8", "--control-angle", "1.5708"],
            ["chsh", "--angles", "0,1,2,3", "--control-angle", "1.5708"],
        ],
    )
    def test_control_angle_is_rejected_by_analytic_tables(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--control-angle is sampled-only" in captured.err
        assert captured.out == ""
        assert main([*argv, "--mode", "sample", "--shots", "200"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["hom", "--phi", "0.8", "--control-angle", "0.7"],
            ["chsh", "--angles", "0,1,2,3", "--control-angle", "0.7"],
            ["phase-est", "--n", "3", "--control-angle", "0"],
        ],
    )
    def test_control_angle_is_rejected_by_classical_mixture_runs(self, argv, capsys):
        sampled = ["--shots", "200", "--format", "summary"]
        assert main([*argv, "--mode", "classical-mixture", *sampled]) == 2
        captured = capsys.readouterr()
        assert "classical-mixture mode" in captured.err
        assert captured.out == ""
        assert main([*argv, "--mode", "sample", *sampled]) == 0

    def test_library_value_error_is_a_runtime_error(self, monkeypatch, capsys):
        def failing_table(*args, **kwargs):
            raise ValueError("table build failed")

        monkeypatch.setattr(cli, "hom_table", failing_table)
        assert main(["hom"]) == 1
        err = capsys.readouterr().err
        assert "error: ValueError: table build failed" in err
        assert "usage error" not in err

    def test_runs_without_scipy(self):
        probe = (
            "import sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy is blocked: ' + name)\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "from qeraser.cli import main\n"
            "codes = [\n"
            "    main(['chsh', '--phi', '0.4']),\n"
            "    main(['chsh', '--mode', 'classical-mixture', '--shots', '2000']),\n"
            "    main(['verify']),\n"
            "]\n"
            "print(codes, file=sys.stderr)\n"
            "sys.exit(max(codes))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        assert "29 passed, 0 failed" in result.stdout

    def test_closed_stdout_exits_1_without_a_diagnostic(self):
        # 5000 scan rows are far more than a pipe buffers, so the command is
        # still writing when its reader goes away after the first line
        with subprocess.Popen(
            [sys.executable, "-m", "qeraser.cli", "phase-est", "--theta-scan", "0:6:5000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ) as process:
            try:
                # a child that hangs before its header fails here, within the minute
                ready, _, _ = select.select([process.stdout], [], [], 60)
                assert ready, "no header line within 60 s"
                assert process.stdout.readline().startswith(b"# ")
                process.stdout.close()
                _, stderr = process.communicate(timeout=60)
            finally:
                process.kill()  # a no-op once the child is reaped
        assert process.returncode == 1
        assert stderr == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_into_a_closed_pipe_exits_1_without_a_diagnostic(self, flag, unbuffered):
        # buffered, the text waits in the stdout buffer until run() flushes it;
        # unbuffered, argparse's own write meets the closed pipe
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "qeraser.cli", flag],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == b""

    @pytest.mark.parametrize(
        "argv, code", [(["hom", "--phi", "0.8"], 0), (["hom", "--wavelength", "3"], 2)]
    )
    def test_run_exits_with_the_code_and_bytes_of_main(self, argv, code, capfd, monkeypatch):
        # run() ends its process with os._exit, so it runs in a child here;
        # both sides wrap argparse's usage line at the same width
        monkeypatch.setenv("COLUMNS", "80")
        result = subprocess.run(
            [sys.executable, "-m", "qeraser.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        capfd.readouterr()
        assert main(argv) == code
        captured = capfd.readouterr()
        assert result.returncode == code
        assert result.stdout == captured.out.encode()
        assert result.stderr == captured.err.encode()
        assert (result.stderr == b"") == (code == 0)

    def test_unwritable_output_is_a_runtime_error(self, capsys):
        code = main(["hom", "--output", "/no-such-directory/out.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def in_radians(degrees):
    """The radian value the CLI computes for an angle flag given in degrees."""
    return repr(degrees * (math.pi / 180.0))


class TestFlagValues:
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["phase-est"], "--theta-scan", "-1:1:4"),
            (["chsh"], "--angles", "-1,0,1,2"),
            (["hom"], "--phi", "-1e-3"),
            (["phase-est"], "--theta", "-2e-1"),
            (["hom", "--mode", "sample", "--shots", "500"], "--control-angle", "-1e-2"),
            (["hom"], "--phi", "-0.5"),
        ],
    )
    def test_a_negative_value_parses_as_its_equals_spelling(self, argv, flag, value, capsys):
        spaced = run_main([*argv, flag, value], capsys)
        assert spaced[0] == 0, spaced[2]
        assert spaced == run_main([*argv, f"{flag}={value}"], capsys)

    def test_an_unknown_short_option_is_still_rejected(self, capsys):
        code, out, err = run_main(["hom", "-x"], capsys)
        assert code == 2
        assert "unrecognized arguments: -x" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, degree_flags, radian_flags",
        [
            (["hom", "--mode", "sample", "--shots", "300"], [], []),
            (
                ["chsh", "--mode", "sample", "--shots", "300"],
                ["--angles", "10,100,55,145"],
                ["--angles", ",".join(in_radians(a) for a in (10, 100, 55, 145))],
            ),
            (
                ["phase-est", "--n", "3"],
                ["--theta", "40"],
                ["--theta", in_radians(40)],
            ),
            (
                ["phase-est", "--n", "3", "--mode", "sample", "--shots", "300"],
                ["--theta", "40"],
                ["--theta", in_radians(40)],
            ),
        ],
    )
    def test_degrees_convert_phi_and_the_control_angle(
        self, argv, degree_flags, radian_flags, capsys
    ):
        in_degrees = run_main(
            [*argv, "--degrees", *degree_flags, "--phi", "30", "--control-angle", "25"], capsys
        )
        assert in_degrees[0] == 0, in_degrees[2]
        radian_argv = [*argv, *radian_flags, "--phi", in_radians(30)]
        assert in_degrees == run_main(
            [*radian_argv, "--control-angle", in_radians(25)], capsys
        )

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["hom", "--phi", "1e308"], 1e308),
            (["hom", "--mode", "sample", "--shots", "10", "--control-angle=-1e308"], -1e308),
            (["chsh", "--angles=1e308,0,0,-1e308"], None),
            (["phase-est", "--n", "2", "--theta", "1e308"], 1e308),
            (["phase-est", "--n", "2", "--theta-scan=-1e308:0:1"], -1e308),
        ],
    )
    def test_degrees_take_every_finite_angle(self, argv, written, capsys):
        # math.radians multiplies once by pi/180 < 1, so no finite angle overflows
        code, out, err = run_main([*argv, "--degrees"], capsys)
        assert (code, err) == (0, "")
        assert written is None or in_radians(written) in out


class TestHomCommand:
    def test_analytic_csv_matches_the_table(self, capsys):
        assert main(["hom", "--phi", "0.7", "--statistics", "fermion"]) == 0
        metadata, header, rows = parse_csv(capsys.readouterr().out)
        assert metadata["command"] == "hom"
        assert metadata["params"]["statistics"] == "fermion"
        assert header == ["outcome", "C=up", "C=down", "C=?"]
        table = hom_table(0.7, "fermion")
        for row in rows:
            for column, cell in zip(header[1:], row[1:]):
                assert float(cell) == pytest.approx(
                    table.value(row[0], column), abs=1e-15
                )

    def test_analytic_summary_format(self, capsys):
        assert main(["hom", "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "outcome" in out and "C=?" in out and "AB" in out

    def test_degrees_flag(self, capsys):
        assert main(["hom", "--phi", "90", "--degrees"]) == 0
        degrees_rows = parse_csv(capsys.readouterr().out)[2]
        assert main(["hom", "--phi", repr(math.pi / 2)]) == 0
        radian_rows = parse_csv(capsys.readouterr().out)[2]
        for row_a, row_b in zip(degrees_rows, radian_rows):
            for cell_a, cell_b in zip(row_a[1:], row_b[1:]):
                assert float(cell_a) == pytest.approx(float(cell_b), abs=1e-12)

    def test_sampled_csv_writes_both_streams(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            ["hom", "--mode", "sample", "--shots", "50", "--seed", "5",
             "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        control = tmp_path / "run.control.csv"
        assert out.exists() and control.exists()
        assert out.read_text().startswith("# ")
        header_line = control.read_text().split("\n")[1]
        assert header_line == "shot_index,control_outcome,basis_angle"
        notice = capsys.readouterr().err
        assert str(out) in notice and str(control) in notice

    def test_sampled_summary_reports_joined_and_unjoined(self, capsys):
        code = main(["hom", "--mode", "sample", "--shots", "400", "--phi", "0.9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "joined empirical table" in out
        assert "unjoined empirical table" in out
        assert "reference (analytic" in out

    def test_classical_mixture_mode(self, capsys):
        assert main(["hom", "--mode", "classical-mixture", "--shots", "200"]) == 0
        assert "joined empirical table" in capsys.readouterr().out


class TestChshCommand:
    def test_default_optimizer_reaches_the_bound(self, capsys):
        assert main(["chsh", "--phi", "0.4"]) == 0
        out = capsys.readouterr().out
        comment = [l for l in out.strip().split("\n") if l.startswith("# S_up=")][0]
        s_up = float(comment.split("S_up=")[1].split()[0])
        assert s_up == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_fixed_angles_match_the_correlator_oracle(self, capsys):
        phi = 0.3
        assert main(["chsh", "--phi", str(phi), "--angles", "0.1,0.9,0.4,1.6"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header[:4] == ["setting_a", "setting_b", "theta_a", "theta_b"]
        for row in rows:
            theta_a, theta_b = float(row[2]), float(row[3])
            assert float(row[4]) == pytest.approx(
                oracles.chsh_correlator(theta_a, theta_b, phi, +1), abs=1e-12
            )
            assert float(row[5]) == pytest.approx(
                oracles.chsh_correlator(theta_a, theta_b, phi, -1), abs=1e-12
            )
            assert float(row[6]) == pytest.approx(0.0, abs=1e-12)

    def test_degrees_angles(self, capsys):
        assert main(["chsh", "--angles", "0,90,45,135", "--degrees"]) == 0
        _, _, degree_rows = parse_csv(capsys.readouterr().out)
        angles = ",".join(repr(a) for a in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4))
        assert main(["chsh", "--angles", angles]) == 0
        _, _, radian_rows = parse_csv(capsys.readouterr().out)
        for row_a, row_b in zip(degree_rows, radian_rows):
            for cell_a, cell_b in zip(row_a[2:], row_b[2:]):
                assert float(cell_a) == pytest.approx(float(cell_b), abs=1e-12)

    def test_sampled_summary(self, capsys):
        code = main(
            ["chsh", "--mode", "sample", "--shots", "4000", "--seed", "9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "empirical S (joined C=up)" in out
        assert "standard errors" in out

    def test_zero_standard_error_has_no_significance(self, capsys):
        # the C=up set holds 4 shots whose correlators are all +-1
        code, out, _ = run_main(
            ["chsh", "--mode", "sample", "--shots", "6", "--seed", "79",
             "--angles=0,1.5708,0.7854,-0.7854"],
            capsys,
        )
        assert code == 0
        assert "empirical S (joined C=up):   +2.0000 +- 0.0000 (4 shots)\n" in out
        assert out.endswith("(C=up branch): n/a (zero standard error)\n")

    def test_analytic_summary_format(self, capsys):
        assert main(["chsh", "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "S (C=up)" in out and "quantum bound" in out

    def test_optimizer_takes_no_branch(self, capsys):
        # one setting is optimal on both branches, so nothing names a branch
        assert main(["chsh", "--phi", "0.4"]) == 0
        metadata, _, _ = parse_csv(capsys.readouterr().out)
        assert set(metadata["params"]) == {"phi", "settings"}
        assert main(["chsh", "--condition", "up"]) == 2

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("sample", "7c6c23487a66ef12f5bcb18b4705907c8d6b43ebe0751453d99893a5b9ea7543"),
            (
                "classical-mixture",
                "fc6b91f5c45387cf29462c41a7ea8a2e34f97b8f489ea37b8a894086c51c78bb",
            ),
        ],
    )
    def test_sampled_summary_body_is_pinned(self, mode, digest, capsys):
        # default settings at phi = 0, every setting pair present in each set
        assert main(["chsh", "--mode", mode, "--shots", "4000", "--seed", "9"]) == 0
        body = capsys.readouterr().out.split("\n", 1)[1]
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    def test_which_way_summary_reads_its_analytic_s_at_the_readout(self, capsys):
        # the control read along sigma_x reveals which way: no branch violates
        argv = ["chsh", "--mode", "sample", "--shots", "400000", "--seed", "5",
                "--control-angle", "1.5707963267948966"]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        assert "analytic S: up=0.000000 down=0.000000 unjoined=0.000000\n" in out

    def test_analytic_command_reads_the_joint_columns_once_per_pair(self, capsys):
        with mock.patch.object(
            protocols, "_chsh_columns", wraps=protocols._chsh_columns
        ) as columns:
            for form in ("csv", "summary"):
                assert main(["chsh", "--phi", "0.3", "--format", form]) == 0
                assert columns.call_count == 4
                columns.reset_mock()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "mode, missing", [("classical-mixture", "(1, 0)"), ("sample", "(1, 1)")]
    )
    def test_sampled_summary_without_a_setting_pair(self, mode, missing, capsys):
        argv = ["chsh", "--mode", mode, "--angles", "0,1,2,3", "--shots", "10", "--seed", "0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "settings: a0=0.000000 a1=1.000000 b0=2.000000 b1=3.000000"
        assert lines[2].startswith("analytic S: up=0.449690 down=0.449690")
        reason = f"n/a (no records for setting pair {missing})"
        assert len(lines) == 7
        shots = []
        for line, label in zip(lines[3:6], ("joined C=up", "joined C=down", "unjoined")):
            assert line.startswith(f"empirical S ({label}):")
            assert reason in line
            shots.append(int(line.rsplit("(", 1)[1].split()[0]))
        assert shots[0] + shots[1] == shots[2] == 10
        assert lines[6] == f"violation of |S| <= 2 (C=up branch): {reason}"


class TestPhaseEstCommand:
    def test_analytic_scan_matches_the_fringe(self, capsys):
        n, count = 6, 64
        code = main(["phase-est", "--n", str(n), "--theta-scan", "0:6.2832:64"])
        assert code == 0
        metadata, header, rows = parse_csv(capsys.readouterr().out)
        assert metadata["params"]["n"] == n
        assert header == [
            "theta",
            "parity_given_up",
            "parity_given_down",
            "parity_unjoined",
            "phase_variance",
        ]
        assert len(rows) == count
        for row in rows:
            theta = float(row[0])
            assert float(row[1]) == pytest.approx(
                oracles.parity_fringe(n, theta, 0.0, +1), abs=1e-10
            )
            assert float(row[2]) == pytest.approx(
                oracles.parity_fringe(n, theta, 0.0, -1), abs=1e-10
            )
            assert float(row[3]) == pytest.approx(0.0, abs=1e-12)
            variance = float(row[4])
            # near-stationary points lose the 1 - fringe^2 difference to
            # rounding; the identity itself is checked in test_protocols
            if abs(math.sin(n * theta)) > 1e-3:
                assert variance == pytest.approx(
                    oracles.heisenberg_variance(n), rel=1e-9
                )
        assert math.isinf(float(rows[0][4]))  # stationary fringe at theta = 0

    def test_analytic_summary_matches_the_fringe(self, capsys):
        n, phi = 5, 0.7
        argv = ["phase-est", "--n", str(n), "--phi", str(phi), "--theta-scan", "0:6.2832:16"]
        assert main([*argv, "--format", "summary"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0][2:])["params"]["theta_points"] == 16
        assert lines[1] == f"n={n} phi=0.700000 control_angle=1.570796"
        assert len(lines) == 2 + 16
        pattern = re.compile(
            r"theta=(\S+): <P\|up>=(\S+) <P\|down>=(\S+) <P>=(\S+) variance=(\S+)"
        )
        for line, theta in zip(lines[2:], oracles.numpy_theta_scan(0.0, 6.2832, 16)):
            fields = pattern.fullmatch(line).groups()
            assert fields[0] == f"{theta:+.6f}"
            up, down, raw = (float(value) for value in fields[1:4])
            # six printed decimals: within half a unit of the last one
            assert up == pytest.approx(oracles.parity_fringe(n, theta, phi, +1), abs=5.1e-7)
            assert down == pytest.approx(oracles.parity_fringe(n, theta, phi, -1), abs=5.1e-7)
            assert raw == pytest.approx(0.0, abs=5.1e-7)
            if abs(math.sin(n * theta + phi)) > 1e-3:
                assert float(fields[4]) == pytest.approx(oracles.heisenberg_variance(n), rel=1e-9)

    @settings(max_examples=300)
    @given(start=SCAN_BOUND, stop=SCAN_BOUND, count=st.integers(1, 400), degrees=st.booleans())
    @example(start=0.0, stop=5e-324, count=3, degrees=False)
    @example(start=-5e-324, stop=5e-324, count=5, degrees=True)
    def test_scan_points_equal_numpy_linspace(self, start, stop, count, degrees):
        # a step that underflows to 0 takes linspace's other branch, as in the examples
        args = cli.build_parser().parse_args(
            ["phase-est", f"--theta-scan={start!r}:{stop!r}:{count}"]
            + (["--degrees"] if degrees else [])
        )
        expected = oracles.numpy_theta_scan(start, stop, count, degrees)
        assert np.array(cli._phase_points(args)).tobytes() == expected.tobytes()

    def test_single_point_defaults_to_zero_phase(self, capsys):
        assert main(["phase-est", "--n", "3"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(-1.0, abs=1e-12)  # (-1)^3 cos(0)

    def test_metrology_path_builds_no_dense_register(self, monkeypatch, capsys):
        # branch statistics live on the two-amplitude GHZ support: no
        # 2**(n+1) state vector is built, even for the largest register
        def dense(*args, **kwargs):
            raise AssertionError("dense register built on the metrology path")

        for name in ("ghz_state", "apply_single_qubit", "project_qubit"):
            original = getattr(qubits, name)
            for module in (protocols, qubits, sampler, cli):
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attribute, dense)
        assert main(["phase-est", "--n", "20", "--theta-scan", "0:6.2832:64"]) == 0
        assert len(parse_csv(capsys.readouterr().out)[2]) == 64
        code = main(
            ["phase-est", "--n", "20", "--mode", "sample", "--shots", "500",
             "--theta-scan", "0:3:3"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("<P|up>") == 3

    def test_which_way_readout_has_no_variance_column_values(self, capsys):
        assert main(["phase-est", "--n", "2", "--control-angle", "0"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert rows[0][4] == ""
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)

    def test_degrees_scan(self, capsys):
        assert main(["phase-est", "--n", "2", "--theta-scan", "0:360:8", "--degrees"]) == 0
        degree_rows = parse_csv(capsys.readouterr().out)[2]
        scan = f"0:{repr(2 * math.pi)}:8"
        assert main(["phase-est", "--n", "2", "--theta-scan", scan]) == 0
        radian_rows = parse_csv(capsys.readouterr().out)[2]
        for row_a, row_b in zip(degree_rows, radian_rows):
            for cell_a, cell_b in zip(row_a[:4], row_b[:4]):
                assert float(cell_a) == pytest.approx(float(cell_b), abs=1e-12)

    def test_sampled_scan_summary_and_seed_rule(self, capsys):
        code = main(
            ["phase-est", "--mode", "sample", "--shots", "300", "--n", "2",
             "--theta-scan", "0:3:3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        header = json.loads(out.split("\n", 1)[0][2:])
        assert header["seed_rule"] == "seed + theta point index"
        assert header["theta_points"] == 3
        assert out.count("<P|up>") == 3

    def test_sampled_csv_is_the_aggregated_fringe(self, tmp_path):
        out = tmp_path / "fringe.csv"
        code = main(
            ["phase-est", "--mode", "sample", "--shots", "2000", "--n", "2",
             "--theta", "0.4", "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        metadata, header, rows = parse_csv(out.read_text())
        assert "seed_rule" in metadata
        assert header == [
            "theta",
            "parity_given_up",
            "stderr_up",
            "parity_given_down",
            "stderr_down",
            "parity_unjoined",
            "stderr_unjoined",
        ]
        parity, stderr = float(rows[0][1]), float(rows[0][2])
        expected = oracles.parity_fringe(2, 0.4, 0.0, +1)
        assert abs(parity - expected) <= 5.0 * stderr


class TestByteDeterminism:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(
                ["chsh", "--mode", "sample", "--shots", "500", "--seed", "42",
                 "--angles", "0,1.5707963,0.7853981,2.3561944",
                 "--format", "csv", "--output", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        control = [p.with_name(p.stem + ".control.csv") for p in paths]
        assert control[0].read_bytes() == control[1].read_bytes()


class TestVerifyCommand:
    @pytest.mark.parametrize("flag", ["--degrees", "--format=csv", "--format=summary"])
    def test_takes_no_flag_it_would_ignore(self, flag, capsys):
        code, out, err = run_main(["verify", flag], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag}" in err

    def test_full_invariant_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert ", 0 failed" in out
        assert "FAIL" not in out
