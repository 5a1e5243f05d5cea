import contextlib
import os
import sys
import tracemalloc

import pytest

import gridfa as g
from gridfa.cli import entry, main
from gridfa.languages import natural_rows

from conftest import starve_the_chain


@pytest.fixture()
def a_l1_file(tmp_path):
    path = tmp_path / "a_l1.m2d"
    path.write_text(g.serialize_machine(g.build_A_L1()))
    return str(path)


@pytest.fixture()
def m_m1_file(tmp_path):
    path = tmp_path / "m_m1.m2d"
    path.write_text(g.serialize_machine(g.build_M_M1()))
    return str(path)


def write_pictures(tmp_path, name, *pictures):
    from gridfa.grid import format_picture_stream

    path = tmp_path / name
    path.write_text(format_picture_stream([g.Picture.from_rows(rows) for rows in pictures]))
    return str(path)


class TestAccept:
    def test_fig1_accepted(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "fig1.pic", ["01010001000", "00010101000"])
        assert main(["accept", a_l1_file, pics]) == 0
        assert capsys.readouterr().out == "ACCEPT\n"

    def test_all_zeros_rejected(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "z.pic", ["000", "000"])
        assert main(["accept", a_l1_file, pics]) == 1
        assert capsys.readouterr().out == "REJECT\n"

    def test_stream_verdict_per_picture(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "s.pic", ["11", "11"], ["00", "00"])
        assert main(["accept", a_l1_file, pics]) == 1
        assert capsys.readouterr().out == "ACCEPT\nREJECT\n"

    def test_malformed_machine_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.m2d"
        bad.write_text("machine broken\nwhatever\n")
        pics = write_pictures(tmp_path, "p.pic", ["11", "11"])
        assert main(["accept", str(bad), pics]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, a_l1_file, capsys):
        assert main(["accept", a_l1_file, "/nonexistent.pic"]) == 2

    def test_crlf_picture_file(self, a_l1_file, tmp_path, capsys):
        pics = tmp_path / "crlf.pic"
        pics.write_bytes(b"11\r\n11\r\n--\r\n00\r\n00\r\n")
        assert main(["accept", a_l1_file, str(pics)]) == 1
        assert capsys.readouterr().out == "ACCEPT\nREJECT\n"

    def test_stream_error_names_the_file_line(self, a_l1_file, tmp_path, capsys):
        pics = tmp_path / "bad.pic"
        pics.write_text("01\n--\n0x\n")
        assert main(["accept", a_l1_file, str(pics)]) == 2
        assert capsys.readouterr().err == f"error: {pics}: line 3: symbol 'x' not in alphabet\n"

    def test_empty_last_stream_picture_names_its_separator(self, a_l1_file, tmp_path, capsys):
        pics = tmp_path / "trailing.pic"
        pics.write_text("11\n11\n--\n")
        assert main(["accept", a_l1_file, str(pics)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {pics}: empty picture after the last stream separator, on line 3\n"
        )

    def test_budget_override_flag(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "m.pic", ["11", "11"])
        assert main(["accept", a_l1_file, pics, "--budget-up", "0"]) == 1

    @pytest.mark.parametrize("flag", ["--budget-up", "--budget-left"])
    @pytest.mark.parametrize("token", ["\u0660", "+0", "00", " 0", "0_0"])
    def test_non_canonical_budget_flag_refused(self, a_l1_file, tmp_path, capsys, flag, token):
        pics = write_pictures(tmp_path, "m.pic", ["11", "11"])
        assert main(["accept", a_l1_file, pics, flag, token]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget must be an integer or 'inf'" in captured.err


class TestTrace:
    def test_one_up_line_for_fig1(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "fig1.pic", ["01010001000", "00010101000"])
        assert main(["trace", a_l1_file, pics]) == 0
        out = capsys.readouterr().out
        assert out.count("--U-->") == 1
        assert out.strip().endswith("ACCEPT")

    def test_no_accepting_run(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "z.pic", ["00", "00"])
        assert main(["trace", a_l1_file, pics]) == 1
        assert capsys.readouterr().out == "NO ACCEPTING RUN\n"

    def test_deterministic_loop_trace(self, tmp_path, capsys, looper):
        machine_file = tmp_path / "loop.m2d"
        machine_file.write_text(g.serialize_machine(looper))
        pics = write_pictures(tmp_path, "p.pic", ["10"])
        assert main(["trace", str(machine_file), pics]) == 1
        assert capsys.readouterr().out.strip().endswith("LOOP")


class TestRun:
    def test_det_outcomes(self, m_m1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "p.pic", ["101", "101"], ["111", "111"])
        assert main(["run", m_m1_file, pics]) == 1
        assert capsys.readouterr().out == "ACCEPT\nREJECT\n"

    def test_nondet_outcomes(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "p.pic", ["11", "11"])
        assert main(["run", a_l1_file, pics]) == 0
        assert capsys.readouterr().out == "ACCEPT\n"


class TestBuild:
    def test_build_writes_round_trippable_file(self, tmp_path):
        out = tmp_path / "b.m2d"
        assert main(["build", "B_L", "--param", "2", "-o", str(out)]) == 0
        machine = g.parse_machine(out.read_text())
        assert machine == g.build_B_L(2)

    def test_build_to_stdout(self, capsys):
        assert main(["build", "P_N2"]) == 0
        assert capsys.readouterr().out.startswith("machine P_N2\n")

    def test_build_then_accept(self, tmp_path, capsys):
        out = tmp_path / "a.m2d"
        assert main(["build", "A_L1", "-o", str(out)]) == 0
        pics = write_pictures(tmp_path, "fig1.pic", ["01010001000", "00010101000"])
        assert main(["accept", str(out), pics]) == 0

    def test_unknown_builder(self, capsys):
        assert main(["build", "NOPE"]) == 2

    @pytest.mark.parametrize("where", ["a directory", "a missing parent"])
    def test_unwritable_output(self, where, tmp_path, capsys):
        out = tmp_path if where == "a directory" else tmp_path / "missing" / "a.m2d"
        assert main(["build", "A_L1", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write machine file {out}: ")

    def test_missing_param(self, capsys):
        assert main(["build", "D_K"]) == 2


class TestEnumerate:
    def test_counts_and_separators(self, capsys):
        assert main(["enumerate", "--rows", "1", "--cols", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("--") == 3  # 4 pictures, 3 separators
        assert out.split("\n")[0] == "00"

    def test_bad_shape(self, capsys):
        assert main(["enumerate", "--rows", "0", "--cols", "2"]) == 2

    def test_empty_alphabet(self, capsys):
        assert main(["enumerate", "--alphabet", "", "--rows", "1", "--cols", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alphabet must not be empty\n"

    def test_pictures_are_written_as_they_are_enumerated(self):
        # 2^18 pictures; building the whole stream first peaks above 60 MB.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["enumerate", "--rows", "3", "--cols", "6"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4_000_000

    def test_one_row_pictures_are_streamed(self):
        # 2^16 one-row pictures: buffering the first |alphabet|^cols of them
        # to look for a separator row held the whole stream (26.7 MB).
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["enumerate", "--rows", "1", "--cols", "16"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "alphabet, rows, cols, number, row",
        [
            ("-", "2", "2", 1, 1),
            ("01-", "3", "2", 9, 3),
            ("-0", "3", "2", 1, 1),
            ("0-", "1", "2", 4, 1),
            ("a-b", "2", "2", 5, 2),
        ],
    )
    def test_picture_with_a_separator_row_is_refused_before_any_output(
        self, alphabet, rows, cols, number, row, capsys
    ):
        argv = ["enumerate", f"--alphabet={alphabet}", "--rows", rows, "--cols", cols]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: picture {number} cannot be written to a stream: its row {row} "
            "is the stream separator '--'\n"
        )

    def test_picture_with_a_separator_row_is_refused(self, capsys):
        # Over 0 and -, the fourth picture of 1x2 is the row "--".
        assert main(["enumerate", "--alphabet", "0-", "--rows", "1", "--cols", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: picture 4 cannot be written to a stream")

    @pytest.mark.parametrize(
        "alphabet, rows, cols, message",
        [
            ("001", "1", "2", "alphabet declares symbol '0' twice"),
            ("0#", "1", "2", "alphabet may not contain the boundary marker '#'"),
            ("01", "0", "2", "enumeration needs rows >= 1 and cols >= 1"),
            ("", "1", "0", "enumeration needs rows >= 1 and cols >= 1"),
            ("0#0", "0", "2", "enumeration needs rows >= 1 and cols >= 1"),
            ("0\r", "1", "2", "alphabet symbol is a line break: '\\r'"),
            ("\n1", "1", "1", "alphabet symbol is a line break: '\\n'"),
        ],
    )
    def test_bad_alphabet_or_shape(self, alphabet, rows, cols, message, capsys):
        argv = ["enumerate", "--alphabet", alphabet, "--rows", rows, "--cols", cols]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestCheck:
    def test_clean_check_exits_zero(self, capsys):
        assert main(["check", "A_L1", "L1", "--rows", "2", "--cols-max", "4"]) == 0
        assert "mismatches=0" in capsys.readouterr().out

    def test_flawed_check_exits_one(self, capsys):
        assert main(["check", "FLAWED_L1_3W0", "L1", "--rows", "2", "--cols-max", "4"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_unknown_language(self, capsys):
        assert main(["check", "A_L1", "Q9"]) == 2

    def test_parametric_builder(self, capsys):
        assert main(["check", "M_Mi", "M2", "--param", "2", "--cols-max", "3"]) == 0

    @pytest.mark.parametrize("command", ["check", "sweep"])
    @pytest.mark.parametrize("cols_max", ["0", "-1"])
    def test_cols_max_below_one(self, command, cols_max, capsys):
        assert main([command, "A_L1", "L1", "--cols-max", cols_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cols-max must be >= 1\n"

    def test_more_than_4096_rows(self, capsys):
        # The natural row count of L99999999999999999999 is twice its index.
        assert main(["check", "A_L1", "L99999999999999999999", "--cols-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need rows <= 4096, got 199999999999999999998\n"

    @pytest.mark.parametrize("cols_max", ["10000", "99999999999999999999"])
    def test_more_than_4096_columns(self, cols_max, capsys):
        # Refused before any width is swept: 99999999999999999999 ran with
        # no bound, and 10000 ran into the interpreter's limit on the digits
        # of an int converted to text.
        assert main(["check", "A_L1", "L1", "--cols-max", cols_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need cols_max <= 4096, got {cols_max}\n"

    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_rows_below_one(self, rows, capsys):
        assert main(["check", "A_L1", "L1", "--rows", rows]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: enumeration needs rows >= 1 and cols >= 1\n"


class TestSweep:
    def test_starvation_sweep(self, capsys):
        code = main([
            "sweep", "M_Mi", "M2", "--param", "2", "--cols-max", "3",
            "--budget-up", "0", "--budget-up", "1", "--budget-up", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget (0,inf): accepted 0" in out

    def test_override_above_declared(self, capsys):
        assert main(["sweep", "A_L1", "L1", "--budget-up", "5"]) == 2


#: The builder/language pairs the CLI tests above check, with their params.
CHECKED_PAIRS = [("A_L1", "L1", None), ("FLAWED_L1_3W0", "L1", None), ("M_Mi", "M2", 2)]


@pytest.mark.parametrize("builder, language, param", CHECKED_PAIRS)
def test_check_is_the_sweep_at_the_declared_budget(builder, language, param, capsys):
    machine = g.make_machine(builder, param)
    rows = natural_rows(language)
    assert g.oracle_equivalence(machine, language, rows, 3) == g.budget_sweep(
        machine, language, rows, 3, [machine.budget]
    )
    flags = ["--cols-max", "3"] + ([] if param is None else ["--param", str(param)])
    outputs = []
    for command in ("check", "sweep"):
        code = main([command, builder, language, *flags])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]


#: One stream of mixed shapes: members and non-members of the witness
#: languages, with 1, 2 and 4 rows.
MIXED_STREAM = [
    ["01010001000", "00010101000"], ["11", "11"], ["00", "00"], ["101", "101"],
    ["111", "111"], ["1"], ["11", "11", "11", "11"], ["0110", "0110", "1001", "1001"],
    ["1111", "1111"], ["110011", "110011"],
]


@pytest.mark.parametrize(
    "builder, param",
    [(name, 2 if parametric else None) for name, (_, parametric) in sorted(g.BUILDERS.items())],
)
def test_accept_run_and_trace_agree(builder, param, tmp_path, capsys):
    machine = g.make_machine(builder, param)
    machine_file = tmp_path / "m.m2d"
    machine_file.write_text(g.serialize_machine(machine))
    pics = write_pictures(tmp_path, "mixed.pic", *MIXED_STREAM)
    results = {}
    for command in ("accept", "run", "trace"):
        code = main([command, str(machine_file), pics])
        results[command] = code, capsys.readouterr().out.splitlines()
    (accept_code, accepted), (run_code, outcomes) = results["accept"], results["run"]
    assert len(accepted) == len(MIXED_STREAM)
    if machine.mode == "nondet":
        assert outcomes == accepted
    else:
        assert [o == "ACCEPT" for o in outcomes] == [v == "ACCEPT" for v in accepted]
    assert accept_code == run_code == results["trace"][0]


class TestSplice:
    def test_default_z_demonstrates(self, capsys):
        assert main(["splice", "FLAWED_L1_3W0"]) == 0
        out = capsys.readouterr().out
        assert "ACCEPTED, NOT IN L1" in out

    def test_tiny_z_inconclusive(self, capsys):
        assert main(["splice", "FLAWED_L1_3W0", "--z", "2"]) == 1
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_sound_machine_never_demonstrates(self, capsys):
        # A_L1 is a real recognizer: matches exist but splices get rejected
        assert main(["splice", "A_L1", "--z", "6"]) == 1


class TestHierarchy:
    def test_table_and_exit(self, capsys):
        assert main(["hierarchy", "--i-max", "1", "--cols-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "confirmed" in out
        assert "record=hierarchy" in out

    def test_bad_i_max(self, capsys):
        assert main(["hierarchy", "--i-max", "0"]) == 2

    @pytest.mark.parametrize("cols_max", ["0", "-1"])
    def test_cols_max_below_one(self, cols_max, capsys):
        assert main(["hierarchy", "--cols-max", cols_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cols-max must be >= 1\n"


Z_REFUSED = "error: --z must be at least 2\n"


@pytest.mark.parametrize(
    "argv, code, out_line, err",
    [
        (["splice", "A_L1", "--z", "1"], 2, None, Z_REFUSED),
        (["splice", "M_Mi", "--param", "1", "--z", "-3"], 2, None, Z_REFUSED),
        (
            ["hierarchy", "--i-max", "1", "--cols-max", "3"],
            1,
            "record=hierarchy i=1 class=3W[1]-det language=M1 members=4 "
            "starvation=FAILED mismatches=4",
            "",
        ),
    ],
)
def test_refusals_and_failures_exit_non_zero(argv, code, out_line, err, monkeypatch, capsys):
    # The chain machines accept nothing here, so hierarchy reports a failure.
    starve_the_chain(monkeypatch)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if out_line is None:
        assert captured.out == ""
    else:
        assert out_line in captured.out.split("\n")


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            ([], 2),
            (["hierarchy", "--i-max", "1", "--cols-max", "2"], 0),
            (["splice", "A_L1", "--z", "6"], 1),
        ],
    )
    def test_the_console_script_exits_with_the_code_main_returns(
        self, argv, code, monkeypatch, capsys
    ):
        assert main(argv) == code
        printed = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["gridfa", *argv])
        with pytest.raises(SystemExit) as exited:
            entry()
        assert exited.value.code == code
        assert capsys.readouterr() == printed
