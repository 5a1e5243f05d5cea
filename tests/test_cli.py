import pytest

import gridfa as g
from gridfa.cli import main


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

    def test_budget_override_flag(self, a_l1_file, tmp_path, capsys):
        pics = write_pictures(tmp_path, "m.pic", ["11", "11"])
        assert main(["accept", a_l1_file, pics, "--budget-up", "0"]) == 1


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


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
