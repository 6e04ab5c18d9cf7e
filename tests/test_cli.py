"""CLI surface: exit codes, report lines, CSV stability."""

import pytest

from swarmauth.cli import main
from swarmauth.simnet import LatencyModel, baseline_total_us, time_group_auth


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_nr5g_defaults(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg", "scenario = nr5g\n")
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "total_ms=21.600" in out
        assert "method=nr-5g" in out

    def test_nr5g_hash_override(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg", "scenario = nr5g\nhash_op = 0.2ms\n")
        assert main(["run", "--config", config]) == 0
        assert "total_ms=22.000" in capsys.readouterr().out

    def test_inclusion_t5(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg",
                       "scenario = inclusion\nthreshold = 5\ngroup = toy\n")
        assert main(["run", "--config", config]) == 0
        assert "total_ms=6.060" in capsys.readouterr().out

    def test_bulk_prints_comparison(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg",
                       "scenario = bulk\nthreshold = 5\nn_drones = 100\ngroup = toy\n")
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "total_ms=66.060" in out
        assert "nr5g_total_ms=2160.000" in out

    def test_rejection_exits_2(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg",
                       "scenario = inclusion\nadversary = mitm\ngroup = toy\n")
        assert main(["run", "--config", config]) == 2
        assert "rejected" in capsys.readouterr().out

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg", "scenario = teleport\n")
        assert main(["run", "--config", config]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_seed_override(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg", "scenario = inclusion\ngroup = toy\n")
        assert main(["run", "--config", config, "--seed", "7"]) == 0


class TestSweep:
    def test_threshold_sweep_matches_law(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--variable", "threshold", "--from", "2",
                     "--to", "20", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "scenario,method,t,n_drones,time_ms"
        assert len(lines) == 1 + 2 * 19
        model = LatencyModel()
        base_ms = f"{baseline_total_us(model) / 1000:.3f}"
        for t in range(2, 21):
            group_ms = f"{time_group_auth(t, model) / 1000:.3f}"
            assert f"inclusion,nr-5g,{t},1,{base_ms}" in lines
            assert f"inclusion,group-auth,{t},1,{group_ms}" in lines
        stdout = capsys.readouterr().out
        assert "crossover_threshold=18" in stdout
        assert "conservative" in stdout

    def test_csv_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--variable", "threshold", "--from", "2", "--to", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_n_drones_sweep(self, tmp_path):
        out_csv = tmp_path / "bulk.csv"
        assert main(["sweep", "--variable", "n_drones", "--from", "25",
                     "--to", "100", "--step", "25", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert "bulk,nr-5g,5,100,2160.000" in lines
        assert "bulk,group-auth,5,100,66.060" in lines
        assert "bulk,group-auth,5,25,21.060" in lines  # 15 + 6.06 ms

    def test_empty_range_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--variable", "threshold", "--from", "9",
                     "--to", "5", "--out", str(tmp_path / "x.csv")]) == 1
        assert "empty sweep range" in capsys.readouterr().err

    def test_bad_step_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--variable", "threshold", "--from", "2",
                     "--to", "9", "--step", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_variable_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--variable", "altitude", "--from", "2",
                     "--to", "9", "--out", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--variable", "threshold", "--from", "2",
                     "--to", "5", "--out", str(tmp_path / "no" / "x.csv")]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_config_supplies_fixed_threshold(self, tmp_path):
        config = write(tmp_path, "a.cfg", "scenario = bulk\nthreshold = 3\n")
        out_csv = tmp_path / "bulk.csv"
        assert main(["sweep", "--variable", "n_drones", "--from", "10",
                     "--to", "10", "--out", str(out_csv),
                     "--config", config]) == 0
        # 10 * 0.6 + 3 * 1.212 = 9.636 ms
        assert "bulk,group-auth,3,10,9.636" in out_csv.read_text()


class TestAttack:
    @pytest.mark.parametrize("mode", ["replay", "eavesdrop", "mitm"])
    def test_modes_thwarted(self, mode, capsys):
        assert main(["attack", "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "inclusion" in out and "unification" in out
        assert "NOT" not in out

    def test_unknown_mode_exits_1(self, capsys):
        assert main(["attack", "--mode", "jam"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_with_config(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg",
                       "scenario = inclusion\ngroup = toy\nseed = 4\n")
        assert main(["attack", "--mode", "replay", "--config", config]) == 0
        assert "thwarted" in capsys.readouterr().out

    def test_bad_config_exits_1(self, tmp_path, capsys):
        config = write(tmp_path, "a.cfg", "nonsense\n")
        assert main(["attack", "--mode", "replay", "--config", config]) == 1

    def test_scenario_without_attack_surface_exits_1(self, tmp_path, capsys):
        # the mode is applied to the loaded config, which then fails
        # validation: a config error, not a traceback
        config = write(tmp_path, "a.cfg", "scenario = bulk\ngroup = toy\n")
        assert main(["attack", "--mode", "replay", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "config error: adversary" in err
        assert "Traceback" not in err
