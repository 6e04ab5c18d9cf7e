"""CLI surface: exit codes, report lines, CSV stability."""

import pathlib
import re
import shlex

import pytest

from swarmauth import cli, protocol
from swarmauth.cli import main
from swarmauth.simnet import LatencyModel, baseline_total_us, time_group_auth


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, expected stdout) of each ``$ swarmauth`` line in README's
    text blocks: the lines under the command, up to the next command or
    the end of the block."""
    readme = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```text\n(.*?)```", readme, re.S):
        for command in re.split(r"^\$ swarmauth ", block, flags=re.M)[1:]:
            line, _, expected = command.partition("\n")
            examples.append((shlex.split(line), expected))
    return examples


README_EXAMPLES = readme_examples()


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

    @pytest.mark.parametrize("text,line", [
        ("scenario = inclusion\ngroup = toy\nec_point_mul = -0us\n",
         "phase point_mul_ms=0.000"),
        ("scenario = nr5g\nasym_encrypt = -0ms\n", "phase suci_encrypt_ms=0.000"),
    ])
    def test_negative_zero_latency_prints_zero(self, tmp_path, capsys, text, line):
        config = write(tmp_path, "a.cfg", text)
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert line in out
        assert "-0.000" not in out

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

    @pytest.mark.parametrize("variable, start, needle", [
        ("threshold", 1, "threshold sweep must start at 2"),
        ("n_drones", -1, "n_drones sweep must start at 0"),
    ], ids=["threshold", "n_drones"])
    def test_start_below_range_exits_1(self, tmp_path, capsys, variable, start,
                                       needle):
        out_csv = tmp_path / "x.csv"
        assert main(["sweep", "--variable", variable, "--from", str(start),
                     "--to", "5", "--out", str(out_csv)]) == 1
        assert needle in capsys.readouterr().err
        assert not out_csv.exists()

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        out_csv = tmp_path / "x.csv"
        assert main(["sweep", "--variable", "threshold", "--from", "2",
                     "--to", "5", "--out", str(out_csv),
                     "--config", str(tmp_path / "missing.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err
        assert not out_csv.exists()

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

    def test_config_supplies_parallel_guards(self, tmp_path, capsys):
        config = write(tmp_path, "p.cfg", "scenario = inclusion\n"
                       "parallel_guards = true\nthreshold = 5\n")
        out_csv = tmp_path / "par.csv"
        assert main(["sweep", "--variable", "threshold", "--from", "5",
                     "--to", "5", "--out", str(out_csv),
                     "--config", config]) == 0
        # one 0.6 ms broadcast slot + 5 * 0.612 ms = 3.66 ms, not 6.06 ms
        assert "inclusion,group-auth,5,1,3.660" in out_csv.read_text().splitlines()
        assert "crossover_threshold=35" in capsys.readouterr().out

    def test_n_drones_sweep_rejects_parallel_guards(self, tmp_path, capsys):
        # bulk times are serialized; writing them would ignore the key
        config = write(tmp_path, "p.cfg", "scenario = inclusion\n"
                       "parallel_guards = true\n")
        out_csv = tmp_path / "bulk.csv"
        assert main(["sweep", "--variable", "n_drones", "--from", "10",
                     "--to", "10", "--out", str(out_csv),
                     "--config", config]) == 1
        assert "parallel_guards" in capsys.readouterr().err
        assert not out_csv.exists()


class TestAttack:
    @pytest.mark.parametrize("mode", ["replay", "eavesdrop", "mitm"])
    def test_modes_thwarted(self, mode, capsys):
        assert main(["attack", "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "inclusion" in out and "unification" in out
        assert "NOT" not in out

    def test_accepted_replays_exit_2(self, monkeypatch, capsys):
        # negative control: a nonce cache that accepts everything
        monkeypatch.setattr(protocol.NonceCache, "check_and_store",
                            lambda cache, sender, nonce: True)
        assert main(["attack", "--mode", "replay"]) == 2
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "inclusion replay: NOT THWARTED (22 replayed messages accepted)",
            "unification replay: NOT THWARTED (27 replayed messages accepted)",
        ]

    def test_unknown_mode_exits_1(self, capsys):
        assert main(["attack", "--mode", "jam"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, prog", [
        (["attack", "--seed", "4"], "swarmauth attack"),  # no --mode
        (["attack", "--mode", "replay", "--seed", "x"], "swarmauth attack"),
        (["sweep", "--variable", "threshold", "--from", "2"], "swarmauth sweep"),
        ([], "swarmauth"),
        (["jam"], "swarmauth"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, prog):
        # argparse's own exit code, 2, would read as "NOT THWARTED"
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} ")
        assert f"\n{prog}: error: " in err

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


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--variable", "threshold", "--from", "2", "--to", "3"],
    ["attack", "--mode", "replay"],
])
def test_config_not_utf8_exits_1(tmp_path, capsys, command):
    path = tmp_path / "a.cfg"
    path.write_bytes(b"scenario = inclusion\n\xff = 1\n")
    out_csv = tmp_path / "x.csv"
    argv = [*command, "--config", str(path)]
    if command[0] == "sweep":
        argv += ["--out", str(out_csv)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("text, field, value", [
    ("scenario = inclusion\nec_point_mul = 1e305ms\n", "ec_point_mul", "1e+308"),
    ("scenario = unification\nec_point_mul = 1e305ms\n", "ec_point_mul", "1e+308"),
    ("scenario = nr5g\nue_core_round_trip = 1.5e305ms\n", "ue_core_round_trip",
     "1.4999999999999998e+308"),
    ("scenario = bulk\nn_drones = 3\ndrone_to_drone = 1e305ms\n", "drone_to_drone",
     "1e+308"),
], ids=["inclusion", "unification", "nr5g", "bulk"])
@pytest.mark.parametrize("command", [["run"], ["attack", "--mode", "replay"]],
                         ids=["run", "attack"])
def test_modeled_time_overflow_exits_1(tmp_path, capsys, text, field, value, command):
    config = write(tmp_path, "a.cfg", text + "group = toy\n")
    assert main([*command, "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: latency field {field}: (n_drones + 2 * "
                            f"threshold + 3) * {value}us reaches 2**1023us: "
                            f"modeled times may overflow\n")


BULK_7E305 = ("scenario = bulk\ngroup = toy\nue_core_round_trip = 7e305us\n"
              "asym_encrypt = 7e305us\nasym_decrypt = 7e305us\nhash_op = 7e305us\n")
BULK_OVERFLOW = ("config error: latency field ue_core_round_trip: n_drones * the "
                 "nr-5g baseline overflows a float in the bulk comparison\n")


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--variable", "n_drones", "--from", "100", "--to", "100"],
], ids=["run", "sweep"])
def test_bulk_comparison_overflow_exits_1(tmp_path, capsys, command):
    # 100 nr-5g runs of 4.2e306 us each: the run's own times are finite,
    # its comparison line and the sweep's nr-5g row are not
    out_csv = tmp_path / "x.csv"
    argv = [*command, "--config", write(tmp_path, "a.cfg", BULK_7E305)]
    if command[0] == "sweep":
        argv += ["--out", str(out_csv)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", BULK_OVERFLOW)
    assert not out_csv.exists()


def test_bulk_comparison_finite_below_the_overflow(tmp_path, capsys):
    # 42 runs of 4.2e306 us stay below the float maximum; 43 do not
    text = BULK_7E305 + "n_drones = 42\n"
    assert main(["run", "--config", write(tmp_path, "a.cfg", text)]) == 0
    comparison = capsys.readouterr().out.splitlines()[-1]
    nr5g_ms = float(re.fullmatch(r"comparison nr5g_total_ms=(\S+) group_total_ms=\S+",
                                 comparison).group(1))
    assert 1.76e305 < nr5g_ms < 1.77e305  # 42 * 4.2e306 us in ms
    text = BULK_7E305 + "n_drones = 43\n"
    assert main(["run", "--config", write(tmp_path, "b.cfg", text)]) == 1
    assert capsys.readouterr() == ("", BULK_OVERFLOW)


@pytest.mark.parametrize("variable", ["threshold", "n_drones"])
@pytest.mark.parametrize("point", [10 ** 306, 10 ** 400], ids=["1e306", "1e400"])
def test_sweep_overflow_exits_1(tmp_path, capsys, variable, point):
    # at 10**306 a time is inf; 10**400 does not convert to a float at all
    out_csv = tmp_path / "x.csv"
    assert main(["sweep", "--variable", variable, "--from", str(point),
                 "--to", str(point), "--out", str(out_csv)]) == 1
    assert capsys.readouterr() == (
        "", f"{variable} sweep: a modeled time overflows a float\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("text, code", [
    ("group = toy\nn_drones = 2305843009213693949\n", 1),  # q - 2
    ("group = toy\nn_drones = 2305843009213693948\n", 0),  # q - 3
    ("n_drones = 9223372036854775808\n", 0),               # 2**63
], ids=["toy-q-2", "toy-q-3", "curve-2**63"])
def test_swarm_size_limit(tmp_path, capsys, text, code):
    config = write(tmp_path, "a.cfg", "scenario = inclusion\n" + text)
    assert main(["run", "--config", config]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("config error: n_drones: ")
        assert err.count("\n") == 1
    else:
        assert "outcome=accepted" in out and err == ""


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    # main() keeps the parser its first call built; every call must print
    # and exit as a call on a freshly built parser does
    config = write(tmp_path, "a.cfg", "scenario = inclusion\ngroup = toy\n")
    csv = tmp_path / "t.csv"
    argvs = [["run", "--config", config],
             ["sweep", "--variable", "threshold", "--from", "2", "--to", "6",
              "--out", str(csv)],
             *(["attack", "--mode", mode, "--seed", "4"]
               for mode in ("replay", "eavesdrop", "mitm")),
             ["attack", "--seed", "4"]]  # no --mode: a usage error
    argvs += argvs

    def call(entry, argv):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr(), csv.exists() and csv.read_text())

    def fresh(argv):  # a new parser per call
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    want = [call(fresh, argv) for argv in argvs]
    csv.unlink()
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    assert [call(main, argv) for argv in argvs] == want
    assert len(builds) == 1
    assert [w[0] for w in want] == [0, 0, 0, 0, 0, 1] * 2
    assert want[-1][2].startswith("usage: swarmauth attack ")


class TestReadmeExamples:
    def test_every_subcommand_has_an_example(self):
        assert {argv[0] for argv, _ in README_EXAMPLES} == {"run", "sweep", "attack"}

    @pytest.mark.parametrize("argv,expected", README_EXAMPLES,
                             ids=[" ".join(argv[:3]) for argv, _ in README_EXAMPLES])
    def test_example_prints_its_output(self, argv, expected, tmp_path, monkeypatch,
                                       capsys):
        # the run example reads README's first ini block as inclusion.cfg
        readme = README.read_text(encoding="utf-8")
        config = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        (tmp_path / "inclusion.cfg").write_text(config, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        # README wraps long lines, so runs of whitespace compare equal
        assert capsys.readouterr().out.split() == expected.split()
