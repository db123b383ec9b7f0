import csv

import pytest

from ubisim import cli
from ubisim.cli import bundled_scenario_text, main


@pytest.fixture
def scn_file(tmp_path):
    path = tmp_path / "ref.scn"
    path.write_text(bundled_scenario_text())
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_writes_all_artifacts(self, scn_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scn_file), "--out", str(out)])
        assert code == cli.EXIT_OK
        for name in ("trace.log", "clusters.csv", "detections.csv",
                      "corrections.csv", "summary.csv", "summary.txt"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "overloads detected    5" in stdout

    def test_detections_csv_matches_reference_rows(self, scn_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scn_file), "--out", str(out)])
        rows = read_csv(out / "detections.csv")
        assert rows[0] == ["window", "node", "service", "observed", "baseline", "verdict"]
        got = {r[2]: (int(r[3]), int(r[4])) for r in rows[1:]}
        assert got == {
            "Print": (50, 34), "View": (124, 123), "SendEmail": (21, 10),
            "UpdateBDD": (56, 50), "Scan": (30, 8),
        }
        assert all(r[0] == "1" and r[5] == "overloaded" for r in rows[1:])

    def test_same_seed_byte_identical_tree(self, scn_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(scn_file), "--out", str(out1)])
        main(["run", "--scenario", str(scn_file), "--out", str(out2)])
        for name in ("trace.log", "clusters.csv", "detections.csv",
                      "corrections.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_injection_scenario_header_only(self, tmp_path):
        path = tmp_path / "quiet.scn"
        text = bundled_scenario_text()
        start = text.index("[inject]")
        end = text.index("[run]")
        path.write_text(text[:start] + text[end:])
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
        assert read_csv(out / "detections.csv") == [
            ["window", "node", "service", "observed", "baseline", "verdict"]
        ]

    def test_mode_and_seed_overrides(self, scn_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scn_file), "--out", str(out),
                     "--mode", "static", "--seed", "9"])
        assert code == cli.EXIT_OK
        rows = read_csv(out / "summary.csv")
        header, values = rows
        assert values[header.index("mode")] == "static"
        assert values[header.index("seed")] == "9"
        assert int(values[header.index("downtime_ticks")]) > 0

    def test_detection_stats_agree_with_csv(self, scn_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scn_file), "--out", str(out)])
        detections = read_csv(out / "detections.csv")[1:]
        summary = read_csv(out / "summary.csv")
        header, values = summary
        assert int(values[header.index("detected")]) == len(detections)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main([]) == cli.EXIT_USAGE
        assert main(["frobnicate"]) == cli.EXIT_USAGE
        assert main(["repro", "--table", "7"]) == cli.EXIT_USAGE
        assert main(["run"]) == cli.EXIT_USAGE

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[services]\nname=P capacity=-3\n")
        assert main(["validate", "--scenario", str(bad)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: parse: NegativeValue")
        assert "\n" not in err.strip()  # single machine-greppable line

    def test_io_error_is_three(self, tmp_path, capsys):
        missing = tmp_path / "nope.scn"
        assert main(["run", "--scenario", str(missing)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error: io:")

    def test_unbuildable_scenario_is_two(self, tmp_path, capsys):
        # parses fine, but one node has no capacity for an offered service
        path = tmp_path / "gap.scn"
        path.write_text(
            "[services]\nname=P\n"
            "[nodes]\nid=0 cap.P=5\nid=1\n"
            "[edges]\na=0 b=1\n"
            "[run]\nticks=10 window=10\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: scenario: MissingCapacity")

    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys):
        # no capacity anywhere for the only service: run exits 2, so must validate
        path = tmp_path / "nocap.scn"
        path.write_text(
            "[services]\nname=Print\n"
            "[nodes]\nid=0\nid=1\n"
            "[edges]\na=0 b=1\n"
            "[run]\nticks=10 window=10\n"
        )
        message = ("error: scenario: MissingCapacity: "
                   "node 0 offers 'Print' but no capacity is configured\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == message
        assert main(["validate", "--scenario", str(path)]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""

    def test_validate_ok_is_zero(self, scn_file, capsys):
        assert main(["validate", "--scenario", str(scn_file)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("OK:")


class TestRepro:
    def test_table_3_matches_reference(self, capsys):
        assert main(["repro", "--table", "3"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split() == ["Services", "Print", "View", "SendEmail", "UpdateBDD", "Scan"]
        assert lines[1].split() == ["Overload", "50", "124", "21", "56", "30"]
        assert lines[2].split() == ["Detection", "50", "124", "21", "56", "30"]

    def test_table_2_matches_reference(self, capsys):
        assert main(["repro", "--table", "2"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().splitlines()[1].split() == ["Normal", "34", "123", "10", "50", "8"]

    def test_mismatch_exits_four(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.REFERENCE_OVERLOAD, "Print", 51)
        assert main(["repro", "--table", "3"]) == cli.EXIT_MISMATCH
        assert "mismatch" in capsys.readouterr().err

    def test_capacity_mismatch_exits_four(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.REFERENCE_CAPACITY, "Scan", 9)
        assert main(["repro", "--table", "2"]) == cli.EXIT_MISMATCH
        assert "mismatch: Scan" in capsys.readouterr().err
