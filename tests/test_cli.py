"""CLI tests: generate / explain / run round trip."""

import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main


@pytest.fixture(scope="module")
def cli_catalog(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_tpch")
    code = main([
        "generate", str(directory), "--scale-factor", "0.002",
        "--fact-partitions", "4", "--seed", "3",
    ])
    assert code == 0
    return directory / "catalog.json"


class TestGenerate:
    def test_writes_catalog(self, cli_catalog):
        assert cli_catalog.exists()

    def test_table_summary_printed(self, tmp_path, capsys):
        main(["generate", str(tmp_path), "--scale-factor", "0.002"])
        out = capsys.readouterr().out
        assert "lineitem" in out
        assert "catalog written" in out


class TestExplain:
    def test_explain_prints_plan(self, cli_catalog, capsys):
        assert main(["explain", str(cli_catalog), "6"]) == 0
        out = capsys.readouterr().out
        assert "read(lineitem)" in out
        assert "delivery=" in out


class TestRun:
    def test_run_prints_snapshots_and_final(self, cli_catalog, capsys):
        assert main(["run", str(cli_catalog), "6"]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out
        assert "final answer" in out

    def test_run_with_param_override(self, cli_catalog, capsys):
        assert main([
            "run", str(cli_catalog), "18", "--param", "threshold=100",
        ]) == 0
        out = capsys.readouterr().out
        assert "q18" in out

    @pytest.mark.parametrize("command", ["run", "profile"])
    def test_unknown_param_is_a_usage_error(self, command, cli_catalog,
                                            capsys):
        assert main([
            command, str(cli_catalog), "6", "--param", "bogus=1",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro: error: q06 has no parameter bogus; valid "
            "parameters: discount, quantity, start, years\n"
        )
        assert "Traceback" not in captured.out + captured.err

    def test_bad_param_rejected(self, cli_catalog):
        with pytest.raises(SystemExit, match="bad --param"):
            main(["run", str(cli_catalog), "6", "--param", "oops"])

    def test_invalid_query_number(self, cli_catalog):
        with pytest.raises(SystemExit):
            main(["run", str(cli_catalog), "99"])


@pytest.mark.parametrize("command", ["run", "explain", "profile", "serve"])
def test_parallelism_flag_is_gone(command, cli_catalog, capsys,
                                  monkeypatch):
    """``--parallelism`` is an argparse usage error on every command
    that used to take it (the handlers never run)."""
    for name in ("cmd_run", "cmd_explain", "cmd_profile", "cmd_serve"):
        monkeypatch.setattr(cli, name, _must_not_run)
    query = [] if command == "serve" else ["6"]
    with pytest.raises(SystemExit) as info:
        main([command, str(cli_catalog), *query, "--parallelism", "4"])
    assert info.value.code == 2
    assert "unrecognized arguments: --parallelism 4" in \
        capsys.readouterr().err


def _must_not_run(args):
    raise AssertionError(f"{args.command} ran despite a usage error")


class TestProfile:
    def test_profile_prints_operator_breakdown(self, cli_catalog,
                                               capsys):
        assert main(["profile", str(cli_catalog), "6"]) == 0
        out = capsys.readouterr().out
        assert "profiling q06" in out
        assert "read(lineitem)" in out
        assert "time-ms" in out
        assert "total" in out

    def test_profile_with_param_override(self, cli_catalog, capsys):
        assert main([
            "profile", str(cli_catalog), "18",
            "--param", "threshold=100",
        ]) == 0
        assert "operator" in capsys.readouterr().out


def test_module_entrypoint():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0
    assert "generate" in completed.stdout
