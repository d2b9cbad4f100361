"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_suite_lists_categories(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "ISPEC" in out and "Server" in out
        assert "lammps" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_bytes"] == 386

    def test_experiment_registry_covers_evaluation(self):
        for fig in ("fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"):
            assert fig in EXPERIMENTS
        for table in ("table1", "table2", "table3"):
            assert table in EXPERIMENTS

    def test_run_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "1500")
        monkeypatch.setenv("REPRO_MEASURE", "2000")
        assert main(["run", "lammps", "--config", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out

    def test_compare_command(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "1500")
        monkeypatch.setenv("REPRO_MEASURE", "2000")
        assert main(["compare", "lammps", "baseline", "acb"]) == 0
        out = capsys.readouterr().out
        assert "vs first" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "quake3"])


@pytest.mark.parametrize("command", ["runs", "dashboard"])
@pytest.mark.parametrize("state", ["missing", "corrupt"])
def test_read_only_db_commands_refuse_bad_database(
    command, state, tmp_path, capsys
):
    db = tmp_path / "other" / "typo.sqlite"
    if state == "corrupt":
        db.parent.mkdir()
        db.write_bytes(b"not a database")
    before = sorted(tmp_path.rglob("*"))
    argv = [command, "--db", str(db)]
    if command == "dashboard":
        argv += ["--out", str(tmp_path / "dash.html")]
    assert main(argv) == 2
    # nothing created: no directory, no empty database, no HTML page
    assert sorted(tmp_path.rglob("*")) == before
    if state == "missing":
        assert str(db.resolve()) in capsys.readouterr().err
