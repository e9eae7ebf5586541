"""Monitoring snapshot and CLI tests."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.db.database import EngineKind
from repro.db.monitor import snapshot
from tests.conftest import make_accounts_db


def _busy_db(kind):
    db = make_accounts_db(kind)
    txn = db.begin()
    refs = [db.insert(txn, "accounts", (i, "u", float(i)))
            for i in range(40)]
    db.commit(txn)
    for ref in refs[:10]:
        txn = db.begin()
        row = db.read(txn, "accounts", ref)
        db.update(txn, "accounts", ref, (row[0], row[1], row[2] + 1))
        db.commit(txn)
    db.shutdown()
    return db


class TestSnapshot:
    @pytest.mark.parametrize("kind", [EngineKind.SIASV, EngineKind.SI],
                             ids=["sias-v", "si"])
    def test_counters_populated(self, kind):
        db = _busy_db(kind)
        snap = snapshot(db)
        assert snap.txn_commits == 11
        assert snap.txn_aborts == 0
        assert snap.device_writes > 0
        assert snap.wal_records > 0
        assert 0.0 <= snap.buffer_hit_ratio <= 1.0
        assert len(snap.tables) == 1
        table = snap.tables[0]
        assert table.name == "accounts"
        assert table.engine == kind.value.replace("sias-v", "sias-v")

    def test_sias_table_extras(self):
        db = _busy_db(EngineKind.SIASV)
        table = snapshot(db).tables[0]
        assert table.extra["appended"] == 50  # 40 inserts + 10 updates
        assert table.extra["vidmap_items"] == 40

    def test_si_table_extras(self):
        db = _busy_db(EngineKind.SI)
        table = snapshot(db).tables[0]
        assert table.extra["inserts"] == 50
        assert table.extra["xmax_stamps"] == 10

    def test_render_contains_sections(self):
        db = _busy_db(EngineKind.SIASV)
        text = snapshot(db).render()
        assert "system snapshot" in text
        assert "per-table" in text
        assert "accounts" in text


class TestImportFootprint:
    def test_embedded_import_loads_no_service_tier(self):
        """``import repro`` (and its CLI parser) is the embedded engine:
        the asyncio server, cluster router, replication tier and fault
        sweeps load only when something asks for them."""
        import subprocess
        import sys

        code = ("import sys, repro, repro.cli; repro.cli.build_parser(); "
                "print([m for m in sys.modules if m.startswith(("
                "'repro.server', 'repro.cluster', 'repro.replication', "
                "'repro.client', 'repro.experiments.sweeps'))])")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={"PYTHONPATH": ":".join(sys.path)})
        assert out.stdout.strip() == "[]"


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--warehouses", "2"])
        assert args.command == "bench" and args.warehouses == 2
        args = parser.parse_args(["exhibit", "t1"])
        assert args.id == "t1"
        args = parser.parse_args(["snapshot", "--engine", "si"])
        assert args.engine == "si"
        args = parser.parse_args(["sweep", "crash", "--stride", "25",
                                  "--seed", "3", "--at", "26"])
        assert (args.scenario, args.stride, args.seed, args.at) \
            == ("crash", 25, 3, 26)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_exhibit_id(self, capsys):
        assert main(["exhibit", "zz"]) == 2
        assert "unknown exhibit" in capsys.readouterr().err

    def test_snapshot_command_runs(self, capsys):
        assert main(["snapshot", "--warehouses", "1",
                     "--seconds", "1"]) == 0
        out = capsys.readouterr().out
        assert "system snapshot" in out

    @pytest.mark.slow
    def test_bench_command_runs(self, capsys):
        assert main(["bench", "--warehouses", "1", "--seconds", "1",
                     "--clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "sias-v" in out and "si" in out


class TestCliDemoAndExhibit:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "first-updater-wins" in out
        assert "page writes" in out

    @pytest.mark.slow
    def test_exhibit_a3_runs(self, capsys):
        assert main(["exhibit", "a3"]) == 0
        out = capsys.readouterr().out
        assert "A3" in out and "vidmap scan" in out


class TestReport:
    def test_assemble_with_missing_and_present(self, tmp_path):
        from repro.experiments.report import EXHIBITS, assemble

        (tmp_path / "t1_write_reduction.txt").write_text("T1 table here")
        report = assemble(tmp_path)
        assert "t1_write_reduction" in report.present
        assert len(report.missing) == len(EXHIBITS) - 1
        assert "T1 table here" in report.text
        assert "missing" in report.text

    def test_write_report(self, tmp_path):
        from repro.experiments.report import write_report

        (tmp_path / "a3_scan.txt").write_text("A3 rows")
        out = write_report(tmp_path)
        assert out.exists()
        assert "A3 rows" in out.read_text()

    def test_cli_report_missing_dir(self, capsys, tmp_path):
        assert main(["report", "--results", str(tmp_path / "nope")]) == 2
        assert "no results directory" in capsys.readouterr().err

    def test_cli_report_runs(self, capsys, tmp_path):
        (tmp_path / "t2_space.txt").write_text("T2 table")
        assert main(["report", "--results", str(tmp_path)]) == 0
        assert "report written" in capsys.readouterr().out
