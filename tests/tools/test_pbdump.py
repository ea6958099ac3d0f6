"""Unit tests for the pbdump CLI and the xml2wire --c-header flag."""

import json

import pytest

from repro.arch import SPARC_32
from repro.pbio import IOContext, IOField
from repro.pbio.iofile import dump_records
from repro.tools import pbdump as pbdump_tool
from repro.tools import xml2wire as xml2wire_tool

from tests.schema.conftest import FIGURE_9


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "ticks.pbio"
    context = IOContext(SPARC_32)
    context.register_format(
        "tick", [IOField("v", "integer", 4, 0), IOField("label", "string", 4, 4)]
    )
    dump_records(
        path,
        context,
        "tick",
        [{"v": i, "label": f"t{i}"} for i in range(4)],
    )
    return path


class TestPbdump:
    def test_text_output(self, archive, capsys):
        assert pbdump_tool.main([str(archive)]) == 0
        out = capsys.readouterr().out
        assert "# format 'tick'" in out
        assert "sparc_32" in out
        assert "[1] tick: v=0, label='t0'" in out
        assert "# 4 record(s)" in out

    def test_json_output(self, archive, capsys):
        assert pbdump_tool.main([str(archive), "--format", "json"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        records = [json.loads(line) for line in lines]
        assert len(records) == 4
        assert records[2] == {"format": "tick", "v": 2, "label": "t2"}

    def test_limit(self, archive, capsys):
        pbdump_tool.main([str(archive), "--limit", "2"])
        assert "# 2 record(s)" in capsys.readouterr().out

    def test_metadata_only(self, archive, capsys):
        pbdump_tool.main([str(archive), "--metadata-only"])
        out = capsys.readouterr().out
        assert "# format 'tick'" in out
        assert "[1]" not in out

    def test_stats_show_what_reading_generated(self, archive, capsys, fresh_registry):
        assert pbdump_tool.main([str(archive), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "# --- metrics ---" in out
        assert 'pbio_codegen_total{kind="converter",event="miss"} 1' in out
        assert 'pbio_codegen_seconds_count{kind="converter"} 1' in out

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert pbdump_tool.main([str(tmp_path / "absent.pbio")]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_pbio_file_is_error(self, tmp_path, capsys):
        path = tmp_path / "junk.pbio"
        path.write_bytes(b"garbage here")
        assert pbdump_tool.main([str(path)]) == 1


@pytest.fixture
def evolved_archive(tmp_path):
    """An archive carrying two versions of 'track' (the drift case)."""
    from repro.pbio.format import IOFormat
    from repro.pbio.iofile import IOFileWriter

    path = tmp_path / "tracks.pbio"
    context = IOContext(SPARC_32)
    v1 = context.register_format(
        "track",
        [IOField("flight", "string", 4, 0), IOField("alt", "integer", 4, 4)],
    )
    v2 = IOFormat(
        "track",
        [
            IOField("flight", "string", 4, 0),
            IOField("alt", "integer", 4, 4),
            IOField("speed", "double", 8, 8),
        ],
        SPARC_32,
        catalog={},
    )
    with IOFileWriter(path, context) as writer:
        writer.write(v1, {"flight": "A", "alt": 1})
        writer.write(v2, {"flight": "B", "alt": 2, "speed": 99.0})
    return path


class TestLineageFlag:
    def test_lineage_section_printed(self, evolved_archive, capsys):
        assert pbdump_tool.main([str(evolved_archive), "--lineage"]) == 0
        out = capsys.readouterr().out
        assert "# --- lineage ---" in out
        assert "lineage 'track': 2 version(s), latest v2" in out
        assert "ancestor id" in out and "(projection)" in out
        # The projection plan from the ancestor to the latest version.
        assert "default  speed" in out

    def test_single_version_has_no_ancestors(self, archive, capsys):
        assert pbdump_tool.main([str(archive), "--lineage"]) == 0
        out = capsys.readouterr().out
        assert "lineage 'tick': 1 version(s), latest v1" in out
        assert "ancestor id" not in out

    def test_no_flag_no_section(self, archive, capsys):
        pbdump_tool.main([str(archive)])
        assert "lineage" not in capsys.readouterr().out


class TestCHeaderFlag:
    def test_c_header_written(self, tmp_path, capsys):
        schema_path = tmp_path / "s.xsd"
        schema_path.write_text(FIGURE_9, encoding="utf-8")
        out_path = tmp_path / "asdoff.h"
        code = xml2wire_tool.main(
            [str(schema_path), "--arch", "sparc_32", "--c-header", str(out_path)]
        )
        assert code == 0
        header = out_path.read_text(encoding="utf-8")
        assert "typedef struct ASDOffEvent_s" in header
        assert "IOField ASDOffEventFields[]" in header

    def test_c_header_to_stdout(self, tmp_path, capsys):
        schema_path = tmp_path / "s.xsd"
        schema_path.write_text(FIGURE_9, encoding="utf-8")
        xml2wire_tool.main([str(schema_path), "--c-header", "-"])
        assert "unsigned long off[5];" in capsys.readouterr().out
