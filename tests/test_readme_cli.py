"""README's stage-by-stage commands parse with the current command line, its
configuration block is the default configuration, and its multi-project
recipe, concatenated `dataset.ndjson` files, reads as one dataset."""

import re
import shlex
from pathlib import Path

import pytest

from methodlens.cli import build_parser, main
from methodlens.pipeline import PipelineConfig, labeled_record, read_ndjson, validate_config, write_ndjson
from synth import labeled, metric_vector

README = Path(__file__).resolve().parent.parent / "README.md"


def stage_commands() -> list[str]:
    """The commands of the sh block under "Stage-by-stage CLI", with `\\`
    continuations joined and each `[a|b]` group replaced by its first
    choice."""
    section = README.read_text(encoding="utf-8").split("## Stage-by-stage CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    joined = re.sub(r"\\\n\s*", " ", block)
    return [re.sub(r"\[([^\]]*)\]", lambda m: m.group(1).split("|")[0], line)
            for line in joined.splitlines() if line.strip()]


def test_readme_lists_every_stage_command():
    assert [shlex.split(line)[1] for line in stage_commands()] == [
        "extract", "metrics", "trace", "label", "pareto", "bugs", "correlate", "rank", "train", "report"]


@pytest.mark.parametrize("line", stage_commands(), ids=lambda line: shlex.split(line)[1])
def test_readme_stage_command_parses(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "methodlens"
    try:
        build_parser().parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")


def test_readme_configuration_block_is_the_default_config(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "methodlens.conf"
    path.write_text(block, encoding="utf-8")
    assert validate_config(path) == PipelineConfig()


def test_readme_multi_project_recipe_reads_concatenated_datasets_as_one(tmp_path):
    assert "then concatenate the\n`dataset.ndjson` files" in README.read_text(encoding="utf-8")
    parts = []
    for project, count in (("alpha", 7), ("beta", 5)):
        methods = [labeled(i, project=project, metrics=metric_vector(size=i + 1), revisions=i % 3)
                   for i in range(count)]
        path = tmp_path / f"{project}.ndjson"
        write_ndjson(path, "label", {}, [labeled_record(m, 0, 2000.0) for m in methods])
        parts.append(path.read_bytes())
    merged = tmp_path / "dataset.ndjson"
    merged.write_bytes(b"".join(parts))
    header, records = read_ndjson(merged)
    assert header["stage"] == "label"
    # the second file's header line is skipped, not read as a record
    assert len(records) == 12 and not any("schemaVersion" in r for r in records)
    assert [r["identity"]["project"] for r in records] == ["alpha"] * 7 + ["beta"] * 5
    assert main(["correlate", "--labeled", str(merged), "--out", str(tmp_path / "out")]) == 0
    table = (tmp_path / "out" / "correlations.csv").read_text().splitlines()
    assert table[0] == "metric,tau,p,n" and len(table) == 18
    assert all(row.endswith(",12") for row in table[1:])
