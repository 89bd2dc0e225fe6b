"""README's stage-by-stage commands parse with the current command line, and
its configuration block is the default configuration."""

import re
import shlex
from pathlib import Path

import pytest

from methodlens.cli import build_parser
from methodlens.pipeline import PipelineConfig, validate_config

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
