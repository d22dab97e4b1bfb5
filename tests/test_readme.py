"""The README's "Library sketch" runs as written, and its CLI section
matches the command line and the default config."""

import json
import re
import shlex
from pathlib import Path

from rovella import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, lang: str) -> str:
    text = README.read_text()
    (block,) = re.findall(rf"^## {section}\n.*?^```{lang}\n(.*?)^```", text, re.M | re.S)
    return block


def test_library_sketch_runs():
    block = _block("Library sketch", "python")
    exec(compile(block, "README.md: Library sketch", "exec"), {})


def test_config_block_is_the_default_config():
    assert json.loads(_block("CLI", "json")) == cli.DEFAULT_CONFIG


def test_cli_lines_parse():
    parser = cli.build_parser()
    for line in _block("CLI", "sh").splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "rovella"
        parser.parse_args(argv)
