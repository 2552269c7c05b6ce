"""The README's code, configuration example and flag lists match the package."""

import json
import re
from pathlib import Path

from hftmfg import presets
from hftmfg.cli import build_parser
from hftmfg.config import config_from_dict, serialize_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    """The README text from the heading ``title`` to the next heading of its level."""
    text = README.read_text(encoding="utf-8")
    level = title.split(" ", 1)[0]
    body = text.split(f"\n{title}\n", 1)[1]
    return re.split(rf"\n{level} ", body, maxsplit=1)[0]


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    code = re.search(r"```python\n(.*?)```", _section("## Library quick start"), re.S).group(1)
    (tmp_path / "cfg.json").write_text(serialize_config(presets.partial_two_type(grid=400)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_configuration_example_loads():
    example = re.search(r"```json\n(.*?)```", _section("## Configuration"), re.S).group(1)
    cfg = config_from_dict(json.loads(example))
    assert cfg == config_from_dict(json.loads(serialize_config(cfg)))


def _readme_flags() -> dict[str, set[str]]:
    """Each command's flags from the README list "Each command takes only the flags it reads"."""
    text = _section("## Command line")
    block = text.split("Each command takes only the flags it reads", 1)[1].split("\n\n", 2)[1]
    flags = {}
    for item in re.split(r"\n- ", "\n" + block)[1:]:
        names, listed = item.split(":", 1)
        found = set(re.findall(r"`(-[-\w]+)`", listed))
        if "the same plus" in listed:
            found |= flags["solve-partial"]
        for command in re.findall(r"`([\w-]+)`", names):
            flags[command] = found
    return flags


def test_flag_lists_match_the_parser():
    subparsers = next(a for a in build_parser()._actions if a.choices)
    parsed = {command: {a.option_strings[0] for a in p._actions
                        if a.option_strings and a.dest != "help"}
              for command, p in subparsers.choices.items()}
    assert _readme_flags() == parsed
