"""The README's library quick start runs as written."""

import re
from pathlib import Path

from hftmfg import presets
from hftmfg.config import serialize_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "cfg.json").write_text(serialize_config(presets.partial_two_type(grid=400)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out
