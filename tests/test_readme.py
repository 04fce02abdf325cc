"""The README's Python API snippets run as written on a synthetic trial."""

import re
from pathlib import Path

import numpy as np

from gaitkinetics.synth import write_demo_files

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_snippets():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_python_api_snippets_run_as_written(tmp_path, monkeypatch):
    snippets = _api_snippets()
    assert len(snippets) == 2
    write_demo_files(tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for code in snippets:
        exec(compile(code, str(README), "exec"), namespace)
    bilateral, diagram = namespace["bilateral"], namespace["diagram"]
    assert np.allclose(bilateral.left.force + bilateral.right.force, bilateral.total.force)
    assert bilateral.analyzed.any()
    assert diagram.n_entries > 0
