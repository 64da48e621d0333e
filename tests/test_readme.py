"""README's "Library use" example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert type(namespace["outlier"]) is np.bool_
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["50", "100", "150"]
    assert all(line.endswith(" outliers") for line in lines)
