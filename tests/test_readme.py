"""The README's Python example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["result"].stop_reason in ("residual", "deriv_norm")
    assert namespace["cert"].certified
    residual, certified, beta_max = capsys.readouterr().out.split()
    assert float(residual) <= 1e-10 and certified == "True" and 0.0 < float(beta_max) <= 1.0
