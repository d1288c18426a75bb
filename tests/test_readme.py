"""The README's Python example runs as written, and its CLI examples parse."""

import pathlib
import re
import shlex

from saddle_raar.cli import parse_config

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


def test_readme_command_lines_resolve():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("saddle-raar ")]
    assert len(commands) == len(block.strip().splitlines()) >= 7
    for line in commands:
        cfg = parse_config(shlex.split(line, comments=True)[1:])
        assert line.split()[1] == cfg.subcommand
