"""The README's library example runs as written, the README names the
package's whole top-level surface, and its deep-run command is CI's."""

import ast
import pathlib
import re

import mmwplan

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
INIT = ROOT / "src" / "mmwplan" / "__init__.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_names_every_top_level_name():
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    named = {w for span in spans for w in re.findall(r"[A-Za-z_]\w*", span)}
    missing = set(mmwplan.__all__) - {"__version__"} - named
    assert not missing, f"README names none of {sorted(missing)} in backticks"


def test_deep_run_command_matches_ci():
    def targets(command):
        return sorted(re.findall(r"tests/\S+", command))

    deep = "--hypothesis-profile mmwplan-deep"
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    readme = [block for block in blocks if deep in block]
    assert len(readme) == 1
    step = WORKFLOW.read_text().split(deep)[0]
    ci = step.rsplit("python -m pytest", 1)[1]
    assert targets(readme[0]) == targets(ci)


def test_init_binds_only_its_exports():
    bound = set()
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert bound - {"__all__"} == set(mmwplan.__all__)
