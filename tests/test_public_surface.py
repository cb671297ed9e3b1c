"""The public surface: every exported name resolves, and the README's Python
example runs as written.  A name deleted from a module but left in an
``__all__``, or a README example that no longer matches the package, fails
here rather than in a user's hands."""

import importlib
import pkgutil
import re
from pathlib import Path

import flocksim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    modules = [flocksim] + [
        importlib.import_module(f"flocksim.{info.name}")
        for info in pkgutil.iter_modules(flocksim.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names missing attributes: {missing}"


def test_readme_python_example(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    kind, t_event = capsys.readouterr().out.split()
    assert kind == "Sticking"
    assert abs(float(t_event) - 0.5) < 1e-3
