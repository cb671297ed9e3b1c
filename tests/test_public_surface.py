"""The public surface: every exported name resolves, and the README's Python
example runs as written.  A name deleted from a module but left in an
``__all__``, or a README example that no longer matches the package, fails
here rather than in a user's hands."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


_IMPORT_GUARD = """
import sys
import flocksim.cli
from flocksim.twobody import TwoBodyProblem, bounded_weight_floor_check, classify
print(type(classify(TwoBodyProblem(phi0=1.0, dphi0=-5.0, alpha=0.5))).__name__)
print(bounded_weight_floor_check(1.0, -1.0, 1.0, 2.0, t_end=0.5).ok)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_package_never_loads_scipy():
    # the package needs numpy only: after the CLI's import, a colliding
    # pair's collide time and the bounded-weight floor check, no scipy
    # module has been loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split("\n")
    assert out[:3] == ["CollideNonstick", "True", "[]"]
