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

import pytest

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


def _fresh_interpreter(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter on this ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout.split("\n")


def test_package_never_loads_scipy():
    # the package needs numpy only: after the CLI's import, a colliding
    # pair's collide time and the bounded-weight floor check, no scipy
    # module has been loaded
    out = _fresh_interpreter(_IMPORT_GUARD)
    assert out[:3] == ["CollideNonstick", "True", "[]"]


_LOAD_GUARD = """
import sys
unwanted = {"flocksim.diagnostics", "flocksim.twobody", "argparse"}
import flocksim
print(sorted(m for m in sys.modules if m.startswith("flocksim.")))
import flocksim.cli as cli
print(sorted(unwanted & sys.modules.keys()))
text = "[scenario]\\nmode = generate\\nseed = 1\\nn = 4\\nd = 2\\nalpha = 0.5\\n"
cli.build_system(cli.parse_config(text, "simulate").scenario)
print(sorted(unwanted & sys.modules.keys()))
"""


def test_simulate_setup_loads_only_what_it_runs():
    # a bare import loads no submodule; neither the CLI's import nor the
    # set-up of a simulate run loads the analysis modules or argparse
    out = _fresh_interpreter(_LOAD_GUARD)
    assert out[:3] == ["[]", "[]", "[]"]


def test_lazy_names_behave_as_eager_ones():
    names = set(flocksim.__all__)
    assert len(names) == len(flocksim.__all__)
    assert names <= set(dir(flocksim))
    namespace = {}
    exec("from flocksim import *", namespace)
    assert names <= namespace.keys()
    from flocksim.twobody import stick_time

    assert flocksim.stick_time is stick_time
    with pytest.raises(AttributeError, match="no_such_name"):
        flocksim.no_such_name
