"""The engine's environment variables are an explicit allow-list.

An A/B lever read from the environment is a second code path that no
default run takes: it is either promoted to the default or deleted. A
new variable has to be added here on purpose."""

import pathlib
import re

ALLOWED: set[str] = set()


def test_env_knobs_allow_list():
    pkg = pathlib.Path(__file__).resolve().parent.parent / "yago4_ray"
    found = set()
    for path in pkg.rglob("*.py"):
        found |= set(re.findall(r"YAGO4_RAY_([A-Z0-9_]+)", path.read_text()))
    assert found == ALLOWED
