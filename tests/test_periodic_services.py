"""Meta test: periodic services run on one kernel primitive.

A loop that sleeps and then works, forever, is a periodic service.  It
runs on ``Environment.every`` so that its owner can end it with
``Process.cancel`` and a drained run leaves no such loop pending.  Only
the kernel itself (``simulator/core.py``) spells one out by hand.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
KERNEL = SRC / "simulator" / "core.py"


def _sleeps_first(loop: ast.While) -> bool:
    """``while True:`` whose body starts with ``yield <x>.timeout(...)``."""
    if not (isinstance(loop.test, ast.Constant) and loop.test.value is True):
        return False
    first = loop.body[0]
    value = first.value if isinstance(first, (ast.Expr, ast.Assign)) \
        else None
    return (isinstance(value, ast.Yield)
            and isinstance(value.value, ast.Call)
            and isinstance(value.value.func, ast.Attribute)
            and value.value.func.attr == "timeout")


def hand_rolled_services(source: str, name: str = "<source>"):
    """Line numbers of the hand-rolled periodic loops in ``source``."""
    tree = ast.parse(source, filename=name)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.While) and _sleeps_first(node)]


class TestOnePeriodicPrimitive:
    def test_detector_flags_a_hand_rolled_loop(self):
        source = (
            "def watch(env):\n"
            "    while True:\n"
            "        yield env.timeout(1.0)\n"
            "        print(env.now)\n"
            "def bounded(env):\n"
            "    while env.now < 10:\n"
            "        yield env.timeout(1.0)\n"
            "def resumed(env):\n"
            "    while True:\n"
            "        value = yield env.timeout(1.0)\n")
        assert hand_rolled_services(source) == [2, 9]

    def test_no_hand_rolled_service_outside_the_kernel(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            if path == KERNEL:
                continue
            found += [f"{path.relative_to(SRC)}:{line}" for line in
                      hand_rolled_services(path.read_text(), str(path))]
        assert not found, (
            f"periodic loops not on env.every (stop them with "
            f"Process.cancel): {found}")
