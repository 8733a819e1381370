"""Run the small example scripts end to end, at reduced sizes.

The examples are the first code a reader runs, and they read outcome
fields directly, so an API change that breaks them fails here.  Each
``main()`` runs at a size that takes about a second, and the lines that
report paper quantities are pinned (every example seeds its runs).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _main(name: str):
    module_spec = importlib.util.spec_from_file_location("_example_" + name, EXAMPLES / name)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.main


def _lines(capsys) -> list:
    return [line.rstrip() for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize(
    "name, args, expected",
    [
        (
            "quickstart.py",
            (32,),
            [
                "  success        : True",
                "  leader node    : 30",
                "  contenders     : 19",
                "  rounds         : 210",
                "  messages       : 6841",
                "  message units  : 64394",
                "  final walk len : 16 (t_mix = 20)",
                "  success            : True",
                "  election messages  : 6841",
                "  broadcast messages : 505",
                "  total rounds       : 229",
            ],
        ),
        (
            "lower_bound_demo.py",
            (60, 5),
            [
                "1            288       4        9         6            False",
                "2            750       2        17        8            False",
                "4            1514      1        20        8            False",
                "8            3078      1        23        8            False",
                "16           6168      1        24        8            False",
                "32           11870     1        24        8            False",
            ],
        ),
        (
            "unknown_n_demo.py",
            (16, 2),
            [
                "0      1        1     0      10                1633",
                "1      1        1     0      38                1781",
                "runs that elected a leader on BOTH sides: 0 / 2",
            ],
        ),
    ],
)
def test_example_main_runs(name, args, expected, capsys):
    _main(name)(*args)
    lines = _lines(capsys)
    for line in expected:
        assert line in lines, "%s: missing %r" % (name, line)
