"""The Figure-4 walkthrough example logs the messages of its step.

``examples/figure4_walkthrough.py`` prints one parallel step of PS and
DS on a four-process chain, messages included; the messages are read
from a run tracer's send events, so they are the plane's real puts.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.core import DistributedSouthwell, ParallelSouthwell

_EXAMPLE = (Path(__file__).resolve().parent.parent / "examples"
            / "figure4_walkthrough.py")


def _walkthrough():
    spec = importlib.util.spec_from_file_location("figure4_walkthrough",
                                                  _EXAMPLE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("cls, tilde", [(ParallelSouthwell, False),
                                        (DistributedSouthwell, True)])
def test_step_logs_its_messages(cls, tilde, capsys):
    sent = _walkthrough().trace_step(cls, cls.name, tilde)
    assert sent, "the step sent messages but none were logged"
    for line in sent:
        assert re.fullmatch(r"P[0-3] --(solve|residual)--> P[0-3]", line)
    # the relaxing rank's update goes to its neighbour first
    assert sent[0] == "P3 --solve--> P2"
    out = capsys.readouterr().out
    assert "messages: (none)" not in out
    assert "; ".join(sent) in out
