"""Per-frame call budget: Python-level calls into modbot per link frame.

The count is exact (sys.setprofile sees every Python call), so the budget
has no timing noise. It covers boot, id assignment, code pushes and the
once-a-second announces of a small lossless tree. A change that adds a
Python call to the per-frame path raises the figure; lower the budget when
a change removes one.
"""

import sys
from pathlib import Path

import modbot
from modbot import messages
from modbot.world import World

from conftest import tree_topology

# 17.780 measured (22,189 calls, 1,248 frames) with lossless draws counted, not
# computed; 18.780 (23,437) with ACKs taken by table; 22.985 (28,685) before;
# 23.21 (28,964) before that; 32.44 with a closure per frame
CALLS_PER_FRAME_BUDGET = 17.78

_SRC = str(Path(modbot.__file__).resolve().parent)


def test_python_calls_per_link_frame_stay_within_budget():
    messages._parse_id.cache_clear()  # count the id parses a cold process makes
    world = World(tree_topology(30, 7), seed=3)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_SRC):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        world.run_until_cs(500)
    finally:
        sys.setprofile(previous)
    frames = sum(link.transmissions for link in world.links)
    assert frames > 1000
    assert calls / frames <= CALLS_PER_FRAME_BUDGET, f"{calls} calls for {frames} frames"
