"""Call budgets: Python-level work in modbot per link frame and per world part.

The counts are exact (sys.setprofile sees every Python call, sys.settrace
every line run), so the budgets have no timing noise. The per-frame budget
covers boot, id assignment, code pushes and the once-a-second announces of
a small lossless tree. The set-up budgets cover building a world, per
module, link and scenario event. A change that adds work to either path
raises the figure; lower the budget when a change removes some.
"""

import sys
from pathlib import Path

import modbot
from modbot import messages
from modbot.world import World

from modbot.world import Scenario, ScenarioEvent

from conftest import chain_topology, tree_topology

# 15.245 measured (15,916 calls, 1,044 frames) with a module id sent as a
# hop count and one byte per port, decoded in one function and cached by its
# port bytes; 15.638 (16,326) with dotted text parsed through _get_text.
# 15.638 measured (16,326 calls, 1,044 frames) at a 700 cs horizon with an
# adoption sending no HELLO to its pusher or to a port it pushes on; 15.757
# (18,057 calls, 1,146 frames) at 700 cs before. The horizon moved from
# 600 cs, where the skipped HELLOs leave 928 frames, under the floor.
# 16.005 measured (16,485 calls, 1,030 frames) at a 600 cs horizon with a
# push sent as one CODE_PUSH message and no stale beacon stored; 16.865
# (19,327 calls, 1,146 frames) at 600 cs before. The horizon moved from
# 500 cs, where the one-message push leaves 914 frames, under the floor.
# 17.240 measured (17,757 calls, 1,030 frames) with a push or PUTFILE job
# stepped by a partial of one node method, not by a closure and a lambda
# per message; 17.324 (17,844) before.
# 17.324 measured (17,844 calls, 1,030 frames) with one HELLO per version
# change, no status for INVOKE and no second push after a delivered one,
# the beacon's older-neighbour check inlined in on_link_payload and the
# tick sending a prebuilt announce; 17.470 (17,994) with the tick calling
# a beacon method for it; 17.801 (18,335) with the check through
# _push_older as well. The frames those changes remove were the cheapest.
# 17.498 measured (21,837 calls, 1,248 frames) with a one-chunk message split
# without slicing; 17.780 (22,189) with lossless draws counted, not computed;
# 18.780 (23,437) with ACKs taken by table; 22.985 (28,685) before; 23.21
# (28,964) before that; 32.44 with a closure per frame
CALLS_PER_FRAME_BUDGET = 15.25

_SRC = str(Path(modbot.__file__).resolve().parent)


def test_python_calls_per_link_frame_stay_within_budget():
    messages._id_of_ports.cache_clear()  # count the id decodes a cold process makes
    world = World(tree_topology(30, 7), seed=3)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_SRC):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        world.run_until_cs(700)
    finally:
        sys.setprofile(previous)
    frames = sum(link.transmissions for link in world.links)
    assert frames > 1000
    assert calls / frames <= CALLS_PER_FRAME_BUDGET, f"{calls} calls for {frames} frames"


# 5.015 calls and 29.998 lines measured (3,004 and 17,969 for 100 modules, 99
# links and 400 events) with scenario events batched and links found by
# their ends; 5.674 calls and 166.4 lines with a link scan and a call_at
# per event, growing with links x events
SETUP_CALLS_BUDGET = 5.02
SETUP_LINES_BUDGET = 30.0


def test_world_setup_work_per_module_link_and_event_stays_within_budget():
    topology = chain_topology(100)
    events = []
    for j in range(200):
        i = j % 99
        events.append(ScenarioEvent(100 + 10 * j, "sever", (f"m{i}.1", f"m{i + 1}.0")))
        events.append(ScenarioEvent(105 + 10 * j, "restore", (f"m{i + 1}.0", f"m{i}.1")))
    scenario = Scenario(events=events)
    parts = len(topology.modules) + len(topology.links) + len(events)
    calls = lines = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_SRC):
            calls += 1

    def trace(frame, event, arg):
        nonlocal lines
        if not frame.f_code.co_filename.startswith(_SRC):
            return None
        if event == "line":
            lines += 1
        return trace

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        World(topology, scenario)
    finally:
        sys.setprofile(previous)
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        World(topology, scenario)
    finally:
        sys.settrace(previous)
    assert calls / parts <= SETUP_CALLS_BUDGET, f"{calls} calls for {parts} parts"
    assert lines / parts <= SETUP_LINES_BUDGET, f"{lines} lines for {parts} parts"
