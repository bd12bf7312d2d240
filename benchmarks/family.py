"""The "buffered line" instance family and the size grids the workloads draw
from.

Two machines feed each other through a buffer (the "small factory" of
Wonham & Cai, Supervisory Control of Discrete-Event Systems, 2019):

    G_i:  idle -a_i-> w0 -t_i-> w1 -t_i-> ... -t_i-> w_{p_i} -b_i-> idle

``a_i`` is controllable, ``t_i`` and ``b_i`` are not.  The specification K
is a buffer of capacity n: ``b1`` puts a part, ``a2`` takes one, and every
other event is self-looped.  ``K∩L = K ∥ G1 ∥ G2`` is the variant that
satisfies the K ⊆ L precondition of ``condctrl``.  The coordinator events
are E_k = {a1, a2, b1, b2} and the coordinator itself is ``"auto"``.

The depth p drives the sup_c deletion cascade (p rounds), the hidden chains
the observer check closes over and the nesting of product labels; the
capacity n adds breadth without depth.

Everything here is plain Python and JSON, independent of ``descoord``, so
instance generation costs the same whatever the library does.
"""

import itertools
import json
import random
from collections import deque
from pathlib import Path

EK = ("a1", "a2", "b1", "b2")
CHECKS = ("controllability", "conddec", "condindep", "condctrl", "observer",
          "occ", "optimality")

# Size grids, one per workload: (p1, p2, n) tuples.  Every size a run can
# use is in its grid, and every grid entry is validated by
# ``test_family.py`` and has its expected outputs in ``expected.json``.
SYMMETRIC = [(p, p, n) for p in range(10, 25) for n in range(10, 25)]
GRIDS = {
    "supcc-line": SYMMETRIC,
    "supc-line": SYMMETRIC,
    "check-line": [(p1, p2, n) for p1 in range(150, 401, 50)
                   for p2 in range(2, 6) for n in range(2, 6)],
    "ek-search": [(p1, p2, n) for p1 in range(60, 201, 20)
                  for p2 in range(2, 5) for n in range(2, 5)],
}


def volume(size) -> int:
    """States of K∩L: the instance volume the size strata are cut by."""
    p1, p2, n = size
    return (p1 + 2) * (p2 + 2) * (n + 1)


def size_key(size) -> str:
    return "p1=%d,p2=%d,n=%d" % tuple(size)


def _events(doc_events):
    return [{"name": name, "controllable": ctrl} for name, ctrl in doc_events]


def machine(i: int, depth: int) -> dict:
    """Generator document of machine G_i with ``depth`` work steps."""
    a, t, b = f"a{i}", f"t{i}", f"b{i}"
    work = [f"w{j}" for j in range(depth + 1)]
    transitions = [["idle", a, "w0"]]
    transitions += [[work[j], t, work[j + 1]] for j in range(depth)]
    transitions.append([work[-1], b, "idle"])
    return {
        "name": f"g{i}",
        "events": _events([(a, True), (b, False), (t, False)]),
        "states": ["idle"] + work,
        "initial": "idle",
        "transitions": transitions,
    }


FULL_EVENTS = _events([("a1", True), ("a2", True), ("b1", False),
                       ("b2", False), ("t1", False), ("t2", False)])


def buffer_spec(capacity: int) -> dict:
    """K: the capacity-n buffer over the full alphabet."""
    transitions = []
    for j in range(capacity + 1):
        for event in ("a1", "b2", "t1", "t2"):
            transitions.append([f"k{j}", event, f"k{j}"])
        if j < capacity:
            transitions.append([f"k{j}", "b1", f"k{j + 1}"])
        if j > 0:
            transitions.append([f"k{j}", "a2", f"k{j - 1}"])
    return {
        "name": "spec",
        "events": FULL_EVENTS,
        "states": [f"k{j}" for j in range(capacity + 1)],
        "initial": "k0",
        "transitions": transitions,
    }


def _step(doc: dict):
    table = {(src, event): dst for src, event, dst in doc["transitions"]}
    events = {e["name"] for e in doc["events"]}
    return table, events


def plant_spec(size) -> dict:
    """K∩L = K ∥ G1 ∥ G2, built by a breadth-first product walk."""
    p1, p2, n = size
    parts = [buffer_spec(n), machine(1, p1), machine(2, p2)]
    tables = [_step(doc) for doc in parts]
    order = sorted(e["name"] for e in FULL_EVENTS)
    start = tuple(doc["initial"] for doc in parts)
    seen = {start: 0}
    states = [start]
    transitions = []
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for event in order:
            nxt = []
            for q, (table, events) in zip(state, tables):
                if event in events:
                    q = table.get((q, event))
                    if q is None:
                        break
                nxt.append(q)
            else:
                target = tuple(nxt)
                if target not in seen:
                    seen[target] = len(states)
                    states.append(target)
                    queue.append(target)
                transitions.append([".".join(state), event, ".".join(target)])
    return {
        "name": "spec",
        "events": FULL_EVENTS,
        "states": [".".join(s) for s in states],
        "initial": ".".join(start),
        "transitions": transitions,
    }


def write_project(directory: Path, size, spec: str, ek) -> Path:
    """Write G1, G2 and the chosen spec (``"K"`` or ``"K∩L"``) as generator
    files plus a project file with ``gk: "auto"``; returns the project
    path.  ``ek`` is an event list or ``"auto"``."""
    p1, p2, n = size
    directory.mkdir(parents=True, exist_ok=True)
    docs = {
        "g1.json": machine(1, p1),
        "g2.json": machine(2, p2),
        "spec.json": buffer_spec(n) if spec == "K" else plant_spec(size),
    }
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    project = {
        "generators": list(docs),
        "coordination": {"g1": "g1", "g2": "g2", "gk": "auto",
                         "spec": "spec",
                         "ek": list(ek) if ek != "auto" else "auto"},
    }
    path = directory / "project.json"
    path.write_text(json.dumps(project), encoding="utf-8")
    return path


def draw_sizes(workload: str, seed: int, count: int) -> list:
    """The ``count`` sizes of one run, in a seeded order.

    The workload's grid is sorted by instance volume and cut into ``count``
    equal strata; each stratum contributes its middle size, the first the
    smallest size of the grid (the warm-up op runs on it) and the last the
    largest.  The largest comes first, so that every run reaches the same
    peak memory however many ops it completes.  Seeded picks within the
    strata moved the check-line median by 13-25% from seed to seed, so the
    seed orders the other sizes instead: a golden-ratio sequence over their
    volume ranks, rotated by the seed, so that any prefix of a run cycling
    through the list covers the whole size range evenly."""
    grid = sorted(GRIDS[workload], key=lambda s: (volume(s), s))
    bounds = [len(grid) * i // count for i in range(count + 1)]
    picks = [grid[(lo + hi - 1) // 2] for lo, hi in itertools.pairwise(bounds)]
    picks[0], picks[-1] = grid[0], grid[-1]
    shift = random.Random(f"{workload}/{seed}").random()
    order = sorted(range(count - 1),
                   key=lambda i: (shift + i * 0.6180339887498949) % 1)
    return [picks[-1]] + [picks[i] for i in order]
