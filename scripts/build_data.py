#!/usr/bin/env python
"""Regenerate the bundled benchmark data (worlds, suite file, replay traces).

This file is the definition of the bundled suite: 20 scenarios across four
domains, plus two walkthrough worlds. Each scenario carries its world, a
ground-truth goal predicate, an oracle command script that completes it, and
one recorded script per reference model reproducing that model's published
step count and verdict. `write_all` materializes world files, the suite file
(with each scenario's oracle script) and the replay traces; the generated
files under src/carobo/data are committed, and carobo reads only those.
Rerun this after editing a definition here:

    PYTHONPATH=src python scripts/build_data.py [--data-dir DIR]
"""
import argparse
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from carobo.bench import DATA_DIR
from carobo.model import COMMAND_SPECS
from carobo.policies import normalize_request
from carobo.suite_data import MODELS

# -- small builders ---------------------------------------------------------

def _rect(cx: float, cy: float, w: float, h: float) -> dict:
    hw, hh = w / 2.0, h / 2.0
    return {
        "type": "polygon",
        "vertices": [[cx - hw, cy - hh], [cx + hw, cy - hh], [cx + hw, cy + hh], [cx - hw, cy + hh]],
    }


def _circle(cx: float, cy: float, r: float) -> dict:
    return {"type": "circle", "center": [cx, cy], "radius": r}


def _obj(oid, kind, shape, label=None, color="gray", height=0.5, text=None) -> dict:
    return {
        "id": oid,
        "kind": kind,
        "shape": shape,
        "label": label or kind,
        "color": color,
        "height": height,
        "text_on_object": text,
    }


def _world(*objects, x=0.0, y=0.0, heading=0.0, pitch=0.0) -> dict:
    return {
        "robot": {"x": x, "y": y, "heading": heading, "camera_pitch": pitch},
        "objects": list(objects),
    }


def _and(*clauses) -> dict:
    return {"op": "and", "clauses": list(clauses)}


def _not(clause) -> dict:
    return {"op": "not", "clause": clause}


def _near(oid, within) -> dict:
    return {"op": "near", "object_id": oid, "within": within}


def _buzz(n) -> dict:
    return {"op": "buzzer_count", "cmp": ">=", "count": n}


def _pose(x, y, tol) -> dict:
    return {"op": "pose_within", "x": x, "y": y, "tol": tol}


def _heading(deg, tol) -> dict:
    return {"op": "heading_within", "deg": deg, "tol": tol}


def _comment(pattern) -> dict:
    return {"op": "comment_matches", "pattern": pattern}


def _path(meters) -> dict:
    return {"op": "path_length_at_least", "meters": meters}


def _pitch(deg) -> dict:
    return {"op": "camera_pitch_at_least", "deg": deg}


# command tuples
def F(d):
    return ("car_forward", d)


def B(d):
    return ("car_back", d)


def L(a):
    return ("car_left", a)


def R(a):
    return ("car_right", a)


def C(p):
    return ("camera_move", p)


def Z(t):
    return ("buzzer", t)


def _pads(n):
    """Harmless camera wiggles used to pad a script to a recorded step count."""
    return tuple(C(10.0) if i % 2 == 0 else C(0.0) for i in range(n))


@dataclass(frozen=True)
class ModelScript:
    """One model's recorded behavior on one scenario."""

    steps: int
    verdict: str  # expected judgment: "Success" | "Failure"
    commands: Tuple[Tuple[str, float], ...]
    finish: bool  # whether a FINISH decision follows the commands
    comment: str  # comment on the FINISH round (meaningful on success rows)

    def __post_init__(self):
        assert self.steps == len(self.commands), "recorded steps must match the script"


@dataclass(frozen=True)
class Scenario:
    id: str
    domain: str
    request: str
    world: dict
    goal: dict
    plan: Tuple[str, ...]
    oracle_commands: Tuple[Tuple[str, float], ...]
    oracle_comment: str
    scripts: Dict[str, ModelScript]
    needs_movement: bool = True  # goal unreachable by finishing on the spot


SQRT3_2 = 0.8660254037844386  # cos(30 deg)


def _scenarios() -> Tuple[Scenario, ...]:
    out = []

    # ------------------------------------------------------------- object detection
    fridge_world = _world(
        _obj("fridge", "refrigerator", _rect(-2.6, 0.0, 0.6, 0.6), label="refrigerator",
             color="white", height=1.8),
    )
    oracle = (L(90), L(90), F(0.5))
    out.append(Scenario(
        id="obj_1",
        domain="object_detection",
        request="Move around and search for the location of the refrigerator.",
        world=fridge_world,
        goal=_and(_near("fridge", 2.0), _comment("(?i)refrigerator")),
        plan=("Turn around to scan the area behind the robot",
              "Approach the refrigerator once it is seen",
              "Report the refrigerator's location"),
        oracle_commands=oracle,
        oracle_comment="Found the refrigerator about two meters behind the starting point.",
        scripts={
            "gpt-4-turbo": ModelScript(6, "Success", _pads(3) + oracle, True,
                                       "Found the refrigerator about two meters behind the starting point."),
            "gpt-4o": ModelScript(9, "Success", _pads(6) + oracle, True,
                                  "Found the refrigerator about two meters behind the starting point."),
        },
    ))

    person_near_world = _world(
        _obj("person_1", "person", _circle(-0.75, 1.2990381056766578, 0.15), label="person",
             color="blue", height=1.6),
    )
    oracle = (L(120),)
    out.append(Scenario(
        id="obj_2",
        domain="object_detection",
        request="Look for any people in the immediate vicinity.",
        world=person_near_world,
        goal=_and(_heading(120.0, 45.0), _comment("(?i)person|people")),
        plan=("Rotate left to scan the nearby area", "Report any person found"),
        oracle_commands=oracle,
        oracle_comment="A person is standing about 1.5 meters away on our left.",
        scripts={
            "gpt-4-turbo": ModelScript(8, "Success", _pads(7) + oracle, True,
                                       "A person is standing about 1.5 meters away on our left."),
            "gpt-4o": ModelScript(4, "Success", _pads(3) + oracle, True,
                                  "A person is standing about 1.5 meters away on our left."),
        },
    ))

    person_far_world = _world(
        _obj("person_2", "person", _circle(0.0, -2.0, 0.15), label="person", color="green", height=1.7),
        _obj("crate", "box", _rect(2.0, 1.5, 0.4, 0.4), label="box", color="brown", height=0.4),
    )
    oracle = (R(90), F(0.5))
    out.append(Scenario(
        id="obj_3",
        domain="object_detection",
        request="Move around and search for any people in the surrounding area.",
        world=person_far_world,
        goal=_and(_near("person_2", 1.5), _comment("(?i)person|people")),
        plan=("Scan the area by rotating", "Move toward any person found", "Report once close"),
        oracle_commands=oracle,
        oracle_comment="Reached the person standing south of the start.",
        scripts={
            # never finishes: hits the 20-step budget while dithering
            "gpt-4-turbo": ModelScript(20, "Failure", (L(45), R(45)) * 10, False,
                                       "Still searching for a person."),
            "gpt-4o": ModelScript(11, "Success", _pads(9) + oracle, True,
                                  "Reached the person standing south of the start."),
        },
    ))

    rect_box_world = _world(
        _obj("box_rect", "box", _rect(2.0, 0.0, 0.4, 0.4), label="box", color="brown", height=0.4),
    )
    oracle = (F(1.0), Z(1.0))
    out.append(Scenario(
        id="obj_4",
        domain="object_detection",
        request="If a rectangular object is seen, move towards it and activate the buzzer.",
        world=rect_box_world,
        goal=_and(_near("box_rect", 1.0), _buzz(1)),
        plan=("Identify the rectangular box ahead", "Drive toward it",
              "Activate the buzzer next to it"),
        oracle_commands=oracle,
        oracle_comment="Stopped by the rectangular box and sounded the buzzer.",
        scripts={
            "gpt-4-turbo": ModelScript(4, "Success", _pads(2) + oracle, True,
                                       "Stopped by the rectangular box and sounded the buzzer."),
            "gpt-4o": ModelScript(2, "Success", oracle, True,
                                  "Stopped by the rectangular box and sounded the buzzer."),
        },
    ))

    yellow_world = _world(
        _obj("ybox", "box", _rect(1.2, 0.0, 0.3, 0.3), label="box", color="yellow", height=0.3,
             text="CAUTION"),
    )
    out.append(Scenario(
        id="obj_5",
        domain="object_detection",
        request="Find yellow obstacles and tell me what is written on them.",
        world=yellow_world,
        goal=_comment("CAUTION"),
        plan=("Read the text on the yellow obstacle", "Report it"),
        oracle_commands=(),
        oracle_comment="The yellow obstacle reads 'CAUTION'.",
        scripts={
            "gpt-4-turbo": ModelScript(0, "Success", (), True, "The yellow obstacle reads 'CAUTION'."),
            "gpt-4o": ModelScript(0, "Success", (), True, "The yellow obstacle reads 'CAUTION'."),
        },
        needs_movement=False,
    ))

    # ------------------------------------------------------------- command execution
    empty = _world()
    square = (F(0.6), L(90), F(0.6), L(90), F(0.6), L(90), F(0.6), L(90))
    out.append(Scenario(
        id="cmd_1",
        domain="command_execution",
        request="Rotate in a 0.6-meter square shape.",
        world=empty,
        goal=_and(_pose(0.0, 0.0, 0.05), _path(2.39), _heading(0.0, 1.0)),
        plan=("Drive four 0.6 m sides, turning left 90 degrees after each",
              "Finish back at the starting pose"),
        oracle_commands=square,
        oracle_comment="Completed the 0.6 m square and returned to the start.",
        scripts={
            # stops after three sides, convinced the square is done
            "gpt-4-turbo": ModelScript(5, "Failure", (F(0.6), L(90), F(0.6), L(90), F(0.6)), True,
                                       "Square path complete."),
            "gpt-4o": ModelScript(9, "Success", _pads(1) + square, True,
                                  "Completed the 0.6 m square and returned to the start."),
        },
    ))

    face_world = _world(
        _obj("person_3", "person", _circle(0.8, 0.0, 0.15), label="person", color="blue", height=1.6),
    )
    face_script = (C(20), C(40), C(50))
    out.append(Scenario(
        id="cmd_2",
        domain="command_execution",
        request="Lift your head, identify a human face, and describe it.",
        world=face_world,
        goal=_and(_pitch(35.0), _comment("(?i)face")),
        plan=("Raise the camera pitch until the person's face is in view",
              "Describe the face"),
        oracle_commands=(C(45),),
        oracle_comment="The face in view looks friendly, with short dark hair.",
        scripts={
            "gpt-4-turbo": ModelScript(3, "Success", face_script, True,
                                       "I can see the face now: short dark hair and a friendly smile."),
            "gpt-4o": ModelScript(3, "Success", face_script, True,
                                  "I can see the face now: short dark hair and a friendly smile."),
        },
    ))

    out.append(Scenario(
        id="cmd_3",
        domain="command_execution",
        request="Rotate twice on the spot",
        world=empty,
        goal=_and(_heading(0.0, 1.0), _pose(0.0, 0.0, 0.02), _comment("(?i)rotat")),
        plan=("Rotate 360 degrees twice using left turns",
              "Confirm the heading matches the start"),
        oracle_commands=(L(360), L(360)),
        oracle_comment="Completed two full rotations on the spot.",
        scripts={
            # a single 360-degree spin; the final pose is indistinguishable
            "gpt-4-turbo": ModelScript(1, "Success", (L(360),), True,
                                       "Rotated around twice on the spot."),
            "gpt-4o": ModelScript(8, "Success", _pads(6) + (L(360), L(360)), True,
                                  "Completed two full rotations on the spot."),
        },
        needs_movement=False,
    ))

    zigzag9 = (L(30), F(0.5), R(60), F(0.5), L(60), F(0.5), R(60), F(0.5), L(30))
    zigzag5 = (L(30), F(1.0), R(60), F(1.0), L(30))
    out.append(Scenario(
        id="cmd_4",
        domain="command_execution",
        request="Move in a zigzag pattern at a 30-degree angle for a distance of 2 meters.",
        world=empty,
        goal=_and(_path(1.999), _pose(2.0 * SQRT3_2, 0.0, 0.05)),
        plan=("Alternate 30-degree legs left and right of the axis",
              "Cover 2 meters of path in the zigzag"),
        oracle_commands=zigzag9,
        oracle_comment="Zigzag finished: 2 meters covered at 30-degree angles.",
        scripts={
            "gpt-4-turbo": ModelScript(5, "Success", zigzag5, True,
                                       "Zigzag finished: 2 meters covered at 30-degree angles."),
            "gpt-4o": ModelScript(10, "Success", _pads(1) + zigzag9, True,
                                  "Zigzag finished: 2 meters covered at 30-degree angles."),
        },
    ))

    back_buzz = (B(0.4), Z(0.5)) * 5
    out.append(Scenario(
        id="cmd_5",
        domain="command_execution",
        request="Move backwards 0.4 meters and sound the buzzer, repeat this 5 times.",
        world=empty,
        goal=_and(_buzz(5), _path(1.999), _pose(-2.0, 0.0, 0.05)),
        plan=("Reverse 0.4 meters", "Sound the buzzer", "Repeat until done five times"),
        oracle_commands=back_buzz,
        oracle_comment="Backed up 0.4 meters and buzzed, five times in total.",
        scripts={
            "gpt-4-turbo": ModelScript(12, "Success", _pads(2) + back_buzz, True,
                                       "Backed up 0.4 meters and buzzed, five times in total."),
            "gpt-4o": ModelScript(12, "Success", _pads(2) + back_buzz, True,
                                  "Backed up 0.4 meters and buzzed, five times in total."),
        },
    ))

    # ------------------------------------------------------------- obstacle navigation
    slalom_world = _world(
        _obj("box_a", "box", _rect(1.0, -0.5, 0.3, 0.3), label="box", color="gray", height=0.3),
        _obj("box_b", "box", _rect(1.8, 0.6, 0.3, 0.3), label="box", color="gray", height=0.4),
    )
    weave = (L(15), F(1.0), R(30), F(1.0), L(15), F(0.5))
    out.append(Scenario(
        id="obs_1",
        domain="obstacle_navigation",
        request="Move forward avoiding obstacles",
        world=slalom_world,
        goal=_path(2.0),
        plan=("Pick a clear line between the boxes",
              "Advance in short legs, steering around obstacles",
              "Stop after covering solid forward distance"),
        oracle_commands=weave,
        oracle_comment="Moved 2.5 meters forward while steering around the boxes.",
        scripts={
            # dithers in place, then declares victory after a token advance
            "gpt-4-turbo": ModelScript(16, "Failure", (L(30), R(30)) * 7 + (L(30), F(0.5)), True,
                                       "Path is clear; moving done."),
            "gpt-4o": ModelScript(7, "Success", _pads(1) + weave, True,
                                  "Moved 2.5 meters forward while steering around the boxes."),
        },
    ))

    wall_ahead_world = _world(
        _obj("box_front", "box", _rect(1.45, 0.0, 0.3, 0.3), label="box", color="red", height=0.4),
    )
    detour = (F(0.8), Z(0.5), R(90), F(1.2))
    out.append(Scenario(
        id="obs_2",
        domain="obstacle_navigation",
        request="Move forward for a total of 2 meters, turning right and activating the buzzer when obstacles appear.",
        world=wall_ahead_world,
        goal=_and(_path(1.999), _buzz(1)),
        plan=("Advance until the obstacle is close",
              "Buzz and turn right as instructed",
              "Continue until 2 meters of travel are done"),
        oracle_commands=detour,
        oracle_comment="Covered 2 meters, detouring right past the obstacle with a warning buzz.",
        scripts={
            "gpt-4-turbo": ModelScript(8, "Success", _pads(4) + detour, True,
                                       "Covered 2 meters, detouring right past the obstacle with a warning buzz."),
            "gpt-4o": ModelScript(5, "Success", _pads(1) + detour, True,
                                  "Covered 2 meters, detouring right past the obstacle with a warning buzz."),
        },
    ))

    bosch_world = _world(
        _obj("bosch_box", "box", _rect(2.2, 1.2, 0.3, 0.3), label="box", color="green", height=0.5,
             text="Bosch"),
        _obj("box_d", "box", _rect(1.8, -1.0, 0.3, 0.3), label="box", color="gray", height=0.4,
             text="ACME"),
    )
    to_bosch = (L(28.6), F(1.5))
    out.append(Scenario(
        id="obs_3",
        domain="obstacle_navigation",
        request="Move to find a bosch box while avoiding obstacles",
        world=bosch_world,
        goal=_and(_near("bosch_box", 1.0), _comment("(?i)bosch")),
        plan=("Scan for a box labeled Bosch",
              "Drive toward it while keeping clear of other boxes",
              "Stop next to it and report"),
        oracle_commands=to_bosch,
        oracle_comment="Found the Bosch box just ahead.",
        scripts={
            # wanders off toward the wrong corner and calls it found
            "gpt-4-turbo": ModelScript(15, "Failure", _pads(13) + (R(90), F(0.8)), True,
                                       "Found the box at last."),
            "gpt-4o": ModelScript(8, "Success", _pads(6) + to_bosch, True,
                                  "Found the Bosch box just ahead."),
        },
    ))

    ring_world = _world(
        _obj("box_front", "box", _rect(1.5, 0.0, 0.3, 0.3), label="box", color="gray", height=0.4),
        _obj("box_left", "box", _rect(0.0, 1.5, 0.3, 0.3), label="box", color="gray", height=0.4),
        _obj("box_back", "box", _rect(-1.5, 0.0, 0.3, 0.3), label="box", color="gray", height=0.4),
    )
    out.append(Scenario(
        id="obs_4",
        domain="obstacle_navigation",
        request="Rotate once while observing the surroundings, then move 1 meter in a direction without obstacles",
        world=ring_world,
        goal=_and(
            _path(0.99),
            _not(_near("box_front", 0.5)),
            _not(_near("box_left", 0.5)),
            _not(_near("box_back", 0.5)),
        ),
        plan=("Rotate a full turn to observe all directions",
              "Pick the direction with no obstacle",
              "Move 1 meter that way"),
        oracle_commands=(L(90), L(90), L(90), L(90), R(90), F(1.0)),
        oracle_comment="Rotated once and moved 1 meter south where nothing blocks the way.",
        scripts={
            # rotates once but barely advances afterwards
            "gpt-4-turbo": ModelScript(5, "Failure", (L(90), L(90), L(90), L(90), F(0.2)), True,
                                       "Moved to open space."),
            # fine-grained rotation, then drives straight at the front box
            "gpt-4o": ModelScript(15, "Failure", (L(45),) * 8 + _pads(6) + (F(0.9),), True,
                                  "Moved 1 meter into clear space."),
        },
    ))

    behind_world = _world(
        _obj("box_mid", "box", _rect(1.5, 0.0, 0.3, 0.3), label="box", color="brown", height=0.35),
    )
    go_behind = (L(90), F(1.0), R(90), F(2.5), R(90), F(1.0), L(90), Z(0.5))
    out.append(Scenario(
        id="obs_5",
        domain="obstacle_navigation",
        request="After observing obstacles in front, move behind the observed object, stop, and activate the buzzer.",
        world=behind_world,
        goal=_and(_pose(2.5, 0.0, 0.6), _buzz(1)),
        plan=("Observe the obstacle ahead",
              "Loop around to its far side",
              "Stop behind it and sound the buzzer"),
        oracle_commands=go_behind,
        oracle_comment="Parked behind the box and sounded the buzzer.",
        scripts={
            # buzzes almost immediately without going around
            "gpt-4-turbo": ModelScript(3, "Failure", (F(0.5), R(90), Z(0.5)), True,
                                       "Buzzed near the obstacle."),
            # makes it halfway around before declaring success
            "gpt-4o": ModelScript(5, "Failure", (L(90), F(1.0), R(90), F(1.0), Z(0.5)), True,
                                  "Behind the object now; buzzer sounded."),
        },
    ))

    # ------------------------------------------------------------- situation awareness
    red_world = _world(
        _obj("red_box", "box", _rect(1.0, 0.0, 0.3, 0.3), label="box", color="red", height=0.3),
    )
    out.append(Scenario(
        id="sa_1",
        domain="situation_awareness",
        request="Describe the features of the object in front",
        world=red_world,
        goal=_comment("(?i)red"),
        plan=("Describe the object directly ahead",),
        oracle_commands=(),
        oracle_comment="A red box about 0.3 meters wide sits one meter ahead.",
        scripts={
            "gpt-4-turbo": ModelScript(0, "Success", (), True,
                                       "A red box about 0.3 meters wide sits one meter ahead."),
            "gpt-4o": ModelScript(0, "Success", (), True,
                                  "A red box about 0.3 meters wide sits one meter ahead."),
        },
        needs_movement=False,
    ))

    navy_world = _world(
        _obj("navy_box", "box", _rect(-2.0 * SQRT3_2, 1.0, 0.3, 0.3), label="box", color="navy",
             height=0.3),
        _obj("white_box", "box", _rect(1.5, -0.5, 0.3, 0.3), label="box", color="white", height=0.3),
    )
    scan_navy = (L(90), L(60))
    out.append(Scenario(
        id="sa_2",
        domain="situation_awareness",
        request="Detect the surroundings and describe only navy-colored objects in Korean",
        world=navy_world,
        goal=_and(_heading(150.0, 40.0), _comment("남색")),
        plan=("Rotate to scan the surroundings",
              "Describe navy-colored objects in Korean"),
        oracle_commands=scan_navy,
        oracle_comment="남색 상자가 뒤쪽 왼편에 보입니다.",
        scripts={
            "gpt-4-turbo": ModelScript(6, "Success", _pads(4) + scan_navy, True,
                                       "남색 상자가 뒤쪽 왼편에 보입니다."),
            "gpt-4o": ModelScript(7, "Success", _pads(5) + scan_navy, True,
                                  "남색 상자가 뒤쪽 왼편에 보입니다."),
        },
    ))

    alpha_world = _world(
        _obj("alpha_box", "box", _rect(2.3, 0.0, 0.3, 0.3), label="box", color="blue", height=0.4,
             text="ALPHA"),
    )
    out.append(Scenario(
        id="sa_3",
        domain="situation_awareness",
        request="Move forward 0.5 meters, observe the surroundings, and tell me the name of the box.",
        world=alpha_world,
        goal=_and(_pose(0.5, 0.0, 0.05), _comment("ALPHA")),
        plan=("Move forward 0.5 meters", "Read the box's name", "Report it"),
        oracle_commands=(F(0.5),),
        oracle_comment="The box ahead is named 'ALPHA'.",
        scripts={
            "gpt-4-turbo": ModelScript(3, "Success", _pads(2) + (F(0.5),), True,
                                       "The box ahead is named 'ALPHA'."),
            "gpt-4o": ModelScript(7, "Success", _pads(6) + (F(0.5),), True,
                                  "The box ahead is named 'ALPHA'."),
        },
    ))

    paper_far_world = _world(
        _obj("paper_1", "paper", _rect(2.8, 0.0, 0.21, 0.30), label="paper", color="white",
             height=0.01, text="NOTICE: KEEP CLEAR"),
    )
    approach_paper = (F(0.5), F(0.5), F(0.5), F(0.5))
    out.append(Scenario(
        id="sa_4",
        domain="situation_awareness",
        request="After moving 2 meters, if there is a paper in front, print out what is written on it.",
        world=paper_far_world,
        goal=_and(_path(1.999), _comment("KEEP CLEAR")),
        plan=("Move forward 2 meters in short legs",
              "Look for a paper ahead",
              "Read out its text"),
        oracle_commands=approach_paper,
        oracle_comment="The paper reads 'NOTICE: KEEP CLEAR'.",
        scripts={
            # stops 0.5 m short of the required travel
            "gpt-4-turbo": ModelScript(3, "Failure", (F(0.5), F(0.5), F(0.5)), True,
                                       "Moved forward; there is a paper ahead."),
            "gpt-4o": ModelScript(10, "Success", _pads(6) + approach_paper, True,
                                  "The paper reads 'NOTICE: KEEP CLEAR'."),
        },
    ))

    paper_near_world = _world(
        _obj("paper_2", "paper", _rect(1.0, 0.0, 0.21, 0.30), label="paper", color="white",
             height=0.01,
             text="Ministry of Science, ICT and Future Planning - 02-1234-5678"),
    )
    out.append(Scenario(
        id="sa_5",
        domain="situation_awareness",
        request="From the paper observed in front, tell me the contact information for the Ministry of Science, ICT and Future Planning.",
        world=paper_near_world,
        goal=_comment("02-1234-5678"),
        plan=("Read the paper in front", "Report the ministry's contact information"),
        oracle_commands=(),
        oracle_comment="The paper lists the contact number 02-1234-5678.",
        scripts={
            # fiddles with the camera and gives up without the number
            "gpt-4-turbo": ModelScript(4, "Failure", (C(10), C(0), C(-10), C(0)), True,
                                       "I could not make out any contact information."),
            "gpt-4o": ModelScript(0, "Success", (), True,
                                  "The paper lists the contact number 02-1234-5678."),
        },
        needs_movement=False,
    ))

    return tuple(out)


SCENARIOS: Tuple[Scenario, ...] = _scenarios()

# standalone walkthrough worlds reusing benchmark layouts with their own requests
CASE_STUDIES = (
    ("case_bosch", "Find the box that says Bosch.", "obs_3"),
    ("case_avoid", "Move forward avoiding obstacles.", "obs_1"),
)


def scenario_by_id(sid: str) -> Scenario:
    for s in SCENARIOS:
        if s.id == sid:
            return s
    raise KeyError(sid)


def _command_doc(name: str, value: float) -> dict:
    """A command as a completion spells it; an integer value stays an integer."""
    return {"name": name, "args": {COMMAND_SPECS[name][0]: value}}


# ---------------------------------------------------------------------------
# Replay trace synthesis

def _host_completion(s: Scenario) -> str:
    return json.dumps(
        {
            "observation": "Taking in the scene before planning.",
            "thoughts": f"Working out how to satisfy: {s.request}",
            "plan": list(s.plan),
            "comment": "Plan ready; handing over to the executor.",
        },
        ensure_ascii=False,
    )


def _continue_completion(index: int, name: str, value: float) -> str:
    return json.dumps(
        {
            "observation": "Checking the scene against the plan.",
            "comment": f"Step {index + 1}: {name}.",
            "command": _command_doc(name, value),
            "status": "CONTINUE",
        },
        ensure_ascii=False,
    )


def _finish_completion(comment: str) -> str:
    return json.dumps(
        {
            "observation": "The request looks satisfied.",
            "comment": comment,
            "status": "FINISH",
        },
        ensure_ascii=False,
    )


def build_replay_trace(s: Scenario, model: str) -> str:
    """One JSON-string completion per line: host decision, then app rounds."""
    script = s.scripts[model]
    lines = [json.dumps(_host_completion(s), ensure_ascii=False)]
    for i, (name, value) in enumerate(script.commands):
        lines.append(json.dumps(_continue_completion(i, name, value), ensure_ascii=False))
    if script.finish:
        lines.append(json.dumps(_finish_completion(script.comment), ensure_ascii=False))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The suite file

def _oracle_document(s: Scenario) -> dict:
    """The oracle policy's script for `s`. A case study's request becomes an
    alias unless it already reads as a scenario's own request."""
    doc = {
        "plan": list(s.plan),
        "commands": [_command_doc(name, value) for name, value in s.oracle_commands],
        "comment": s.oracle_comment,
    }
    requests = {normalize_request(t.request) for t in SCENARIOS}
    aliases = [request for _cid, request, source in CASE_STUDIES
               if source == s.id and normalize_request(request) not in requests]
    if aliases:
        doc["aliases"] = aliases
    return doc


def suite_document(world_dir: str = "worlds") -> dict:
    return {
        "scenarios": [
            {
                "id": s.id,
                "domain": s.domain,
                "request_text": s.request,
                "world_file": f"{world_dir}/{s.id}.json",
                "goal": s.goal,
                "limits": {"max_steps": 20, "max_rounds": 25},
                "oracle": _oracle_document(s),
            }
            for s in SCENARIOS
        ]
    }


def write_all(data_dir: Optional[Path] = None) -> Path:
    """Materialize worlds, the suite file and the recorded replay traces."""
    base = Path(data_dir) if data_dir else DATA_DIR
    worlds = base / "worlds"
    worlds.mkdir(parents=True, exist_ok=True)
    for s in SCENARIOS:
        (worlds / f"{s.id}.json").write_text(
            json.dumps(s.world, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    for cid, _request, source in CASE_STUDIES:
        (worlds / f"{cid}.json").write_text(
            json.dumps(scenario_by_id(source).world, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    (base / "suite.json").write_text(
        json.dumps(suite_document(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    for model in MODELS:
        model_dir = base / "traces" / model
        model_dir.mkdir(parents=True, exist_ok=True)
        for s in SCENARIOS:
            (model_dir / f"{s.id}.jsonl").write_text(build_replay_trace(s, model), encoding="utf-8")
    return base


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data-dir", default=None, help="override the package data directory")
    args = parser.parse_args()
    base = write_all(args.data_dir)
    print(f"benchmark data written under {base}")


if __name__ == "__main__":
    main()
