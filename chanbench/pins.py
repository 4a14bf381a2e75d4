"""Pinned expected outputs (``pins.json``), written by ``make_pins.py``."""

from __future__ import annotations

import json
import os

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)
