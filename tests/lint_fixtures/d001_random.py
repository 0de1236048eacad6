"""D001 fixture: stdlib ``random`` discipline (positive/negative/suppressed)."""

import random


def bad_global_draw():
    return random.random()  # finding: module-global RNG


def bad_unseeded():
    return random.Random()  # finding: unseeded construction


def ok_instance_draw(rng):
    return rng.random()  # no finding: draw from an injected stream


def ok_seeded(seed):
    return random.Random(seed)  # no finding: seeded, so every run draws the same


def waived_entropy():
    # repro: allow-D001 fixture: a salt that must differ between runs
    return random.SystemRandom()
