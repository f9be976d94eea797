"""Versioned test-function suite for the transform checks.

The suite lives in ``data/transform_suite.txt`` as pipe-separated lines

    name | expression | decay_class

where ``expression`` is a closed form in the variable x built from
exp, log, sqrt, sin, cos, where, and bump(t) (the smooth compactly
supported bump equal to 1 at t = 0 and 0 for |t| >= 1), and
``decay_class`` is one of super, exp, compact.  The decay class sets the
truncation length used by the transform quadratures.  Lines starting
with '#' are comments.
"""

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .transforms import smooth_bump

_DECAY_CUT = {"super": 9.0, "exp": 40.0, "compact": 2.5}

_NAMESPACE = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
    "cos": np.cos, "where": np.where, "bump": smooth_bump, "pi": np.pi,
}


@dataclass(frozen=True)
class Fixture:
    name: str
    expression: str
    decay_class: str
    x_cut: float
    code: object = field(repr=False, compare=False)

    def __call__(self, x):
        env = dict(_NAMESPACE)
        env["x"] = np.asarray(x, dtype=float)
        return eval(self.code, {"__builtins__": {}}, env)  # noqa: S307


def parse_suite(text):
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise ValueError(f"fixture line needs 3 fields: {line!r}")
        name, expression, decay = parts
        if decay not in _DECAY_CUT:
            raise ValueError(f"unknown decay class {decay!r} in {line!r}")
        fx = Fixture(name, expression, decay, _DECAY_CUT[decay],
                     compile(expression, f"<fixture {name}>", "eval"))
        fx(np.array([0.0, 1.0]))  # validate the expression early
        out.append(fx)
    return out


def load_suite():
    text = resources.files("bessel4").joinpath("data/transform_suite.txt") \
        .read_text(encoding="utf-8")
    return parse_suite(text)
