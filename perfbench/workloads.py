"""Seeded decks of CLI commands for the three workloads.

A deck is the list of commands one pass of a workload sends to
``gupab.cli_io.main``. Every draw comes from ``random.Random(seed)``, so a
seed fixes the deck byte for byte. The composition of a deck is fixed (how
many of each kind, sizes stratified over their range, refinement and
projection assigned by position); only the parameters are random. That keeps
the cost of a pass nearly the same for every seed, so runs with different
seeds can be compared.

Valid loops keep at least three coil radii between themselves and the axis.
Crossing loops pass within one coil radius of the axis; the engine must
reject them with exit 1.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import LINEAR_SWEEPS, loop_geometry

WORKLOADS = ("phase-mix", "sweep-mix", "algebra-checks")
README_CONFIG = {
    "particle": {"q": 1.0, "m": 1.0, "v": 0.6},
    "solenoid": {"flux": 1.0, "radius": 0.1},
    "loop": {"kind": "circle", "radius": 2.0, "windings": 1},
    "gup": {"a": 0.01},
    "quadrature": {"nodes_per_segment": 16, "tolerance": 1e-10, "refinement": "doubling"},
    "projection": "comoving_on_shell",
}
CLEARANCE_COIL_RADII = 3.0


@dataclass
class Command:
    """One CLI call: argv (with CONFIG standing for the config file), and what it must do."""

    label: str
    argv: list
    config: dict | None = None
    expect_exit: int = 0


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _spread(k, count, lo, hi, log=False):
    """k-th of count integers spread evenly (or log-evenly) over [lo, hi], ends included."""
    if log:
        return round(lo * (hi / lo) ** (k / (count - 1)))
    return round(lo + (hi - lo) * k / (count - 1))


def _rotate(x, y, angle):
    c, s = math.cos(angle), math.sin(angle)
    return c * x - s * y, s * x + c * y


# --- config pieces --------------------------------------------------------------


def _particle(rng):
    return {"q": rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0), "m": _loguniform(rng, 0.2, 5.0), "v": rng.uniform(0.05, 0.95)}


def _gup(rng, k):
    if k % 3 == 0:
        return {"a": rng.uniform(0.0, 0.1)}
    if k % 3 == 1:
        return {"a0": rng.uniform(0.0, 0.1), "units": "natural"}
    return {"a0": rng.uniform(0.0, 0.6), "units": "si"}


def _config(rng, k, loop, coil, doubling, fixed_spinor):
    config = {
        "particle": _particle(rng),
        "solenoid": {"flux": rng.uniform(-3.0, 3.0), "radius": coil},
        "loop": loop,
        "gup": _gup(rng, k),
        "quadrature": {"nodes_per_segment": 16, "tolerance": 1e-10, "refinement": "doubling" if doubling else "fixed"},
        "projection": "fixed_spinor" if fixed_spinor else "comoving_on_shell",
    }
    if fixed_spinor:
        config["spinor"] = {
            "momentum": [rng.uniform(-1.5, 1.5) for _ in range(3)],
            "branch": rng.choice(("particle1", "particle2")),
        }
    return config


# --- loops ----------------------------------------------------------------------
# ``category`` is "inside" (axis enclosed), "outside" (winding 0) or "crossing".


def _accept(loop, coil, category):
    winding, _, clearance = loop_geometry(loop)
    if category == "crossing":
        return clearance < coil
    return clearance >= CLEARANCE_COIL_RADII * coil and (winding != 0) == (category == "inside")


def _circle(rng, coil, category, windings):
    radius = _loguniform(rng, 0.5, 4.0)
    while True:
        if category == "inside":
            offset = rng.uniform(0.0, 0.6) * radius
        elif category == "outside":
            offset = rng.uniform(1.4, 2.5) * radius
        else:
            offset = radius + rng.uniform(-0.9, 0.9) * coil
        angle = rng.uniform(0.0, 2.0 * math.pi)
        loop = {
            "kind": "circle",
            "center": [offset * math.cos(angle), offset * math.sin(angle), rng.uniform(-1.0, 1.0)],
            "radius": radius,
            "windings": windings,
        }
        if _accept(loop, coil, category):
            return loop


def _rectangle(rng, coil, category):
    hx, hy = _loguniform(rng, 0.3, 3.0), _loguniform(rng, 0.3, 3.0)
    turn = rng.uniform(0.0, 2.0 * math.pi)
    z = rng.uniform(-1.0, 1.0)
    while True:
        # (ux, uy): where the axis sits in the rectangle's own frame
        if category == "inside":
            ux, uy = rng.uniform(-0.7, 0.7) * hx, rng.uniform(-0.7, 0.7) * hy
        elif category == "outside":
            ux, uy = rng.choice((-1.0, 1.0)) * rng.uniform(1.2, 2.5) * hx, rng.uniform(-2.0, 2.0) * hy
        else:
            ux, uy = hx + rng.uniform(-0.9, 0.9) * coil, rng.uniform(-0.8, 0.8) * hy
        corners = []
        for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
            x, y = _rotate(sx * hx - ux, sy * hy - uy, turn)
            corners.append([x, y, z])
        if rng.random() < 0.5:
            corners.reverse()
        loop = {"kind": "rectangle", "corners": corners}
        if _accept(loop, coil, category):
            return loop


def _star_polygon(rng, n):
    """Vertices star-shaped about the origin: one per angular stratum, radius in [0.7, 1.3] x scale."""
    scale = _loguniform(rng, 0.5, 3.0)
    start = rng.uniform(0.0, 2.0 * math.pi)
    z = rng.uniform(-1.0, 1.0)
    vertices = []
    for k in range(n):
        theta = start + 2.0 * math.pi * (k + rng.uniform(0.3, 0.7)) / n
        rho = scale * rng.uniform(0.7, 1.3)
        vertices.append([rho * math.cos(theta), rho * math.sin(theta), z + scale * rng.uniform(-0.2, 0.2)])
    if rng.random() < 0.5:
        vertices.reverse()
    return vertices, scale


def _polyline(rng, coil, category, n):
    while True:
        vertices, scale = _star_polygon(rng, n)
        for _ in range(100):
            if category == "inside":
                r, phi = 0.5 * scale * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
                ox, oy = r * math.cos(phi), r * math.sin(phi)
            elif category == "outside":
                r, phi = rng.uniform(1.6, 3.0) * scale, rng.uniform(0.0, 2.0 * math.pi)
                ox, oy = r * math.cos(phi), r * math.sin(phi)
            else:
                k = rng.randrange(n)
                a, b = vertices[k], vertices[(k + 1) % n]
                t = rng.uniform(0.2, 0.8)
                dx, dy = b[0] - a[0], b[1] - a[1]
                norm = math.hypot(dx, dy)
                off = rng.uniform(-0.9, 0.9) * coil / norm
                ox, oy = a[0] + t * dx - off * dy, a[1] + t * dy + off * dx
            # (ox, oy) is where the axis sits; move the polygon so the axis is at the origin
            loop = {"kind": "polyline", "vertices": [[x - ox, y - oy, z] for x, y, z in vertices]}
            if _accept(loop, coil, category):
                return loop


def _loop(rng, kind, coil, category, k, n=None):
    if kind == "circle":
        return _circle(rng, coil, category, (1, -1, 2, -2, 3, -3)[k % 6])
    if kind == "rectangle":
        return _rectangle(rng, coil, category)
    return _polyline(rng, coil, category, n)


# --- decks ----------------------------------------------------------------------


def _phase_mix(rng):
    commands = []

    def add(kind, count, categories, max_vertices=64):
        for k in range(count):
            n = _spread(k, count, 3, max_vertices, log=True) if kind == "polyline" else None
            category = categories[k % len(categories)]
            crossing = category == "crossing"
            coil = _loguniform(rng, 1e-3, 1e-1)
            loop = _loop(rng, kind, coil, category, k, n)
            # crossing loops run with fixed refinement, so one the check misses costs an ordinary run
            config = _config(rng, k, loop, coil, doubling=k % 4 == 0 and not crossing, fixed_spinor=k % 4 == 1)
            label = f"phase.{kind}" + (f".n{n}" if n else "") + f".{category}"
            commands.append(Command(label, ["phase", "-c", "CONFIG"], config, 1 if crossing else 0))

    add("circle", 32, ("inside", "inside", "outside"))
    add("rectangle", 16, ("inside", "inside", "inside", "outside"))
    add("polyline", 44, ("inside", "inside", "inside", "outside"))
    add("circle", 2, ("crossing",))
    add("rectangle", 2, ("crossing",))
    add("polyline", 4, ("crossing",), max_vertices=16)
    return commands


def _sweep_values(rng, parameter, rows, loop):
    if parameter == "gup.a":
        values = [rng.uniform(0.0, 0.1) for _ in range(rows)]
    elif parameter == "solenoid.flux":
        values = [rng.uniform(-3.0, 3.0) for _ in range(rows)]
    elif parameter == "particle.v":
        values = [rng.uniform(0.05, 0.95) for _ in range(rows)]
    else:
        lo = loop["radius"]
        values = [lo * rng.uniform(1.0, 2.5) for _ in range(rows)]
    return sorted(values)


def _sweep_mix(rng):
    commands = []
    count = 24
    parameters = ("gup.a", "solenoid.flux", "loop.radius", "particle.v")
    for j in range(count):
        parameter = parameters[j % 4]
        # rows rise evenly along the deck, so every parameter gets short and long sweeps
        # and the sorted latencies have no gap for the median to fall into
        rows = _spread(j, count, 20, 100)
        kind = "rectangle" if j in (4, 9, 15) else "circle"
        doubling = j in (0, 2)
        coil = _loguniform(rng, 1e-3, 1e-1)
        if kind == "circle":
            category = "outside" if j % 3 == 1 and parameter != "loop.radius" and not doubling else "inside"
            loop = _circle(rng, coil, category, rng.choice((1, -1)))
            if parameter == "loop.radius":
                # radius sweeps grow the circle, so start with the axis well inside it
                cx, cy, _ = loop["center"]
                loop["radius"] = max(loop["radius"], 2.0 * math.hypot(cx, cy) + 2 * CLEARANCE_COIL_RADII * coil)
        else:
            loop = _rectangle(rng, coil, "inside")
        config = _config(rng, j, loop, coil, doubling=doubling, fixed_spinor=j % 6 == 3)
        config["sweep"] = {"parameter": parameter, "values": _sweep_values(rng, parameter, rows, loop)}
        linearity = "linear" if parameter in LINEAR_SWEEPS else "nonlinear"
        commands.append(Command(f"sweep.{linearity}.{parameter}.{kind}", ["sweep", "-c", "CONFIG"], config))
    return commands


def _algebra_checks(rng):
    commands = [Command("verify.fast", ["verify", "--level", "fast"]) for _ in range(40)]
    commands += [Command("verify.full", ["verify", "--level", "full"]) for _ in range(10)]
    commands += [Command("verify.fast.inject", ["verify", "--level", "fast", "--inject-fault"], None, 1) for _ in range(6)]
    commands += [Command("verify.full.inject", ["verify", "--level", "full", "--inject-fault"], None, 1) for _ in range(2)]
    count = 42
    for k in range(count):
        steps = _spread(k, count, 100, 2000)
        config = copy.deepcopy(README_CONFIG)
        config["particle"]["m"] = _loguniform(rng, 0.2, 5.0)
        config["gup"] = _gup(rng, k)
        p_max = rng.uniform(0.5, 5.0)
        argv = ["dispersion", "-c", "CONFIG", "--pmax", repr(p_max), "--steps", str(steps)]
        commands.append(Command("dispersion", argv, config))
    return commands


def deck(workload: str, seed: int):
    """The workload's commands in the order one pass sends them."""
    rng = random.Random(f"{workload}:{seed}")
    build = {"phase-mix": _phase_mix, "sweep-mix": _sweep_mix, "algebra-checks": _algebra_checks}[workload]
    commands = build(rng)
    rng.shuffle(commands)
    return commands


def warmup_deck(workload: str):
    """Fixed, seed-independent commands run during set-up so lazy caches fill.

    The first asks for an unreachable tolerance, so node doubling walks every
    rule size up to its cap and the Gauss-Legendre rule cache is full before
    timing starts. Only exit codes are checked.
    """
    exhaust = dict(README_CONFIG, quadrature={"nodes_per_segment": 16, "tolerance": 1e-300, "refinement": "doubling"})
    commands = [Command("warmup.rule_cache", ["phase", "-c", "CONFIG"], exhaust)]
    if workload == "phase-mix":
        square = {"kind": "polyline", "vertices": [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]}
        commands.append(Command("warmup.phase", ["phase", "-c", "CONFIG"], dict(README_CONFIG, loop=square)))
    elif workload == "sweep-mix":
        sweep = {"parameter": "gup.a", "values": [0.0, 0.005, 0.01]}
        commands.append(Command("warmup.sweep", ["sweep", "-c", "CONFIG"], dict(README_CONFIG, sweep=sweep)))
    else:
        commands.append(Command("warmup.verify.fast", ["verify", "--level", "fast"]))
        commands.append(Command("warmup.verify.full", ["verify", "--level", "full"]))
        argv = ["dispersion", "-c", "CONFIG", "--pmax", "2.0", "--steps", "50"]
        commands.append(Command("warmup.dispersion", argv, dict(README_CONFIG)))
    return commands


def probe_deck():
    """Small fixed commands that reach every traced layer, for layers a workload never calls."""
    rectangle = {"kind": "rectangle", "corners": [[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]]}
    fixed = dict(README_CONFIG, loop=rectangle, projection="fixed_spinor", spinor={"momentum": [0.3, 0.1, 0.0]})
    linear = dict(README_CONFIG, sweep={"parameter": "gup.a", "values": [0.0, 0.01, 0.02, 0.03, 0.04]})
    nonlinear = dict(README_CONFIG, sweep={"parameter": "particle.v", "values": [0.2, 0.35, 0.5, 0.65, 0.8]})
    return [
        Command("probe.phase.circle", ["phase", "-c", "CONFIG"], dict(README_CONFIG)),
        Command("probe.phase.rectangle.fixed_spinor", ["phase", "-c", "CONFIG"], fixed),
        Command("probe.sweep.linear", ["sweep", "-c", "CONFIG"], linear),
        Command("probe.sweep.nonlinear", ["sweep", "-c", "CONFIG"], nonlinear),
        Command("probe.dispersion", ["dispersion", "-c", "CONFIG", "--pmax", "2.0", "--steps", "200"], dict(README_CONFIG)),
        Command("probe.verify.fast", ["verify", "--level", "fast"]),
        Command("probe.verify.full", ["verify", "--level", "full"]),
    ]


def _config_text(config: dict) -> str:
    return json.dumps(config, indent=2) + "\n"


def input_hash(commands) -> str:
    """sha256 over every command's argv, expected exit code and config file bytes."""
    digest = hashlib.sha256()
    for index, command in enumerate(commands):
        digest.update(json.dumps([index, command.label, command.argv, command.expect_exit]).encode())
        if command.config is not None:
            digest.update(_config_text(command.config).encode())
    return digest.hexdigest()


def materialize(commands, directory: Path):
    """Write each config file under directory; return the argv lists that name them."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for index, command in enumerate(commands):
        argv = list(command.argv)
        if command.config is not None:
            path = directory / f"{index:03d}.json"
            path.write_text(_config_text(command.config), encoding="utf-8")
            argv[argv.index("CONFIG")] = str(path)
        argvs.append(argv)
    return argvs
