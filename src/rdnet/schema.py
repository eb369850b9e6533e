"""System-definition documents and result/CSV emission.

A system file is JSON with a mandatory schema_version, matrices row-major;
every value but activation.name is a JSON number, never a string or a boolean.
Reports echo the fully resolved configuration so a run is auditable from its
output alone; CSV floats are written with 17 significant digits so re-runs
are bitwise comparable.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .geometry import Grid, RectDomain
from .model import Activation, Mode, SwitchedNetwork

SCHEMA_VERSION = 1
FLOAT_FMT = "%.17g"


class SystemFileError(ValueError):
    """Malformed or unsupported system-definition document."""


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SystemFileError(f"missing '{key}' in {where}")
    return doc[key]


def _known_keys(doc, where: str, *keys) -> None:
    if not isinstance(doc, dict):
        raise SystemFileError(f"{where} must be an object")
    unknown = [k for k in doc if k not in keys]
    if unknown:
        raise SystemFileError(f"unknown keys {unknown} in {where}, expected {list(keys)}")


def _numbers_only(node, where: str) -> None:
    """Raise unless every leaf under node is an int or a float (a bool is
    neither); activation.name is the one string a system file holds."""
    if isinstance(node, dict):
        for key, value in node.items():
            if (where, key) != ("activation", "name"):
                _numbers_only(value, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _numbers_only(value, f"{where}[{i}]")
    elif type(node) not in (int, float):
        raise SystemFileError(f"{where} is {json.dumps(node)}, not a number")


def load_system(path) -> tuple[SwitchedNetwork, Grid]:
    """Parse a system-definition file into a network and its grid."""
    path = Path(path)

    def reject(name):
        raise SystemFileError(f"{path}: {name} is not a JSON number")

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise SystemFileError(f"{path}: {text} overflows a float")
        return value
    try:
        doc = json.loads(path.read_text(), parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SystemFileError(f"{path}: top level must be an object")
    try:
        _numbers_only(doc, "")
        return _parse_system(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SystemFileError(f"{path}: {exc}") from exc


def _parse_system(doc: dict) -> tuple[SwitchedNetwork, Grid]:
    version = _require(doc, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise SystemFileError(f"unsupported schema_version {version}")
    _known_keys(doc, "document", "schema_version", "modes", "activation", "delay",
                "Psi", "q", "gamma", "grid")
    act_doc = _require(doc, "activation", "document")
    _known_keys(act_doc, "activation", "name", "params", "lipschitz")
    mode_docs = _require(doc, "modes", "document")
    if not isinstance(mode_docs, list) or not mode_docs:
        raise SystemFileError("'modes' must be a non-empty list")
    n = len(mode_docs[0]["J"])
    params = act_doc.get("params", {})
    if not isinstance(params, dict):
        raise SystemFileError("activation 'params' must be an object")
    lipschitz = act_doc.get("lipschitz", 1.0)
    if np.isscalar(lipschitz):
        lipschitz = [lipschitz] * n
    activation = Activation(act_doc["name"], params, tuple(float(g) for g in lipschitz))

    modes = []
    for mdoc in mode_docs:
        _known_keys(mdoc, "mode", "D", "C", "A", "B", "J", "domain")
        domain = RectDomain(tuple(float(l) for l in _require(mdoc, "domain", "mode")))
        modes.append(Mode(
            D=np.asarray(mdoc["D"], float), C=np.asarray(mdoc["C"], float),
            A=np.asarray(mdoc["A"], float), B=np.asarray(mdoc["B"], float),
            J=np.asarray(mdoc["J"], float), domain=domain))

    delay = doc.get("delay", {})
    _known_keys(delay, "delay", "tau_max")
    network = SwitchedNetwork(
        modes=tuple(modes), activation=activation,
        tau_max=float(delay.get("tau_max", 0.0)),
        Psi=np.asarray(_require(doc, "Psi", "document"), float),
        q=float(doc.get("q", 1.00001)),
        gamma=float(doc.get("gamma", 0.1)))

    counts = tuple(doc.get("grid", (101,) * modes[0].domain.dims))
    if not all(type(c) is int for c in counts):
        raise SystemFileError(f"grid counts must be integers, got {list(counts)}")
    grid = Grid(modes[0].domain, counts)
    return network, grid


def dump_system(network: SwitchedNetwork, grid: Grid) -> dict:
    """Inverse of load_system."""
    act = network.activation
    return {
        "schema_version": SCHEMA_VERSION,
        "modes": [
            {"D": m.D.tolist(), "C": m.C.tolist(), "A": m.A.tolist(),
             "B": m.B.tolist(), "J": m.J.tolist(),
             "domain": list(m.domain.lengths)}
            for m in network.modes
        ],
        "activation": {"name": act.name, "params": dict(act.params),
                       "lipschitz": list(act.lipschitz)},
        "delay": {"tau_max": network.tau_max},
        "Psi": network.Psi.tolist(),
        "q": network.q,
        "gamma": network.gamma,
        "grid": list(grid.counts),
    }


def write_report(path, payload: dict) -> None:
    """Strict JSON, keys sorted: every non-finite float is written as null."""
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_trajectory_csv(path, trajectory) -> None:
    """Columns t, V, sqrtV, mode, switches_so_far; floats in FLOAT_FMT."""
    switches = np.cumsum(np.concatenate([[0], np.diff(trajectory.modes) != 0]))
    row = f"{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT},%d,%d\n"
    with open(path, "w") as fh:
        fh.write("t,V,sqrtV,mode,switches_so_far\n")
        for t, v, m, s in zip(trajectory.times, trajectory.V, trajectory.modes,
                              switches):
            fh.write(row % (t, v, np.sqrt(max(v, 0.0)), m, s))


def write_field_csv(path, grid: Grid, field: np.ndarray) -> None:
    """Columns x[,y],component,value for a (n, *grid.shape) field.

    Nodes run in C order (the last axis fastest). Each grid line is one
    template, prefix + (row + prefix).join(last-axis coordinates) + row,
    filled by one % call; the prefix is the line's leading coordinates and
    a comma (empty in 1-D), so the working memory is one line.
    """
    field = np.asarray(field, float)
    if field.ndim == grid.domain.dims:
        field = field[None]
    axes = [[FLOAT_FMT % x for x in axis.tolist()] for axis in grid.axes()]
    prefixes = ["".join(x + "," for x in h) for h in itertools.product(*axes[:-1])]
    with open(path, "w") as fh:
        header = "x,y" if grid.domain.dims == 2 else "x"
        fh.write(f"{header},component,value\n")
        for comp in range(field.shape[0]):
            row = f",{comp},{FLOAT_FMT}\n"
            for prefix, values in zip(prefixes, field[comp].reshape(len(prefixes), -1)):
                line = prefix + (row + prefix).join(axes[-1]) + row
                fh.write(line % tuple(values.tolist()))
