"""System-definition documents and result/CSV emission.

A system file is JSON with a mandatory schema_version, matrices row-major.
Reports echo the fully resolved configuration so a run is auditable from its
output alone; CSV floats are written with 17 significant digits so re-runs
are bitwise comparable.
"""

from __future__ import annotations

import itertools
import json
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


def load_system(path) -> tuple[SwitchedNetwork, Grid]:
    """Parse a system-definition file into a network and its grid."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SystemFileError(f"{path}: top level must be an object")
    version = _require(doc, "schema_version", str(path))
    if version != SCHEMA_VERSION:
        raise SystemFileError(f"{path}: unsupported schema_version {version}")
    try:
        return _parse_system(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemFileError(f"{path}: {exc}") from exc


def _parse_system(doc: dict) -> tuple[SwitchedNetwork, Grid]:
    act_doc = _require(doc, "activation", "document")
    mode_docs = _require(doc, "modes", "document")
    if not isinstance(mode_docs, list) or not mode_docs:
        raise SystemFileError("'modes' must be a non-empty list")
    n = len(mode_docs[0]["J"])
    lipschitz = act_doc.get("lipschitz", 1.0)
    if np.isscalar(lipschitz):
        activation = Activation.uniform(act_doc["name"], act_doc.get("params", {}),
                                        float(lipschitz), n)
    else:
        specs = [(act_doc["name"], act_doc.get("params", {}), float(g))
                 for g in lipschitz]
        activation = Activation.per_neuron(specs)

    modes = []
    for mdoc in mode_docs:
        domain = RectDomain(tuple(float(l) for l in _require(mdoc, "domain", "mode")))
        modes.append(Mode(
            D=np.asarray(mdoc["D"], float), C=np.asarray(mdoc["C"], float),
            A=np.asarray(mdoc["A"], float), B=np.asarray(mdoc["B"], float),
            J=np.asarray(mdoc["J"], float), domain=domain))

    delay = doc.get("delay", {})
    network = SwitchedNetwork(
        modes=tuple(modes), activation=activation,
        tau_max=float(delay.get("tau_max", 0.0)),
        Psi=np.asarray(_require(doc, "Psi", "document"), float),
        q=float(doc.get("q", 1.00001)),
        gamma=float(doc.get("gamma", 0.1)))

    counts = tuple(int(c) for c in doc.get("grid", (101,) * modes[0].domain.dims))
    grid = Grid(modes[0].domain, counts)
    return network, grid


def dump_system(network: SwitchedNetwork, grid: Grid) -> dict:
    """Inverse of load_system; one activation name and params for all neurons."""
    act = network.activation
    if not act.is_uniform:
        raise ValueError("system files hold one activation name and params for all neurons")
    return {
        "schema_version": SCHEMA_VERSION,
        "modes": [
            {"D": m.D.tolist(), "C": m.C.tolist(), "A": m.A.tolist(),
             "B": m.B.tolist(), "J": m.J.tolist(),
             "domain": list(m.domain.lengths)}
            for m in network.modes
        ],
        "activation": {"name": act.names[0], "params": dict(act.params[0]),
                       "lipschitz": list(act.lipschitz)},
        "delay": {"tau_max": network.tau_max},
        "Psi": network.Psi.tolist(),
        "q": network.q,
        "gamma": network.gamma,
        "grid": list(grid.counts),
    }


def write_report(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and obj != obj:  # NaN
        return None
    return obj


def write_trajectory_csv(path, trajectory) -> None:
    """Columns t, V, sqrtV, mode, switches_so_far; 17 significant digits."""
    switches = np.cumsum(np.concatenate([[0], np.diff(trajectory.modes) != 0]))
    with open(path, "w") as fh:
        fh.write("t,V,sqrtV,mode,switches_so_far\n")
        for t, v, m, s in zip(trajectory.times, trajectory.V, trajectory.modes,
                              switches):
            fh.write(f"{t:.17g},{v:.17g},{np.sqrt(max(v, 0.0)):.17g},{m},{s}\n")


def write_field_csv(path, grid: Grid, field: np.ndarray) -> None:
    """Columns x[,y],component,value for a (n, *grid.shape) field.

    Nodes run in C order (the last axis fastest); each coordinate is
    formatted once and rows are streamed, never joined into one string.
    """
    field = np.asarray(field, float)
    if field.ndim == grid.domain.dims:
        field = field[None]
    axes = [[f"{x:.17g}" for x in axis.tolist()] for axis in grid.axes()]
    coords = [",".join(node) for node in itertools.product(*axes)]
    with open(path, "w") as fh:
        header = "x,y" if grid.domain.dims == 2 else "x"
        fh.write(f"{header},component,value\n")
        for comp in range(field.shape[0]):
            fh.writelines(f"{c},{comp},{v:.17g}\n"
                          for c, v in zip(coords, field[comp].ravel().tolist()))
