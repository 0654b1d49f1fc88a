"""Calibration of the fast tier against the cycle engine.

One calibration pass runs the fig12 *effective-cell* grid (each
hierarchy x suite: baseline, FMR, Hetero-DMR @ {800, 600},
Hetero-DMR+FMR @ {800, 600} — 6 simulations, 72 on the full grid) on
the cycle engine, then fits, per (suite, hierarchy):

1. the **slope** — how much of the timing-feature delta surfaces as
   runtime — estimated by least squares over the 800-vs-600 margin
   pairs: ``slope = sum(dt * dx) / sum(dx * dx)`` (clamped
   nonnegative), where ``dt``/``dx`` are the within-design runtime and
   feature deltas.  Margin ordering in the fast tier therefore comes
   from measured physics, never from per-margin lookup; and
2. one additive **intercept residual** per effective design — the mean
   runtime the memory-time feature does not explain (compute, overlap,
   queueing).  Anchoring at the design's margin *mean* keeps the
   per-margin predictions honest extrapolations.

The result persists as a **versioned artifact**
(``benchmarks/perf/fastmodel_calibration.json``): the payload carries
a SHA-256 checksum, and a *grid hash* binds it to the exact grid
specification — suites, hierarchy geometry, designs x margins, trace
length and seed, the spec timing, and the model's physical constants.
Loading refuses a corrupt payload and refuses a *stale* artifact whose
grid hash no longer matches what the current code would calibrate
against, so a silently drifted constant cannot keep serving old
numbers.

Everything here is pure Python floats, so the artifact is
bit-identical across hosts with and without numpy — CI runs without
numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..cache.hierarchy import HIERARCHIES
from ..dram.backend import get_backend, resolve_backend
from ..dram.frequency import TRANSITION_NS
from ..dram.rank import BANKS_PER_RANK
from ..workloads.registry import suite_names
from .model import (MODEL_VERSION, FastModelError, evaluate, features,
                    read_timing, write_timing)

#: Bump when the artifact schema changes.  v4: the grid is keyed by
#: memory backend (spec timing, margin rungs, and rank topology come
#: from :mod:`repro.dram.backend`), and the artifact records which
#: backend it was fitted for.
CALIBRATION_VERSION = 4

#: Trace length the committed artifact is calibrated at.  Matches the
#: sweep default: long enough that the cycle engine shows the figures'
#: qualitative behavior (at very short traces Hetero-DMR has not
#: amortized its replication-halved bank parallelism and actually
#: loses to the baseline).
GRID_REFS_PER_CORE = 3000

#: Grid seed (the figure benches' default).
GRID_SEED = 12345

#: Effective designs x margins of the DDR4 calibration grid.  None
#: means the design never leaves spec timing (margin inert).  Other
#: backends substitute their own margin rungs — see
#: :func:`grid_designs`.
GRID_DESIGNS: Tuple[Tuple[str, Tuple[Optional[int], ...]], ...] = (
    ("baseline", (None,)),
    ("fmr", (None,)),
    ("hetero-dmr", (800, 600)),
    ("hetero-dmr+fmr", (800, 600)),
)


def grid_designs(backend: Optional[str] = None
                 ) -> Tuple[Tuple[str, Tuple[Optional[int], ...]], ...]:
    """The calibration grid's designs x margins for ``backend`` (the
    margin rungs are the backend's node-group buckets)."""
    buckets = get_backend(backend).margin_buckets
    return (
        ("baseline", (None,)),
        ("fmr", (None,)),
        ("hetero-dmr", tuple(buckets)),
        ("hetero-dmr+fmr", tuple(buckets)),
    )

#: Default artifact location, relative to the repo root.
DEFAULT_ARTIFACT = Path("benchmarks") / "perf" / "fastmodel_calibration.json"

#: Environment override for the artifact path.
ARTIFACT_ENV_VAR = "REPRO_CALIBRATION"

#: NodeResult count fields stored per cell, normalized per core-ref.
_COUNT_FIELDS = (
    ("reads_n", "dram_reads"),
    ("writes_n", "dram_writes"),
    ("bursts_n", "dram_write_bursts"),
    ("cleaning_n", "cleaning_writes"),
    ("rewrites_n", "cleaned_rewrites"),
    ("entries_n", "write_mode_entries"),
    ("activates_n", "activates"),
    ("refreshes_n", "refreshes"),
    ("transitions_n", "transitions"),
    ("instructions_n", "instructions"),
)

#: NodeResult rate fields copied per cell verbatim.
_RATE_FIELDS = ("mean_read_latency_ns", "bus_utilization",
                "row_hit_rate", "llc_miss_rate")


class CalibrationError(ValueError):
    """Base class for calibration-artifact problems."""


class CorruptCalibrationError(CalibrationError):
    """The artifact's payload checksum does not verify."""


class StaleCalibrationError(CalibrationError):
    """The artifact was calibrated against a different grid than the
    current code defines."""


class CalibrationMissingError(FastModelError):
    """The requested cell is outside the calibrated grid."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_spec(suites: Tuple[str, ...], hierarchies: Tuple[str, ...],
              refs_per_core: int, seed: int,
              backend: Optional[str] = None) -> dict:
    """The complete grid specification the hash binds the artifact to.

    Everything that can change a calibrated number is in here: if a
    timing constant, hierarchy geometry, backend profile, or model
    constant moves, the recomputed spec hash diverges from the stored
    one and the artifact is refused as stale.
    """
    backend_name = resolve_backend(backend)
    backend_obj = get_backend(backend_name)
    spec = backend_obj.spec_timing()
    designs = grid_designs(backend_name)
    hier_geometry = {}
    for name in hierarchies:
        h = HIERARCHIES[name]()
        hier_geometry[name] = {
            "cores": h.cores, "channels": h.channels,
            "modules_per_channel": h.modules_per_channel,
            "ranks_per_module": h.ranks_per_module,
            "l2_bytes_per_core": h.l2_bytes_per_core,
            "l3_bytes_total": h.l3_bytes_total,
        }
    margins = sorted({m for _, ms in designs
                      for m in ms if m is not None}, reverse=True)
    margin_timing = {}
    for m in margins:
        t = read_timing("hetero-dmr", m, True, None, backend_obj)
        margin_timing[str(m)] = {
            "data_rate_mts": t.data_rate_mts, "tRCD_ns": t.tRCD_ns,
            "tRP_ns": t.tRP_ns, "tRAS_ns": t.tRAS_ns,
            "tREFI_ns": t.tREFI_ns, "tCAS_ns": t.tCAS_ns,
            "tCCD_ns": t.tCCD_ns,
        }
    return {
        "calibration_version": CALIBRATION_VERSION,
        "model_version": MODEL_VERSION,
        "backend": backend_name,
        "suites": list(suites),
        "hierarchies": hier_geometry,
        "designs": {d: list(ms) for d, ms in designs},
        "refs_per_core": refs_per_core,
        "seed": seed,
        "spec_timing": {
            "data_rate_mts": spec.data_rate_mts, "tRCD_ns": spec.tRCD_ns,
            "tRP_ns": spec.tRP_ns, "tRAS_ns": spec.tRAS_ns,
            "tREFI_ns": spec.tREFI_ns, "tCAS_ns": spec.tCAS_ns,
            "tRFC_ns": spec.tRFC_ns, "tCCD_ns": spec.tCCD_ns,
        },
        "margin_timing": margin_timing,
        "constants": {"transition_ns": TRANSITION_NS,
                      "banks_per_rank": BANKS_PER_RANK,
                      "rank_mux_factor": backend_obj.rank_mux_factor,
                      "mux_latency_ns": backend_obj.mux_latency_ns},
    }


def grid_hash(spec: dict) -> str:
    return _sha256(_canonical(spec))


def cell_id(suite: str, hierarchy: str, design: str,
            margin_mts: Optional[int]) -> str:
    return "{}|{}|{}|{}".format(suite, hierarchy, design,
                                "-" if margin_mts is None else margin_mts)


# -- the artifact -----------------------------------------------------------------------


@dataclass
class Calibration:
    """A fitted fast-model calibration (in memory or round-tripped
    through the versioned JSON artifact)."""
    grid: dict
    cells: Dict[str, dict]
    slopes: Dict[str, float]
    intercepts: Dict[str, float]
    fit_errors: Dict[str, float] = field(default_factory=dict)

    # -- lookups ------------------------------------------------------------------

    @property
    def backend(self) -> str:
        """Backend the artifact was fitted for (pre-backend artifacts
        were all DDR4)."""
        return self.grid.get("backend", "ddr4")

    def _margins_for(self, suite: str, hierarchy: str,
                     design: str) -> List[Optional[int]]:
        # Read the margins from the artifact's own grid, NOT the global
        # DDR4 constant — an MRDIMM artifact calibrates different rungs.
        margins = self.grid.get("designs", {}).get(design)
        if margins is None:
            return []
        return [m for m in margins
                if cell_id(suite, hierarchy, design, m) in self.cells]

    def lookup_cell(self, suite: str, hierarchy: str, design: str,
                    margin_mts: int) -> dict:
        """The calibrated cell serving (suite, hierarchy, design,
        margin).  Spec-only designs ignore the margin; margin designs
        snap to the nearest calibrated margin at or below the request
        (else the smallest calibrated one), so off-grid ladder rungs
        still resolve deterministically."""
        margins = self._margins_for(suite, hierarchy, design)
        if not margins:
            raise CalibrationMissingError(
                "cell {} not covered by the calibration artifact "
                "(calibrated suites: {})".format(
                    cell_id(suite, hierarchy, design, margin_mts),
                    ", ".join(self.grid.get("suites", []))))
        if margins == [None]:
            chosen: Optional[int] = None
        else:
            concrete = sorted(m for m in margins if m is not None)
            at_or_below = [m for m in concrete if m <= margin_mts]
            chosen = at_or_below[-1] if at_or_below else concrete[0]
        return self.cells[cell_id(suite, hierarchy, design, chosen)]

    def slope_for(self, suite: str, hierarchy: str) -> float:
        key = "{}|{}".format(suite, hierarchy)
        try:
            return self.slopes[key]
        except KeyError:
            raise CalibrationMissingError(
                "no slope for {} (calibrated pairs: {})".format(
                    key, ", ".join(sorted(self.slopes))))

    def intercept_for(self, suite: str, hierarchy: str,
                      design: str) -> float:
        key = "{}|{}|{}".format(suite, hierarchy, design)
        try:
            return self.intercepts[key]
        except KeyError:
            raise CalibrationMissingError(
                "no intercept for {}".format(key))

    @property
    def refs_per_core(self) -> int:
        return self.grid["refs_per_core"]

    @property
    def seed(self) -> int:
        return self.grid["seed"]

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {"cells": self.cells,
                   "slopes": self.slopes,
                   "intercepts": self.intercepts,
                   "fit_errors": self.fit_errors}
        return {
            "artifact": "fastmodel_calibration",
            "version": CALIBRATION_VERSION,
            "grid": self.grid,
            "grid_hash": grid_hash(self.grid),
            "payload": payload,
            "checksum": _sha256(_canonical(payload)),
        }

    def save(self, path: Optional[Path] = None) -> Path:
        path = Path(path) if path is not None else default_artifact_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def from_dict(cls, data: dict, verify: bool = True) -> "Calibration":
        if data.get("artifact") != "fastmodel_calibration":
            raise CalibrationError("not a fastmodel calibration artifact")
        payload = data.get("payload", {})
        if verify:
            if data.get("checksum") != _sha256(_canonical(payload)):
                raise CorruptCalibrationError(
                    "calibration payload checksum mismatch — the "
                    "artifact is corrupt; re-run `repro fastmodel "
                    "calibrate`")
            if data.get("version") != CALIBRATION_VERSION:
                raise StaleCalibrationError(
                    "calibration artifact version {} != current {}; "
                    "re-run `repro fastmodel calibrate`".format(
                        data.get("version"), CALIBRATION_VERSION))
            grid = data.get("grid", {})
            current = grid_spec(tuple(grid.get("suites", ())),
                                tuple(grid.get("hierarchies", {})),
                                grid.get("refs_per_core", 0),
                                grid.get("seed", 0),
                                grid.get("backend", "ddr4"))
            if data.get("grid_hash") != grid_hash(current):
                raise StaleCalibrationError(
                    "calibration grid hash mismatch: the artifact was "
                    "fitted against a different fig12 grid (timing, "
                    "geometry, or model constants changed); re-run "
                    "`repro fastmodel calibrate`")
        return cls(grid=data["grid"], cells=payload["cells"],
                   slopes=payload["slopes"],
                   intercepts=payload["intercepts"],
                   fit_errors=payload.get("fit_errors", {}))

    @classmethod
    def load(cls, path: Optional[Path] = None,
             verify: bool = True) -> "Calibration":
        path = Path(path) if path is not None else default_artifact_path()
        if not path.exists():
            raise CalibrationError(
                "no calibration artifact at {}; run `repro fastmodel "
                "calibrate` first".format(path))
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data, verify=verify)


def default_artifact_path() -> Path:
    """The artifact path: ``REPRO_CALIBRATION`` if set, else the
    committed artifact at the repo root (resolved relative to this
    package so it works from any working directory)."""
    env = os.environ.get(ARTIFACT_ENV_VAR, "").strip()
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / DEFAULT_ARTIFACT


_cached: Dict[Tuple[str, int], Calibration] = {}


def load_default_calibration() -> Calibration:
    """Load (and cache) the default artifact; the cache is keyed on
    path + mtime so a re-calibration is picked up without a restart."""
    path = default_artifact_path()
    try:
        mtime = path.stat().st_mtime_ns
    except OSError:
        raise CalibrationError(
            "no calibration artifact at {}; run `repro fastmodel "
            "calibrate` first".format(path))
    key = (str(path), mtime)
    if key not in _cached:
        _cached.clear()
        _cached[key] = Calibration.load(path)
    return _cached[key]


# -- fitting ----------------------------------------------------------------------------


def _cell_record(result, refs_per_core: int) -> dict:
    out = {}
    for name, attr in _COUNT_FIELDS:
        out[name] = getattr(result, attr) / refs_per_core
    for name in _RATE_FIELDS:
        out[name] = getattr(result, name)
    out["t_norm_cycle"] = result.time_ns / refs_per_core
    return out


def _cell_features(hier, design: str, margin: Optional[int],
                   record: dict, backend_obj=None) -> dict:
    from ..dram.backend import DDR4_BACKEND
    backend_obj = backend_obj or DDR4_BACKEND
    m = backend_obj.margin_buckets[0] if margin is None else margin
    return features(hier, design,
                    read_timing(design, m, True, None, backend_obj),
                    write_timing(design, None, backend_obj),
                    record["reads_n"], record["writes_n"],
                    record["row_hit_rate"], record["entries_n"],
                    backend_obj)


def run_calibration(suites: Optional[Tuple[str, ...]] = None,
                    hierarchies: Optional[Tuple[str, ...]] = None,
                    refs_per_core: int = GRID_REFS_PER_CORE,
                    seed: int = GRID_SEED,
                    backend: Optional[str] = None,
                    progress=None) -> Calibration:
    """One-shot calibration pass: run the effective-cell grid on the
    cycle engine, fit slopes and intercepts, return the artifact
    (unsaved).  ``progress`` is an optional callable fed one line per
    completed simulation."""
    from ..sim.node import NodeConfig, simulate_node
    backend_name = resolve_backend(backend)
    backend_obj = get_backend(backend_name)
    designs = grid_designs(backend_name)
    suites = tuple(suites) if suites else tuple(suite_names())
    hierarchies = (tuple(hierarchies) if hierarchies
                   else tuple(HIERARCHIES))
    spec = grid_spec(suites, hierarchies, refs_per_core, seed,
                     backend_name)
    cells: Dict[str, dict] = {}
    slopes: Dict[str, float] = {}
    intercepts: Dict[str, float] = {}
    fit_errors: Dict[str, float] = {}
    for hier_name in hierarchies:
        hier = HIERARCHIES[hier_name]()
        for suite in suites:
            pair_cells: List[Tuple[str, Optional[int], dict]] = []
            for design, margins in designs:
                for margin in margins:
                    result = simulate_node(NodeConfig(
                        suite=suite, hierarchy=hier, design=design,
                        margin_mts=backend_obj.margin_buckets[0]
                        if margin is None else margin,
                        memory_utilization=0.15,
                        refs_per_core=refs_per_core, seed=seed,
                        fidelity="cycle",
                        backend=backend_name))
                    record = _cell_record(result, refs_per_core)
                    cells[cell_id(suite, hier_name, design,
                                  margin)] = record
                    pair_cells.append((design, margin, record))
                    if progress is not None:
                        progress("calibrated {}".format(
                            cell_id(suite, hier_name, design, margin)))
            # Slope from the margin pairs: within each margin design,
            # how much of the feature delta shows up in the runtime.
            num = den = 0.0
            by_design: Dict[str, List[Tuple[Optional[int], dict]]] = {}
            for design, margin, record in pair_cells:
                by_design.setdefault(design, []).append((margin, record))
            for design, members in by_design.items():
                concrete = [(m, r) for m, r in members if m is not None]
                for (m_a, r_a), (m_b, r_b) in zip(concrete,
                                                  concrete[1:]):
                    f_a = _cell_features(hier, design, m_a, r_a,
                                         backend_obj)
                    f_b = _cell_features(hier, design, m_b, r_b,
                                         backend_obj)
                    dt = (r_b["t_norm_cycle"] - f_b["offset"]) - \
                        (r_a["t_norm_cycle"] - f_a["offset"])
                    dx = f_b["x_total"] - f_a["x_total"]
                    num += dt * dx
                    den += dx * dx
            pair_key = "{}|{}".format(suite, hier_name)
            slope = max(0.0, num / den) if den > 0.0 else 0.0
            slopes[pair_key] = slope
            # Intercepts: the design-mean unexplained time.
            worst = 0.0
            for design, members in by_design.items():
                residuals = []
                for margin, record in members:
                    feats = _cell_features(hier, design, margin, record,
                                           backend_obj)
                    residuals.append(
                        record["t_norm_cycle"]
                        - slope * feats["x_total"] - feats["offset"])
                intercepts["{}|{}|{}".format(suite, hier_name, design)] \
                    = sum(residuals) / len(residuals)
                for margin, record in members:
                    feats = _cell_features(hier, design, margin, record,
                                           backend_obj)
                    pred = evaluate(
                        intercepts["{}|{}|{}".format(suite, hier_name,
                                                     design)],
                        slope, feats)
                    worst = max(worst, abs(pred - record["t_norm_cycle"])
                                / record["t_norm_cycle"])
            fit_errors[pair_key] = worst
    return Calibration(grid=spec, cells=cells, slopes=slopes,
                       intercepts=intercepts, fit_errors=fit_errors)
