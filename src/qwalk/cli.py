"""The ``qwalk`` command: configure runs, execute walks and sweeps, verify
the two-walker/2D equivalence, and emit distributions and summaries.

Subcommands
-----------
``qwalk run --config cfg.json [--steps N --phi PHI --defect KIND --out DIR]``
    Run one walk; write the final distribution (CSV), optional per-step
    distributions, and a JSON summary.
``qwalk sweep --config cfg.json [--phi PHI --defect KIND --out DIR ...]``
    Run the walk once per grid point (phase values and/or defect kinds);
    write one table row per point.  ``--phi``/``--defect`` make that axis
    of the grid one value.
``qwalk isocheck [--config cfg.json --halfwidth L --trials N --seed S --out DIR]``
    Verify the step-operator equivalence on random shared coins and probe
    the coin-decomposition parameter claims; write a JSON report.

Each flag sets the config key it names (``--out`` sets ``out_dir``) and
beats the config's value.  Angles anywhere in a config may be plain
radians or strings like ``"pi:0.75"`` (multiples of pi, avoiding
decimal-pi drift).  Exit codes: 0 success, 1 validation error, 2 runtime
error.  Outputs are byte-stable for a fixed config and seed, except the
``timing_seconds`` field of run summaries.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import math
import os
import sys
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

# Loading numpy starts OpenBLAS's pool at the host's core count, and an idle
# worker spins for 60-80 ms of CPU, although `threads` defaults to 1 and
# _pool grows the pool only for a walk whose GEMMs OpenBLAS can split.  So,
# unless numpy is loaded or a variable OpenBLAS reads names a count, start it
# at one thread, then give the environment back.
if "numpy" not in sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
import numpy as np

from .analysis import (Distribution, WalkSummary, _placed, distribution, l1_distance, summarize,
                       summarize_stack)
from .coins import fractional_swap, hadamard, su2_from_angles, tensor
from .evolution import MAX_MATRIX_DIM, DefectMap, WalkSpec, _guarded, _residual, _stacks
# Unused here, as are distribution and summarize: perfbench/spans.py WRAPPED patches them.
from .evolution import evolve
from .statespace import _integer
from .isomorphism import (check_decomposition_claims, check_translation_equivalence,
                          random_shared_coin, verify_isomorphism)

__all__ = ["main"]

ISO_TOL = 1e-12
DEFAULT_SEED = 7
DEFAULT_STEP_CAP = 2000
# Cap on the lattice sites (2L+1)^d of a run or sweep, checked before
# anything is allocated.  2^24 admits a 2D walk of DEFAULT_STEP_CAP steps
# at its default halfwidth (4001^2 sites).
MAX_LATTICE_SITES = 1 << 24
# Cap on isocheck trials; one takes ~1.7 ms at L = 31, the largest admitted.
MAX_TRIALS = 10_000
# Cap on a sweep's grid points (phases x defect kinds), checked before any is built.
MAX_SWEEP_POINTS = 10_000
# Cap on ``threads``: 64, the MAX_THREADS of numpy's bundled OpenBLAS (which
# clamps a larger count itself), or the host's CPU count where that is larger.
MAX_THREADS = max(64, os.cpu_count() or 1)
# A 2D start within this of rank 1 (|det| of its [c, d] table) runs as a product
# a(x)b, which moves an amplitude by about |det|.  JSON-rounded products: ~1e-17.
_RANK1_TOL = 1e-15


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key."""


# The keys a config object's reader uses, by kind; any other key exits 1 (a
# misspelt one would run another walk).  One top-level set serves all commands.
_CONFIG_KEYS = {
    "dimensionality", "steps", "halfwidth", "coin", "defect", "initial", "boundary", "out_dir",
    "formats", "emit_per_step", "reference", "threads", "max_steps", "sweep", "trials", "seed",
}
_COIN_KEYS = {"hadamard": {"kind"}, "identity": {"kind"}, "su2": {"kind", "theta", "psi", "phi"},
              "tensor": {"kind", "first", "second"}, "fractional_swap": {"kind", "tau"}}
_DEFECT_KEYS = {"none": {"kind", "phi"}, "line_y": {"kind", "phi"}, "cross_xy": {"kind", "phi"},
                "point": {"kind", "phi"}, "custom": {"kind", "phi", "table"}}
# The defect kinds that take a phase; the others take "phi" only as 0.0, their echo.
_PHASED = ("line_y", "cross_xy", "point")


def _check_keys(obj: dict, keys: set[str], where: str) -> None:
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}; expected one of {sorted(keys)}")


def _count(value: Any, key: str, lo: int, hi: int | None = None) -> int:
    """An integer in lo..hi (unbounded above if hi is None); not a bool or a float."""
    try:
        n = _integer(value, key)
        if n < lo or (hi is not None and n > hi):
            raise ValueError
    except ValueError:
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ConfigError(f"{key}: must be an integer {bounds}, got {value!r}") from None
    return n


def _max_halfwidth(sites: int, dimensionality: int) -> int:
    """The largest L whose lattice (2L+1)^d has at most ``sites`` sites."""
    return ((sites if dimensionality == 1 else math.isqrt(sites)) - 1) // 2


def _number(value: Any, key: str) -> float:
    """A finite float from a JSON number; not a bool, inf, nan, or an
    integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{key}: integer too large for a float") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return x


def parse_angle(value: Any, key: str) -> float:
    """Radians from a number or a 'pi:<multiplier>' string."""
    if isinstance(value, str) and value.startswith("pi:"):
        try:
            return _number(float(value[3:]) * math.pi, key)
        except ValueError:  # no number, or no finite angle
            raise ConfigError(f"{key}: bad pi-multiple {value!r}") from None
    return _number(value, key)


def _parse_coin(cfg: Any, dimensionality: int) -> tuple[np.ndarray, Any]:
    """The coin and its config form: angles in radians, defaults filled in."""
    key = "coin"
    if cfg is None or cfg == "hadamard":
        h = hadamard()
        return (h if dimensionality == 1 else tensor(h, h)), "hadamard"
    if cfg == "identity":
        return np.eye(2 if dimensionality == 1 else 4, dtype=np.complex128), "identity"
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{key}: expected 'hadamard', 'identity', or an object with 'kind'")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _COIN_KEYS:
        raise ConfigError(f"{key}.kind: unknown coin kind {kind!r}")
    _check_keys(cfg, _COIN_KEYS[kind], key)
    if kind == "hadamard" or kind == "identity":
        return _parse_coin(kind, dimensionality)
    if kind == "su2":
        if dimensionality != 1:
            raise ConfigError(f"{key}: 'su2' is a 1D coin")
        angles = {k: parse_angle(cfg.get(k, 0.0), f"coin.{k}") for k in ("theta", "psi", "phi")}
        return su2_from_angles(**angles), {"kind": kind, **angles}
    if kind == "tensor":
        if dimensionality != 2:
            raise ConfigError(f"{key}: 'tensor' is a 2D coin")
        first, first_form = _parse_coin(cfg.get("first", "hadamard"), 1)
        second, second_form = _parse_coin(cfg.get("second", "hadamard"), 1)
        return tensor(first, second), {"kind": kind, "first": first_form, "second": second_form}
    if dimensionality != 2:
        raise ConfigError(f"{key}: 'fractional_swap' is a 2D coin")
    tau = _number(cfg.get("tau"), f"{key}.tau")
    return fractional_swap(tau), {"kind": kind, "tau": tau}


def _parse_defect(cfg: Any, key: str = "defect") -> tuple[DefectMap, dict]:
    """The defect and its config form: the phase in radians (0.0 for a kind
    without one), a custom table under its sites' "x" or "x,y" keys."""
    if cfg is None or isinstance(cfg, str):
        cfg = {"kind": "none" if cfg is None else cfg}
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{key}: expected a kind string or an object with 'kind'")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _DEFECT_KEYS:
        raise ConfigError(f"{key}.kind: unknown defect kind {kind!r}")
    _check_keys(cfg, _DEFECT_KEYS[kind], key)
    phi = parse_angle(cfg.get("phi", 0.0), f"{key}.phi")
    if kind in _PHASED:
        return DefectMap(kind, phi), {"kind": kind, "phi": phi}
    if phi != 0.0:  # echoed as 0.0, so that the echo re-runs
        raise ConfigError(f"{key}.phi: a {kind!r} defect takes no phase, got {phi!r}")
    form: dict[str, Any] = {"kind": kind, "phi": 0.0}
    if kind == "none":
        return DefectMap.none(), form
    table_cfg = cfg.get("table")
    if not isinstance(table_cfg, dict):
        raise ConfigError(f"{key}.table: expected an object of site -> phase")
    table: dict = {}
    form["table"] = {}
    for site, phase in table_cfg.items():
        parts = site.split(",")
        try:
            coords = [int(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{key}.table: bad site key {site!r}") from None
        k = coords[0] if len(coords) == 1 else tuple(coords)
        if k in table:  # "1,0" and "01,0" are one site
            raise ConfigError(f"{key}.table: lists site {k} twice")
        theta = parse_angle(phase, f"{key}.table[{site}]")
        table[k] = form["table"][",".join(map(str, coords))] = theta
    return DefectMap.custom(table), form


def _parse_initial(cfg: Any):
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("initial: expected an object")
    _check_keys(cfg, {"position", "coin"}, "initial")
    coin = cfg.get("coin", "symmetric")
    if coin == "symmetric":
        coin_vec = None  # WalkSpec default
    elif isinstance(coin, list) and all(isinstance(c, list) and len(c) == 2 for c in coin):
        coin_vec = [complex(*(_number(v, "initial.coin") for v in c)) for c in coin]
    else:
        raise ConfigError(
            f"initial.coin: expected 'symmetric' or a list of [re, im] number pairs, got {coin!r}"
        )
    return cfg.get("position"), coin_vec


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    # json keeps the last of a repeated key silently, at any depth.
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config: key {key!r} is given twice")
        obj[key] = value
    return obj


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    except ConfigError:
        raise
    except ValueError as e:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config: invalid JSON in {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    _check_keys(cfg, _CONFIG_KEYS, "config")
    return cfg


def _spec(memo: dict, **values: Any) -> WalkSpec:
    """``WalkSpec(**values)``, checked, built once in ``memo`` for equal ``values``
    (an array by its bytes, anything else by its repr: -0.0 is not 0.0)."""
    key = tuple(v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in values.values())
    if key not in memo:
        try:
            memo[key] = WalkSpec(**values)
        except (ValueError, IndexError, OverflowError) as e:
            raise ConfigError(f"config: {e}") from None
    return memo[key]


def _walk(cfg: dict) -> tuple[WalkSpec, dict]:
    """The walk of a ``run``/``sweep`` config, and its echo: the config
    resolved from the checked values, which runs the same walk again."""
    dimensionality = _count(cfg.get("dimensionality", 2), "dimensionality", 1, 2)
    cap = _count(cfg.get("max_steps", DEFAULT_STEP_CAP), "max_steps", 0, DEFAULT_STEP_CAP)
    coin, coin_form = _parse_coin(cfg.get("coin"), dimensionality)
    defect, defect_form = _parse_defect(cfg.get("defect"))
    position, coin_vec = _parse_initial(cfg.get("initial"))
    # The caps are checked before anything of the lattice is allocated.
    steps = _count(cfg.get("steps", 10), "steps", 0, cap)
    halfwidth = cfg.get("halfwidth")  # null: WalkSpec's default, which fits the cap
    if halfwidth is not None:
        hi = _max_halfwidth(MAX_LATTICE_SITES, dimensionality)
        halfwidth = _count(halfwidth, "halfwidth", 1, hi)
    spec = _spec({}, dimensionality=dimensionality, steps=steps, coin=coin, defect=defect,
                 initial_position=position, initial_coin=coin_vec,
                 boundary=cfg.get("boundary", "open"), halfwidth=halfwidth)
    pairs = [[z.real, z.imag] for z in map(complex, spec.initial_coin)]  # type: ignore[arg-type]
    echo = {
        "dimensionality": dimensionality,
        "steps": steps,
        "halfwidth": spec.halfwidth,
        "boundary": spec.boundary,
        "coin": coin_form,
        "defect": defect_form,
        "initial": {"position": spec.initial_position, "coin": pairs},
        "threads": cfg.get("threads", 1),  # checked by main
    }
    return spec, echo


_PRINT_FLOOR = 1e-15  # output-side clamp: smaller probabilities print as 0


def _format_prob(p: float) -> str:
    return f"{0.0 if p < _PRINT_FLOOR else p:.12g}"


def write_distribution_csv(path: Path, dist: Distribution) -> None:
    # csv.writer's bytes, one write per x-row: a copy of the all-zero row's
    # "y,0" tails, with only the sites at or above the floor formatted.
    labels = [f"{x}," for x in dist.positions().tolist()]
    inner = labels if dist.dimensionality == 2 else [""]
    zeros = [y + "0\r\n" for y in inner]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("x,y,p\r\n" if dist.dimensionality == 2 else "x,p\r\n")
        for x, row in zip(labels, dist.probs.reshape(len(labels), -1)):
            cells = zeros.copy()
            shown = np.flatnonzero(row >= _PRINT_FLOOR)
            for j, v in zip(shown.tolist(), row[shown].tolist()):
                cells[j] = f"{inner[j]}{v:.12g}\r\n"
            f.write(x + x.join(cells))  # x,y,p per line


def read_distribution_csv(path: str) -> Distribution:
    """Parse a distribution CSV with header ``x,p`` or ``x,y,p``, row by row
    into typed arrays (8 bytes a number)."""
    from array import array  # here, not at import: only a reference needs it

    coords, probs, far = array("q"), array("d"), 0  # far: the largest |coordinate|
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = csv.reader(f)
            header = next(rows, None)
            if header not in (["x", "p"], ["x", "y", "p"]):
                raise ConfigError(f"reference: {path} must have header 'x,p' or 'x,y,p'")
            dim = len(header) - 1
            for line, row in enumerate(rows, start=2):
                if not row:
                    continue
                try:
                    if len(row) != dim + 1:
                        raise ValueError
                    site = [int(v) for v in row[:dim]]
                    probs.append(float(row[dim]))
                except ValueError:
                    raise ConfigError(
                        f"reference: {path} line {line}: expected {dim + 1} numbers, got {row!r}"
                    ) from None
                far = max(far, *map(abs, site))
                if far <= MAX_LATTICE_SITES:  # else past the cap below, and maybe past int64
                    coords.extend(site)
    except OSError as e:
        raise ConfigError(f"reference: cannot read {path}: {e}") from None
    if not probs:
        raise ConfigError(f"reference: {path} contains no data rows")
    n = 2 * far + 1
    if n**dim > MAX_LATTICE_SITES:  # checked before the lattice is allocated
        raise ConfigError(
            f"reference: {path} has a coordinate of magnitude {far}; its lattice "
            f"would be above the cap of {MAX_LATTICE_SITES} sites"
        )
    flat = np.ravel_multi_index(np.reshape(coords, (-1, dim)).T + far, (n,) * dim)
    again = np.ones(flat.size, dtype=bool)
    again[np.unique(flat, return_index=True)[1]] = False  # all but each site's first row
    if again.any():
        i = int(np.argmax(again))
        raise ConfigError(f"reference: {path} lists site {tuple(coords[i * dim:][:dim])} twice")
    grid = np.zeros(n**dim)
    grid[flat] = probs
    try:
        return Distribution(grid.reshape((n,) * dim), far)
    except ValueError as e:
        raise ConfigError(f"reference: {path}: {e}") from None


def _make_out_dir(value: Any) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"out_dir: expected a directory path, got {value!r}")
    out_dir = Path(value)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out_dir: cannot create {value}: {e}") from None
    return out_dir


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@functools.cache
def _openblas() -> list[tuple[Any, Any]]:
    """The thread-count getter and setter of each OpenBLAS loaded in this
    process (numpy's among them), found through Linux's /proc/self/maps."""
    names = [f"{p}openblas_%s_num_threads{s}" for p in ("scipy_", "") for s in ("64_", "")]
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:  # no /proc (another OS), or a mapped file that will not load
        return []
    # ctypes' defaults fit: each takes and returns a C int.
    return [(getattr(lib, n % "get"), getattr(lib, n % "set"))
            for lib in libs for n in names if hasattr(lib, n % "set")]


@contextmanager
def _blas_threads(threads: int) -> Iterator[None]:
    """Run the block with every OpenBLAS on ``threads`` threads, then give
    each its own count back (none found: the BLAS keeps its own)."""
    controls = _openblas()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(threads)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


def _pool(cfg: dict, walks: Iterable[WalkSpec]) -> AbstractContextManager[None]:
    """``_blas_threads`` of ``cfg``'s ``threads`` (checked by main) if one of ``walks``
    steps alone (the 2D kernel, or a periodic walk), else a block that leaves every
    OpenBLAS as it is: an open 1D walk's GEMM, (t+1) x 2 @ 2 x 2, is below the
    size OpenBLAS splits, so a thread could only spin through it."""
    if any(w.dimensionality == 2 or w.boundary == "periodic" for w in walks):
        return _blas_threads(cfg.get("threads", 1))
    return nullcontext()


def _factors(spec: WalkSpec, coin_form: Any, memo: dict) -> Callable[[DefectMap], tuple]:
    """The walks of ``spec`` under a defect: ``(fx, fy)``, 1D walks along x and y
    whose product is the walk (a coin A(x)B: hadamard, identity, tensor; a phase
    g(x)h(y): none, line_y, cross_xy; a start a(x)b), else that walk; the split is
    worked out once, from checked values, and each walk is :func:`_spec` once."""
    if coin_form in ("hadamard", "identity"):  # A(x)A
        coin_form = {"kind": "tensor", "first": coin_form, "second": coin_form}
    same = {f.name: getattr(spec, f.name) for f in fields(spec) if f.init}
    m, axes = np.reshape(spec.initial_coin, (2, -1)), []  # 2D: [c, d], c steers x, d steers y
    if (spec.dimensionality == 2 and coin_form["kind"] == "tensor"
            and abs(np.linalg.det(m)) <= _RANK1_TOL):
        rows = np.linalg.norm(m, axis=1)
        b = m[np.argmax(rows)] / rows.max()  # the longer row is a multiple of b
        coins = [_parse_coin(coin_form[k], 1)[0] for k in ("first", "second")]
        axes = [{**same, "dimensionality": 1, "coin": c, "initial_position": x0, "initial_coin": a}
                for c, x0, a in zip(coins, spec.initial_position, (m @ b.conj(), b))]

    def walks(defect: DefectMap) -> tuple[WalkSpec, ...]:
        if not axes or defect.kind not in ("none", "line_y", "cross_xy"):
            return (spec if defect is spec.defect else _spec(memo, **{**same, "defect": defect}),)
        none, point = DefectMap.none(), DefectMap.point(defect.phi)
        defects = {"none": (none, none), "line_y": (none, point), "cross_xy": (point, point)}
        return tuple(_spec(memo, **{**a, "defect": d}) for a, d in zip(axes, defects[defect.kind]))
    return walks


def _summary(summaries: tuple[WalkSummary, ...]) -> WalkSummary:
    """The summary of the product of ``summaries``' walks (one walk is its own
    product): P(origin) px(0) py(0), and each factor's variances in order."""
    variances = [v for s in summaries for v in (s.variance_x, s.variance_y) if v is not None]
    return WalkSummary(summaries[0].step, math.prod(s.recurrence for s in summaries), *variances)


def _distribution(stacks: list) -> Distribution:
    """The distribution of the walk of ``stacks``, or of two 1D walks' product, checked:
    each walk's row of its stack's ``probs``, which the step guard has summed, placed."""
    px, *py = (_placed(p, grid) for stack in stacks for p, grid in zip(stack.probs, stack.grids))
    return Distribution(np.outer(px.probs, py[0].probs), px.halfwidth) if py else px


def cmd_run(cfg: dict) -> int:
    spec, echo = _walk(cfg)
    formats = cfg.get("formats", ["csv", "json"])
    if not (isinstance(formats, list) and formats and all(f in ("csv", "json") for f in formats)):
        raise ConfigError(f"formats: expected a nonempty list of csv/json, got {formats!r}")
    emit_per_step = cfg.get("emit_per_step", False)
    if not isinstance(emit_per_step, bool):
        raise ConfigError(f"emit_per_step: expected true or false, got {emit_per_step!r}")
    ref_path = cfg.get("reference")
    if not isinstance(ref_path, (str, type(None))):
        raise ConfigError(f"reference: expected a file path, got {ref_path!r}")
    reference = None if ref_path is None else read_distribution_csv(ref_path)
    if reference is not None and reference.dimensionality != spec.dimensionality:
        raise ConfigError(f"reference: {ref_path} is {reference.dimensionality}D, "
                          f"the walk is {spec.dimensionality}D")
    out_dir = _make_out_dir(cfg.get("out_dir", "."))

    t0 = time.perf_counter()
    per_step: list[dict] = []
    walks = _factors(spec, echo["coin"], {})(spec.defect)
    stacks = list(_stacks(walks))  # x, then y
    with _pool(cfg, walks):
        for t, norms in enumerate(_guarded(stacks, spec.steps), start=1):
            s = _summary([w for k in stacks for w in summarize_stack(t, k.probs, k.coordinates)])
            norm = math.prod(np.concatenate(norms).tolist())  # 1 * n is n: one norm keeps its bits
            per_step.append({**vars(s), "norm_residual": float(_residual(norm, t))})
            if emit_per_step and "csv" in formats:
                write_distribution_csv(out_dir / f"step_{t:04d}.csv", _distribution(stacks))
    elapsed = time.perf_counter() - t0

    final_dist = _distribution(stacks) if "csv" in formats or reference is not None else None
    if "csv" in formats:
        write_distribution_csv(out_dir / "distribution.csv", final_dist)
    last = per_step[-1] if per_step else {}  # a walk of no steps: all null
    final = {k: last.get(k) for k in ("recurrence", "variance_x", "variance_y")}
    final["s_t"] = None if reference is None else l1_distance(final_dist, reference)
    if "json" in formats:
        summary = {"config": echo, "per_step": per_step, "final": final, "timing_seconds": elapsed}
        _write_json(out_dir / "summary.json", summary)
    if per_step:
        print(f"steps={spec.steps} P(origin)={final['recurrence']:.6f} out={out_dir}")
    else:
        print(f"steps=0 (initial state only) out={out_dir}")
    return 0


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> None:
    """Write every flag given on the command line into ``cfg``, under the
    config key it sets; a flag beats the config.  On a sweep, ``--defect``
    and ``--phi`` replace the grid's axis; on a run they edit ``defect``."""
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "config")}
    kind, phi = flags.pop("defect", None), flags.pop("phi", None)
    cfg.update(flags)
    if args.command == "sweep":
        sweep = cfg.get("sweep")
        if isinstance(sweep, dict):
            sweep.update({k: [v] for k, v in (("defect", kind), ("phi", phi)) if v is not None})
        return
    if kind is not None:
        base = cfg.get("defect")
        base = base if isinstance(base, dict) else {}
        # A kind without a phase (--defect none) drops the config's phase; a
        # config defect of this kind keeps its other keys (a custom table).
        phi0 = base.get("phi", 0.0) if kind in _PHASED else 0.0
        same = base if base.get("kind") == kind else {}
        cfg["defect"] = {**same, "kind": kind, "phi": phi0}
    if phi is not None:
        base = cfg.get("defect")
        if base is None or isinstance(base, str):  # null is no defect, as _parse_defect reads it
            base = {"kind": "none" if base is None else base}
        if not isinstance(base, dict):
            raise ConfigError(f"defect: expected a kind string or an object, got {base!r}")
        if base.get("kind", "none") == "none":
            raise ConfigError("--phi: set a defect kind first (config or --defect)")
        base["phi"] = phi
        cfg["defect"] = base


def _walked(walks: list[WalkSpec]) -> dict[WalkSpec, tuple[np.ndarray, WalkSummary]]:
    """Each of ``walks``' ``norm_sq`` at each step, and its final summary: the
    walks step a stack at a time, each step's norms one row a stack."""
    walked: dict = {}
    for stack in _stacks(walks):
        steps = stack.specs[0].steps
        norms = np.reshape(list(_guarded([stack], steps)), (-1, len(stack.specs))).T
        summaries = summarize_stack(steps, stack.probs, stack.coordinates)
        walked.update(zip(stack.specs, zip(norms, summaries)))
    return walked


def _sweep_point(kind: str, phi_token: Any, walked: list) -> list:
    """The ``sweep.csv`` row of a point's walks (from ``_walked``): their product, checked."""
    norms, summaries = zip(*walked)
    _residual(math.prod(norms), np.arange(1, len(norms[0]) + 1))  # 1 * n is n
    s = _summary(summaries)
    var_y = "" if s.variance_y is None else f"{s.variance_y:.12g}"
    return [kind, phi_token, _format_prob(s.recurrence), f"{s.variance_x:.12g}", var_y]


def cmd_sweep(cfg: dict) -> int:
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: config must contain a 'sweep' object")
    _check_keys(sweep, {"phi", "defect"}, "sweep")
    phis = sweep.get("phi")
    if not isinstance(phis, list) or not phis:
        raise ConfigError("sweep.phi: expected a nonempty list of angles")
    kinds = sweep.get("defect")
    if kinds is None and isinstance(cfg.get("defect"), dict) and "kind" not in cfg["defect"]:
        raise ConfigError("sweep.defect: no kind to sweep; set sweep.defect or defect.kind")
    spec, echo = _walk(cfg)
    if kinds is None:
        kinds = [spec.defect.kind if "defect" in cfg else "cross_xy"]
    if not isinstance(kinds, list) or not kinds:
        raise ConfigError("sweep.defect: expected a nonempty list of defect kinds")

    if len(phis) * len(kinds) > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep: {len(phis) * len(kinds)} points, cap {MAX_SWEEP_POINTS}")

    # A point's defect is the grid's (kind, phi), read as run reads a
    # defect; every point is checked before anything is written or started.
    angles = [(token, parse_angle(token, "sweep.phi")) for token in phis]
    points, memo = [], {}  # memo: each distinct walk of the grid, built once
    walks_of = _factors(spec, echo["coin"], memo)
    for kind in kinds:
        for token, phi in angles:
            point = {"kind": kind, "phi": phi} if kind in _PHASED else {"kind": kind}
            defect, _ = _parse_defect(point, "sweep.defect")
            points.append((kind, token, walks_of(defect)))
    out_dir = _make_out_dir(cfg.get("out_dir", "."))
    with _pool(cfg, memo.values()):
        walked = _walked(list(memo.values()))
    rows = [_sweep_point(k, t, [walked[w] for w in walks]) for k, t, walks in points]

    path = out_dir / "sweep.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["defect", "phi", "recurrence", "variance_x", "variance_y"])
        w.writerows(rows)
    print(f"sweep points={len(rows)} out={path}")
    return 0


def cmd_isocheck(cfg: dict) -> int:
    cap = _max_halfwidth(MAX_MATRIX_DIM // 4, 2)  # 4 coin states a site: 31
    halfwidth = _count(cfg.get("halfwidth", 2), "halfwidth", 1, cap)
    trials = _count(cfg.get("trials", 50), "trials", 1, MAX_TRIALS)
    seed = _count(cfg.get("seed", DEFAULT_SEED), "seed", 0)
    out_dir = _make_out_dir(cfg.get("out_dir", "."))

    rng = np.random.default_rng(seed)
    h2 = tensor(hadamard(), hadamard())
    named = {
        "hadamard_pair": verify_isomorphism(halfwidth, h2),
        "fractional_swap_half": verify_isomorphism(halfwidth, fractional_swap(0.5)),
    }
    trial_devs = [verify_isomorphism(halfwidth, random_shared_coin(rng)) for _ in range(trials)]
    translation = check_translation_equivalence(halfwidth)
    claims = check_decomposition_claims(seed=seed)
    max_trial = float(np.max(trial_devs))  # np.max, unlike max(), keeps a NaN
    max_dev = float(np.max([*named.values(), max_trial, translation]))
    passed = max_dev < ISO_TOL

    _write_json(out_dir / "isocheck.json", {
        "halfwidth": halfwidth,
        "trials": trials,
        "seed": seed,
        "tolerance": ISO_TOL,
        "translation_deviation": translation,
        "named_coin_deviations": named,
        "max_trial_deviation": max_trial,
        "max_deviation": max_dev,
        "passed": passed,
        "decomposition_claims": claims,
    })
    print(f"isocheck halfwidth={halfwidth} trials={trials} "
          f"max_deviation={max_dev:.3e} passed={passed}")
    return 0 if passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk", description="Coined quantum walks on 1D/2D lattices with phase defects.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one walk and write its outputs")
    sweep = sub.add_parser("sweep", help="run a grid of walks, one table row each")
    iso = sub.add_parser("isocheck", help="verify the two-walker/2D equivalence")

    for p in (run, sweep):
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--steps", type=int, help="override step count")
        p.add_argument("--phi", type=lambda s: s if s.startswith("pi:") else float(s),
                       help="override defect phase (radians or pi:<x>)")
        p.add_argument("--defect", help="override defect kind")
        p.add_argument("--out", dest="out_dir", help="override output directory")
        p.add_argument("--threads", type=int,
                       help=f"BLAS threads of the 2D-kernel and periodic walks, 1..{MAX_THREADS}")
    run.add_argument("--reference", help="distribution CSV for the 1-norm discrepancy")

    iso.add_argument("--config", help="JSON config path")
    iso.add_argument("--halfwidth", "-L", type=int, help="lattice halfwidth (default 2)")
    iso.add_argument("--trials", type=int, help="random shared coins (default 50)")
    iso.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    iso.add_argument("--out", dest="out_dir", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    command = {"run": cmd_run, "sweep": cmd_sweep, "isocheck": cmd_isocheck}[args.command]
    try:
        cfg = _load_config_file(args.config)
        _apply_overrides(cfg, args)
        _count(cfg.get("threads", 1), "threads", 1, MAX_THREADS)  # _pool reads it
        return command(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # simulation/runtime failures
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
