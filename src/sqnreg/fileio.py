"""File formats and run configuration.

Three formats, all round-tripping bit-exactly at their stored precision:

* binary PGM (``P5``) images, maxval 255 or 65535 (16-bit samples are
  big-endian per the PGM convention), rescaled to [0, 1] on load;
* ``SQNFIELD v1`` displacement fields: one ASCII header line followed by
  raw little-endian float64 planes;
* per-iteration metrics as CSV with a fixed header, floats written with
  ``repr`` so parsing recovers them exactly.

Run configuration is flat ``key = value`` text.  Unknown and duplicate
keys are hard errors; that catches typos before a long solve starts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .grids import DisplacementField, GridSpec, Image, ImageStack
from .optimize import IterRecord

_WS = b" \t\r\n\x0b\x0c"


# ---------------------------------------------------------------------------
# PGM


def _pgm_token(buf: bytes, pos: int):
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c in (b"#",):
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c in _WS:
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of PGM header at byte {pos}")
    start = pos
    while pos < n and buf[pos : pos + 1] not in _WS and buf[pos : pos + 1] != b"#":
        pos += 1
    return buf[start:pos], start, pos


def _pgm_int(buf: bytes, pos: int, what: str):
    tok, start, pos = _pgm_token(buf, pos)
    try:
        value = int(tok)
    except ValueError:
        raise FormatError(f"bad {what} {tok!r} at byte {start}") from None
    if value <= 0:
        raise FormatError(f"{what} must be positive, got {value} at byte {start}")
    return value, pos


def load_pgm(path) -> Image:
    """Read a binary PGM into an Image with intensities in [0, 1].

    The grid uses unit (pixel) spacing; physical calibration is not part
    of the format.
    """
    buf = Path(path).read_bytes()
    magic, start, pos = _pgm_token(buf, 0)
    if magic != b"P5":
        raise FormatError(f"not a binary PGM (P5): magic {magic!r} at byte {start}")
    width, pos = _pgm_int(buf, pos, "width")
    height, pos = _pgm_int(buf, pos, "height")
    maxval, pos = _pgm_int(buf, pos, "maxval")
    if maxval not in (255, 65535):
        raise FormatError(f"unsupported maxval {maxval} (expected 255 or 65535)")
    if pos >= len(buf) or buf[pos : pos + 1] not in _WS:
        raise FormatError(f"missing whitespace after maxval at byte {pos}")
    pos += 1
    itemsize = 1 if maxval == 255 else 2
    need = width * height * itemsize
    got = len(buf) - pos
    if got < need:
        raise FormatError(
            f"truncated PGM payload at byte {len(buf)}: expected {need} bytes, found {got}"
        )
    tail = buf[pos + need :]
    if tail.strip(_WS):
        raise FormatError(f"trailing data after PGM payload at byte {pos + need}")
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    raw = np.frombuffer(buf, dtype=dtype, count=width * height, offset=pos)
    data = raw.reshape(height, width).astype(np.float64) / maxval
    return Image(GridSpec(dims=(height, width)), data)


def save_pgm(img: Image, path, maxval: int = 255) -> None:
    """Write intensities to binary PGM, rounding half to even.

    Values are clamped to [0, 1] first; callers keeping data in range get
    a lossless round trip at the stored bit depth.
    """
    if maxval not in (255, 65535):
        raise FormatError(f"unsupported maxval {maxval} (expected 255 or 65535)")
    m1, m2 = img.grid.dims
    levels = np.rint(np.clip(img.data, 0.0, 1.0) * maxval)
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    header = f"P5\n{m2} {m1}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + levels.astype(dtype).tobytes())


# ---------------------------------------------------------------------------
# displacement fields


def save_field(field: DisplacementField, path) -> None:
    grid = field.grid
    m1, m2 = grid.dims
    header = (
        f"SQNFIELD v1 {m1} {m2} "
        f"{grid.spacing[0]!r} {grid.spacing[1]!r} "
        f"{grid.origin[0]!r} {grid.origin[1]!r}\n"
    )
    u1 = np.ascontiguousarray(field.u[..., 0], dtype="<f8")
    u2 = np.ascontiguousarray(field.u[..., 1], dtype="<f8")
    Path(path).write_bytes(header.encode("ascii") + u1.tobytes() + u2.tobytes())


def load_field(path) -> DisplacementField:
    buf = Path(path).read_bytes()
    nl = buf.find(b"\n")
    if nl < 0:
        raise FormatError("missing SQNFIELD header line")
    try:
        tokens = buf[:nl].decode("ascii").split()
    except UnicodeDecodeError:
        raise FormatError("SQNFIELD header is not ASCII") from None
    if len(tokens) != 8 or tokens[0] != "SQNFIELD":
        raise FormatError(f"not a SQNFIELD file: header {buf[:nl]!r}")
    if tokens[1] != "v1":
        raise FormatError(f"unsupported SQNFIELD version {tokens[1]!r}")
    try:
        m1, m2 = int(tokens[2]), int(tokens[3])
        h1, h2, x0, y0 = (float(t) for t in tokens[4:8])
    except ValueError:
        raise FormatError(f"bad SQNFIELD header values {tokens[2:]!r}") from None
    payload = buf[nl + 1 :]
    need = m1 * m2 * 2 * 8
    if len(payload) != need:
        raise FormatError(
            f"SQNFIELD payload size mismatch: expected {need} bytes, found {len(payload)}"
        )
    planes = np.frombuffer(payload, dtype="<f8").reshape(2, m1, m2)
    grid = GridSpec(dims=(m1, m2), origin=(x0, y0), spacing=(h1, h2))
    return DisplacementField(grid, np.stack([planes[0], planes[1]], axis=-1))


# ---------------------------------------------------------------------------
# stack manifests


@dataclass(frozen=True)
class StackManifest:
    """Ordered image paths forming a stack, with optional labels."""

    paths: tuple[Path, ...]
    labels: tuple[str, ...]


def load_manifest(path) -> StackManifest:
    path = Path(path)
    paths: list[Path] = []
    labels: list[str] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        entry = path.parent / parts[0]
        if not entry.is_file():
            raise ConfigError(f"image file not found: {entry}")
        paths.append(entry)
        labels.append(parts[1].strip() if len(parts) > 1 else "")
    if len(paths) < 2:
        raise ConfigError(f"manifest {path} lists {len(paths)} images; need at least 2")
    return StackManifest(tuple(paths), tuple(labels))


def load_stack(manifest: StackManifest) -> ImageStack:
    return ImageStack(tuple(load_pgm(p) for p in manifest.paths))


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    manifest: str | None = None
    mode: str = "groupwise"
    measure: str = "sqn"
    q: float = 4.0
    feature: str = "ngf"
    eta: float = 1e-2
    eta_pt: float = 1e-2
    jitter: float | str = "auto"
    reg: str = "diffusion"
    alpha: float = 1e-2
    mu: float = 1.0
    lam: float = 0.0
    constraint: str = "auto"
    levels: int = 3
    maxiter: int = 50
    gtol: float = 1e-5
    sweeps: int = 1
    max_fevals: int | None = None
    seed: int = 0
    out: str = "out"


def _parse_float(val: str) -> float:
    if val.lower() in ("inf", "infinity"):
        return math.inf
    return float(val)

def _parse_choice(*choices):
    def parse(val: str) -> str:
        if val not in choices:
            raise ValueError(f"{val} (expected one of {', '.join(choices)})")
        return val
    return parse

def _parse_jitter(val: str):
    return "auto" if val.lower() == "auto" else float(val)

def _parse_opt_int(val: str):
    return None if val.lower() == "none" else int(val)


_CONFIG_PARSERS = {
    "manifest": str,
    "mode": _parse_choice("groupwise", "sequential"),
    "measure": _parse_choice("sqn", "corr_dev", "logdet", "ssd", "ngf"),
    "q": _parse_float,
    "feature": _parse_choice("ngf", "intensity"),
    "eta": float,
    "eta_pt": float,
    "jitter": _parse_jitter,
    "reg": _parse_choice("diffusion", "elastic"),
    "alpha": float,
    "mu": float,
    "lam": float,
    "constraint": _parse_choice("auto", "none", "fix_first", "zero_mean"),
    "levels": int,
    "maxiter": int,
    "gtol": float,
    "sweeps": int,
    "max_fevals": _parse_opt_int,
    "seed": int,
    "out": str,
}

assert set(_CONFIG_PARSERS) == {f.name for f in dc_fields(RunConfig)}


def parse_config(text: str, base_dir: Path | None = None) -> RunConfig:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    cfg = RunConfig()
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key == "deterministic":
            raise ConfigError(
                f"line {lineno}: config key 'deterministic' was removed:"
                " every run is deterministic"
            )
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen[key] = lineno
        try:
            parsed = _CONFIG_PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
        setattr(cfg, key, parsed)
    if cfg.measure == "corr_dev" and "q" in seen:
        raise ConfigError(
            f"line {seen['q']}: config key 'q' does not apply to measure = corr_dev,"
            " which is the squared Schatten-2 deviation"
        )
    if cfg.manifest is not None and base_dir is not None:
        cfg.manifest = str((base_dir / cfg.manifest).resolve())
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    return parse_config(path.read_text(), base_dir=path.parent)


# ---------------------------------------------------------------------------
# metrics CSV

_CSV_HEADER = [
    "level",
    "component",
    "iteration",
    "value",
    "grad_norm",
    "step",
    "wolfe_ok",
    "subgradient",
    "fevals",
    "gevals",
    "elapsed",
]


def metrics_csv(report, path) -> None:
    """Write the per-iteration trace of a SolveReport.

    Floats go through ``repr`` (17 significant digits), so a parse of the
    file reproduces the trace exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in report.all_records():
            writer.writerow(
                [
                    r.level,
                    r.component,
                    r.iteration,
                    repr(r.value),
                    repr(r.grad_norm),
                    repr(r.step),
                    int(r.wolfe_ok),
                    int(r.subgradient),
                    r.fevals,
                    r.gevals,
                    repr(r.elapsed),
                ]
            )


def load_metrics_csv(path) -> list[IterRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise FormatError(f"unexpected metrics CSV header {header!r}")
        records = []
        for row in reader:
            if len(row) != len(_CSV_HEADER):
                raise FormatError(f"metrics CSV row has {len(row)} fields: {row!r}")
            records.append(
                IterRecord(
                    level=int(row[0]),
                    component=int(row[1]),
                    iteration=int(row[2]),
                    value=float(row[3]),
                    grad_norm=float(row[4]),
                    step=float(row[5]),
                    wolfe_ok=bool(int(row[6])),
                    subgradient=bool(int(row[7])),
                    fevals=int(row[8]),
                    gevals=int(row[9]),
                    elapsed=float(row[10]),
                )
            )
    return records
