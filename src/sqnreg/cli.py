"""Command-line front end.

Subcommands: ``register`` (run a solve from a config file), ``synth``
(generate a synthetic stack with ground truth), ``gradcheck`` (compare
analytic objective gradients against central differences), ``view``
(write a cross-section PGM of a stack).

Exit codes: 0 success, 1 failed check, 2 usage or module error (printed
to stderr as ``error[category]: message``), 3 unexpected failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, SqnregError
from .features import IntensityFeature, NgfFeature
from .fileio import (
    RunConfig,
    load_config,
    load_manifest,
    load_stack,
    metrics_csv,
    save_field,
    save_pgm,
)
from .grids import GridSpec, Image, ImageStack, warp_with_jacobian
from .measures import CorrDev, LogDet, NgfPair, SchattenQ, SsdPair
from .optimize import ObjectiveSpec, SolveOptions, multilevel_solve, objective
from .oracles import fd_gradient
from .regularize import Diffusion, Elastic
from .synth import cut_view, rng_for_purpose, synth_stack


def build_feature(cfg: RunConfig):
    if cfg.feature == "intensity":
        return IntensityFeature()
    return NgfFeature(eta=cfg.eta, relative=True)


def build_measure(cfg: RunConfig):
    if cfg.measure == "ssd":
        return SsdPair()
    if cfg.measure == "ngf":
        return NgfPair(eta_pt=cfg.eta_pt)
    feature = build_feature(cfg)
    if cfg.measure == "sqn":
        return SchattenQ(q=cfg.q, feature=feature)
    if cfg.measure == "corr_dev":
        return CorrDev(feature=feature)
    return LogDet(jitter=cfg.jitter, feature=feature)


def build_regularizer(cfg: RunConfig):
    if cfg.reg == "elastic":
        return Elastic(mu=cfg.mu, lam=cfg.lam, alpha=cfg.alpha)
    return Diffusion(alpha=cfg.alpha)


def build_spec(cfg: RunConfig) -> ObjectiveSpec:
    return ObjectiveSpec(
        measure=build_measure(cfg),
        regularizer=build_regularizer(cfg),
        mode=cfg.mode,
        constraint=cfg.constraint,
    )


def build_options(cfg: RunConfig) -> SolveOptions:
    return SolveOptions(
        levels=cfg.levels,
        maxiter=cfg.maxiter,
        gtol=cfg.gtol,
        sweeps=cfg.sweeps,
        max_fevals=cfg.max_fevals,
    )


def _cmd_register(args) -> int:
    if args.config is None:
        raise ConfigError("register needs --config")
    cfg = load_config(args.config)
    if args.out is not None:
        cfg.out = args.out
    if cfg.manifest is None:
        raise ConfigError("config is missing the 'manifest' key")
    spec = build_spec(cfg)
    opts = build_options(cfg)
    stack = load_stack(load_manifest(cfg.manifest))
    report = multilevel_solve(spec, stack, opts)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_csv(report, out / "metrics.csv")
    mid = stack.grid.dims[0] // 2
    save_pgm(cut_view(stack, 1, mid), out / "cut_initial.pgm")
    warped = []
    for idx, (img, field) in enumerate(zip(stack, report.fields)):
        save_field(field, out / f"field_{idx:03d}.sqnfield")
        wimg = Image(img.grid, warp_with_jacobian(img, field.u, want_jac=False)[0])
        warped.append(wimg)
        save_pgm(wimg, out / f"warped_{idx:03d}.pgm")
    save_pgm(cut_view(warped, 1, mid), out / "cut_final.pgm")
    # the stack J at the written fields; a sequential solve's last record
    # holds a one-field objective instead
    value = objective(spec, stack, report.fields)[0]
    counts = " ".join(f"{name}={n}" for name, n in report.counts().items())
    print(
        f"registered {stack.k} images on {stack.grid.dims[0]}x{stack.grid.dims[1]} grid: "
        f"J={value!r} {counts} elapsed={report.elapsed:.2f}s -> {out}"
    )
    return 0


def _parse_dims(text: str):
    try:
        m1, m2 = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad --dims {text!r}, expected like 64x64") from None
    return m1, m2


def _parse_magnitude(text: str):
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        values = ()
    if len(values) not in (1, 2):
        raise ConfigError(f"bad --magnitude {text!r}, expected one or two numbers")
    return values if len(values) == 2 else values[0]


def _cmd_synth(args) -> int:
    out = Path(args.out if args.out is not None else "synth_out")
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    stack, truths = synth_stack(
        seed, args.k, args.kind, _parse_magnitude(args.magnitude), _parse_dims(args.dims)
    )
    lines = []
    for idx, (img, truth) in enumerate(zip(stack, truths)):
        name = f"image_{idx:03d}.pgm"
        save_pgm(img, out / name, maxval=65535)
        save_field(truth, out / f"truth_{idx:03d}.sqnfield")
        lines.append(name)
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    print(f"wrote {stack.k} {args.kind} images ({args.dims}) to {out}")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = load_config(args.config) if args.config is not None else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    rng = rng_for_purpose(cfg.seed, "gradcheck")
    grid = GridSpec(dims=(8, 8), spacing=(0.125, 0.125))
    k = 3
    stack = ImageStack(
        tuple(Image(grid, rng.uniform(0.2, 1.2, size=grid.dims)) for _ in range(k))
    )
    # keep sample points away from cell-center kinks of the interpolant
    x = 0.02 * min(grid.spacing) * rng.standard_normal((k, *grid.dims, 2))
    x += 0.4 * min(grid.spacing) * rng.choice([-1.0, 1.0], size=(k, 1, 1, 2))
    mode = "sequential" if cfg.measure in ("ssd", "ngf") else "groupwise"
    spec = ObjectiveSpec(build_measure(cfg), build_regularizer(cfg), mode, "none")

    def fn(vec):
        return objective(spec, stack, vec.reshape(x.shape))[0]

    analytic = objective(spec, stack, x)[1]().ravel()
    numeric = fd_gradient(fn, x.ravel(), step=1e-5)
    err = float(
        np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300)
    )
    status = "OK" if err <= 1e-6 else "FAIL"
    print(f"gradcheck {status}: measure={cfg.measure} reg={cfg.reg} rel_error={err:.3e}")
    return 0 if err <= 1e-6 else 1


def _cmd_view(args) -> int:
    stack = load_stack(load_manifest(args.manifest))
    position = args.position if args.position is not None else stack.grid.dims[args.axis - 1] // 2
    cut = cut_view(stack, args.axis, position)
    out = Path(args.out if args.out is not None else "cut.pgm")
    save_pgm(cut, out)
    print(f"wrote cut view (axis {args.axis}, position {position}) to {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqnreg", description="groupwise image stack registration"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    config = dict(default=None, help="flat key = value config file")
    out = dict(default=None, help="output directory or file")
    seed = dict(type=int, default=None)

    p_reg = sub.add_parser("register", help="run a registration solve")
    p_reg.add_argument("--config", **config)
    p_reg.add_argument("--out", **out)
    p_reg.set_defaults(func=_cmd_register)

    p_synth = sub.add_parser("synth", help="generate a synthetic stack")
    p_synth.add_argument("--out", **out)
    p_synth.add_argument("--seed", **seed)
    p_synth.add_argument("--kind", default="shifted_disks")
    p_synth.add_argument("--k", type=int, default=4)
    p_synth.add_argument("--dims", default="64x64")
    p_synth.add_argument("--magnitude", default="3,0")
    p_synth.set_defaults(func=_cmd_synth)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--config", **config)
    p_grad.add_argument("--seed", **seed)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_view = sub.add_parser("view", help="write a stack cross-section as PGM")
    p_view.add_argument("--out", **out)
    p_view.add_argument("--manifest", required=True)
    p_view.add_argument("--axis", type=int, default=1, choices=(1, 2))
    p_view.add_argument("--position", type=int, default=None)
    p_view.set_defaults(func=_cmd_view)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SqnregError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error[internal]: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
