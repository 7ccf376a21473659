"""Command line front end.

Subcommands
    spectrum   eigenvalues + gap as JSON, optional CSV table and SVG scatter
    perturb    spectrum plus first-order refreshment arrows (JSON / SVG)
    eigfun     eigenfunction table for one eigenvalue as CSV
    simulate   zigzag trajectory: event CSV and diagnostics JSON

Exit codes: 0 success, 1 usage, 2 numerical failure (machine-readable error
JSON on stderr), 3 I/O failure.

A config file in key=value form can supply any flag of its subcommand
(``--config run.cfg``), and a key the subcommand has no flag for is refused;
explicit flags win over file values.  Outputs carry the full effective
config and never embed timestamps, so identical inputs give byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .charfn import CharFunctionHandle, z_log_derivative_batch
from .errors import DomainError, ZigzagError
from .operator import EIGENVALUE_TOL, _check_gamma_tol, default_grid, eigenfunction_table
from .perturbation import perturbed_spectrum
from .potential import PotentialModel, SwitchingRateSpec, parse_potential
from .rootfinder import ComplexRegion, _check_root_tol, newton_polish
from .spectrum import (
    SpectrumResult,
    auto_region,
    compute_spectrum,
    default_re_range,
    rescale_spectrum,
)
from .simulator import (
    autocorrelation,
    empirical_marginal,
    envelope_decay_rate,
    simulate,
)

__all__ = ["main", "RunConfig", "parse_complex", "render_svg"]


# ---------------------------------------------------------------------------
# config plumbing

_TYPES = {**dict.fromkeys(("sigma", "re-min", "re-max", "im-max", "tol", "eps", "T"), float), "seed": int}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Effective settings of one CLI invocation (file values + flag overrides)."""

    potential: Optional[str] = None
    sigma: Optional[float] = None
    re_min: Optional[float] = None
    re_max: Optional[float] = None
    im_max: Optional[float] = None
    tol: Optional[float] = None
    eps: Optional[float] = None
    gamma: Optional[str] = None
    T: Optional[float] = None
    seed: Optional[int] = None
    out: Optional[str] = None
    plot: Optional[str] = None
    csv: Optional[str] = None


# flag spellings of the RunConfig fields, in field order
_CONFIG_KEYS = tuple(f.name.replace("_", "-") for f in dataclasses.fields(RunConfig))


def parse_config_text(text: str) -> dict:
    """key = value lines; '#' comments; values stay strings for later coercion."""
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {ln}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip().strip("'\"")
        if key not in _CONFIG_KEYS:
            raise DomainError(f"config line {ln}: unknown key {key!r}")
        values[key] = val
    return values


def _coerce(key: str, val: Optional[str]):
    try:
        return val if val is None else _TYPES.get(key, str)(val)
    except ValueError as exc:
        raise DomainError(f"config value {key} = {val!r}: {exc}") from exc


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_vals = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_vals = parse_config_text(fh.read())
    merged = {}
    for key in _CONFIG_KEYS:
        attr = key.replace("-", "_")
        if key in file_vals and not hasattr(args, attr):  # it would be echoed, unused
            raise DomainError(f"config key {key!r} is not a setting of {args.command}")
        flag_val = getattr(args, attr, None)
        merged[attr] = flag_val if flag_val is not None else _coerce(key, file_vals.get(key))
    return RunConfig(**merged)


def parse_complex(text: str) -> complex:
    """Accept 1+2i or 1+2j spellings (and plain reals)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise DomainError(f"could not parse complex number {text!r}") from exc
    if not np.isfinite(value):
        raise DomainError(f"complex number {text!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _spectrum_payload(result: SpectrumResult, cfg: RunConfig) -> dict:
    return {
        "potential": result.potential_descriptor,
        "region": dataclasses.asdict(result.region),
        "eigenvalues": [
            {
                "re": r.gamma.real,
                "im": r.gamma.imag,
                "branch": r.branch,
                "multiplicity": r.multiplicity,
                "residual": r.residual,
            }
            for r in result.eigenvalues
        ],
        "gap": result.gap,
        "diagnostics": _jsonable(result.diagnostics),
        "config": dataclasses.asdict(cfg),
    }


def _emit_json(payload: dict, out: Optional[str]):
    _emit_text(json.dumps(_jsonable(payload), indent=2) + "\n", out)


def _emit_text(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_csv(result: SpectrumResult) -> str:
    rows = [f"{r.gamma.real!r},{r.gamma.imag!r},{r.branch},{r.multiplicity}" for r in result.eigenvalues]
    lines = ["re,im,branch,multiplicity"] + rows
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG emitter

_BRANCH_COLOR = {"full": "#000000", "plus": "#1f4fbf", "minus": "#bf1f1f"}
_SVG_WIDTH, _SVG_HEIGHT = 640, 480  # pixels


def render_svg(region: ComplexRegion, points, arrows=()) -> str:
    """Deterministic, self-contained scatter of eigenvalues.

    points: (gamma, branch) pairs; arrows: (gamma, tip) pairs drawn in gray.
    Axes span the searched region plus a 5% margin on every side.
    """
    mx = 0.05 * region.width
    my = 0.05 * region.height
    x0, x1 = region.re_min - mx, region.re_max + mx
    y0, y1 = region.im_min - my, region.im_max + my
    pad = 40.0  # pixel gutter for labels

    def px(re):
        return pad + (re - x0) / (x1 - x0) * (_SVG_WIDTH - 2 * pad)

    def py(im):
        return _SVG_HEIGHT - pad - (im - y0) / (y1 - y0) * (_SVG_HEIGHT - 2 * pad)

    el = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{pad:.2f}" y="{pad:.2f}" width="{_SVG_WIDTH - 2 * pad:.2f}" '
        f'height="{_SVG_HEIGHT - 2 * pad:.2f}" fill="none" stroke="#000000"/>',
    ]
    if x0 < 0.0 < x1:
        el.append(
            f'<line x1="{px(0):.2f}" y1="{py(y0):.2f}" x2="{px(0):.2f}" '
            f'y2="{py(y1):.2f}" stroke="#cccccc" stroke-dasharray="4,3"/>'
        )
    if y0 < 0.0 < y1:
        el.append(
            f'<line x1="{px(x0):.2f}" y1="{py(0):.2f}" x2="{px(x1):.2f}" '
            f'y2="{py(0):.2f}" stroke="#cccccc" stroke-dasharray="4,3"/>'
        )
    for gamma, tip in arrows:
        ax, ay, bx, by = px(gamma.real), py(gamma.imag), px(tip.real), py(tip.imag)
        el.append(
            f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
            f'stroke="#888888" stroke-width="1.2"/>'
        )
        dx, dy = bx - ax, by - ay
        norm = math.hypot(dx, dy)
        if norm > 1e-9:
            ux, uy = dx / norm, dy / norm
            lx, ly = -uy, ux
            p1 = (bx - 6 * ux + 3 * lx, by - 6 * uy + 3 * ly)
            p2 = (bx - 6 * ux - 3 * lx, by - 6 * uy - 3 * ly)
            el.append(
                f'<polygon points="{bx:.2f},{by:.2f} {p1[0]:.2f},{p1[1]:.2f} '
                f'{p2[0]:.2f},{p2[1]:.2f}" fill="#888888"/>'
            )
    for gamma, branch in points:
        el.append(
            f'<circle cx="{px(gamma.real):.2f}" cy="{py(gamma.imag):.2f}" r="4" '
            f'fill="{_BRANCH_COLOR.get(branch, "#000000")}"/>'
        )
    label = (
        f'<text x="{_SVG_WIDTH / 2:.2f}" y="{_SVG_HEIGHT - 10:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">Re: [{x0:.4g}, {x1:.4g}]</text>'
        f'<text x="12" y="{_SVG_HEIGHT / 2:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 12 {_SVG_HEIGHT / 2:.2f})">Im: [{y0:.4g}, {y1:.4g}]</text>'
    )
    el.append(label)
    el.append("</svg>")
    return "\n".join(el) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _require(cfg: RunConfig, field: str, parser: argparse.ArgumentParser):
    val = getattr(cfg, field)
    if val is None:
        parser.error(f"--{field.replace('_', '-')} is required (flag or config file)")
    return val


def _resolve_region(cfg: RunConfig, potential: PotentialModel):
    if cfg.im_max is None and cfg.re_min is None and cfg.re_max is None:
        return None  # let compute_spectrum pick its default
    re_min, re_max = default_re_range(potential)
    re_min = re_min if cfg.re_min is None else cfg.re_min
    re_max = re_max if cfg.re_max is None else cfg.re_max
    im_max = cfg.im_max
    if im_max is None:
        if not re_min <= 0.0 <= re_max:  # refused before the ladder, as compute_spectrum would after it
            raise DomainError(f"region's real span [{re_min}, {re_max}] excludes the eigenvalue 0")
        im_max = auto_region(potential, re_min=re_min).im_max
    return ComplexRegion(re_min, re_max, -im_max, im_max)


def _base_spectrum(cfg: RunConfig, parser) -> SpectrumResult:
    potential = parse_potential(_require(cfg, "potential", parser))
    tol = {} if cfg.tol is None else {"root_tol": cfg.tol}
    if tol:  # refused before _resolve_region's ladder evaluates psi
        _check_root_tol(cfg.tol)
    region = _resolve_region(cfg, potential)
    return compute_spectrum(potential, region, **tol)


def cmd_spectrum(cfg: RunConfig, parser) -> int:
    result = _base_spectrum(cfg, parser)
    if cfg.sigma is not None:
        result = rescale_spectrum(result, cfg.sigma)
    _emit_json(_spectrum_payload(result, cfg), cfg.out)
    if cfg.csv:
        _emit_text(_spectrum_csv(result), cfg.csv)
    if cfg.plot:
        pts = [(r.gamma, r.branch) for r in result.eigenvalues]
        _emit_text(render_svg(result.region, pts), cfg.plot)
    return 0


def cmd_perturb(cfg: RunConfig, parser) -> int:
    if cfg.sigma is not None:
        parser.error("--sigma is not supported here; use a scaled descriptor like gaussian:2")
    eps = _require(cfg, "eps", parser)
    result = _base_spectrum(cfg, parser)
    pert = perturbed_spectrum(result, eps)
    payload = _spectrum_payload(result, cfg)
    payload["epsilon"] = pert.epsilon
    payload["perturbation"] = [  # _jsonable writes each complex as {"re", "im"}
        {"gamma": e.gamma, "coefficient": e.coefficient, "shifted": e.shifted, "resolved": e.resolved}
        for e in pert.entries
    ]
    payload["perturbed_gap"] = pert.gap()
    _emit_json(payload, cfg.out)
    if cfg.csv:
        _emit_text(_spectrum_csv(result), cfg.csv)
    if cfg.plot:
        pts = [(r.gamma, r.branch) for r in result.eigenvalues]
        arrows = [(g, g + pert.epsilon * mu) for g, mu in pert.arrows() if mu is not None]
        _emit_text(render_svg(result.region, pts, arrows), cfg.plot)
    return 0


def cmd_eigfun(cfg: RunConfig, parser) -> int:
    potential = parse_potential(_require(cfg, "potential", parser))
    guess = parse_complex(_require(cfg, "gamma", parser))
    tol = cfg.tol if cfg.tol is not None else EIGENVALUE_TOL
    _check_gamma_tol(guess, tol)  # eigenfunction_table's refusal, before Newton evaluates psi
    ld = functools.partial(z_log_derivative_batch, CharFunctionHandle(potential))
    gamma = newton_polish(ld, guess)
    xs = default_grid(potential)
    table = eigenfunction_table(potential, gamma, xs, tol=tol)
    lines = ["x,re_plus,im_plus,re_minus,im_minus"] + [",".join(repr(float(v)) for v in row) for row in table]
    _emit_text("\n".join(lines) + "\n", cfg.csv)
    if cfg.out:
        _emit_json(
            {
                "gamma": {"re": gamma.real, "im": gamma.imag},
                "polished_from": {"re": guess.real, "im": guess.imag},
                "rows": len(lines) - 1,
                "csv": cfg.csv,
                "config": dataclasses.asdict(cfg),
            },
            cfg.out,
        )
    return 0


def cmd_simulate(cfg: RunConfig, parser) -> int:
    potential = parse_potential(_require(cfg, "potential", parser))
    T = cfg.T if cfg.T is not None else 1e5
    seed = cfg.seed if cfg.seed is not None else 0
    lam_r = cfg.eps if cfg.eps is not None else 0.0
    path = simulate(potential, SwitchingRateSpec(lambda_refr=lam_r), 0.0, 1, T, seed)
    hist = empirical_marginal(path, 80)
    acf_block = None
    if T >= 80.0:
        lags = np.round(np.arange(0.0, 8.0001, 0.1), 10)
        acf = autocorrelation(path, lambda x, th: x, lags)
        acf_block = {
            "lags": [float(v) for v in lags],
            "values": [float(v) for v in acf],
            "envelope_rate": envelope_decay_rate(lags, acf),
        }
    payload = {
        "potential": potential.descriptor(),
        "horizon": path.horizon,
        "seed": path.seed,
        "lambda_refr": lam_r,
        "n_events": path.n_events,
        "ks_statistic": hist.ks_statistic,
        "velocity_fraction_plus": path.time_with_theta_plus() / path.horizon,
        "occupation_positive": path.time_above_zero() / path.horizon,
        "acf": acf_block,
        "config": dataclasses.asdict(cfg),
    }
    _emit_json(payload, cfg.out)
    if cfg.csv:
        rows = zip(path.times, path.positions, path.thetas)
        lines = ["t,x,theta"] + [f"{float(t)!r},{float(x)!r},{int(th)}" for t, x, th in rows]
        _emit_text("\n".join(lines) + "\n", cfg.csv)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract here says 1."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_common(sp):
    sp.add_argument("--potential", help="descriptor, e.g. gaussian:1 or beta:2.5")
    sp.add_argument("--config", help="key=value file supplying any flag")
    sp.add_argument("--out", help="JSON output path (default: stdout)")
    sp.add_argument("--csv", help="CSV output path")


def _build_parser() -> _Parser:
    p = _Parser(prog="zigzagspec", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues and spectral gap")
    _add_common(sp)
    sp.add_argument("--tol", type=float, help="Newton step size that accepts a root (default 1e-10)")
    sp.add_argument("--sigma", type=float, help="rescale results by the scaling law")
    sp.add_argument("--re-min", type=float, dest="re_min")
    sp.add_argument("--re-max", type=float, dest="re_max")
    sp.add_argument("--im-max", type=float, dest="im_max")
    sp.add_argument("--plot", help="SVG scatter output path")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("perturb", help="first-order refreshment perturbation")
    _add_common(sp)
    sp.add_argument("--tol", type=float, help="Newton step size that accepts a root (default 1e-10)")
    sp.add_argument("--eps", type=float, help="refreshment rate epsilon")
    sp.add_argument("--re-min", type=float, dest="re_min")
    sp.add_argument("--re-max", type=float, dest="re_max")
    sp.add_argument("--im-max", type=float, dest="im_max")
    sp.add_argument("--plot", help="SVG scatter with perturbation arrows")
    sp.set_defaults(func=cmd_perturb, sigma=None)  # no flag; a config file's sigma meets cmd_perturb's hint

    sp = sub.add_parser("eigfun", help="eigenfunction table at one eigenvalue")
    _add_common(sp)
    sp.add_argument("--tol", type=float, help="largest |Z| accepted at the polished gamma (default 1e-8)")
    sp.add_argument("--gamma", help="eigenvalue guess, e.g. -0.425665+1.02295i")
    sp.set_defaults(func=cmd_eigfun)

    sp = sub.add_parser("simulate", help="event-driven path simulation")
    _add_common(sp)
    sp.add_argument("-T", type=float, dest="T", help="time horizon (default 1e5)")
    sp.add_argument("--seed", type=int, help="random seed (default 0)")
    sp.add_argument("--eps", type=float, help="refreshment rate lambda_refr")
    sp.set_defaults(func=cmd_simulate)
    return p


def _join_gamma(argv):
    """Fold '--gamma -0.4+1.0i' into '--gamma=-0.4+1.0i'.

    argparse only recognizes plain negative numbers as positional-looking
    values; a complex literal with a leading minus would otherwise be taken
    for an unknown option.
    """
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--gamma":
            nxt = next(it, None)
            out.append(tok if nxt is None else f"--gamma={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_gamma(argv))
        cfg = _merge_config(args)
        return args.func(cfg, parser)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ZigzagError as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(err) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
