"""Command line front end.

Subcommands: spectrum, certify, green, scan, perturb, dyncheck.

Exit codes: 0 means success and a clean outcome (a marginal certificate
still counts); 2 means the command ran but the judgment came back
negative (failed certificate, hard scan disagreement, lost perturbation
trials, failed phase); 3 means the inputs were unusable, a command line
that does not parse included.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .certifier import certify_operator
from .harness import johnson_scan, perturbation_experiment
from .jacobi import (
    greens_column,
    load_operator,
    normalization_identity_check,
    spectrum,
)
from .models import RationalRotation, dynamical_ds_check, make_family, orbit_spectrum_inclusion

log = logging.getLogger("domsplit")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 3, not argparse's 2, which
    here means a negative judgment; its subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _energy(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError("energy must be RE or RE,IM")


def _int_list(text):
    return [int(p) for p in text.split(",") if p.strip()]


def _write(doc, args):
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        log.info("wrote %s", args.out)
    else:
        json.dump(doc, sys.stdout, indent=1)
        sys.stdout.write("\n")


def _cmd_spectrum(args):
    op = load_operator(args.config)
    sp = spectrum(op, sizes=args.sizes)
    if args.format == "csv":
        lines = ["seg_lo,seg_hi"] + [f"{lo!r},{hi!r}" for lo, hi in sp.segments]
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    else:
        _write(
            {
                "segments": [list(s) for s in sp.segments],
                "resolution": sp.resolution,
                "sizes": list(sp.sizes),
                "n_eigenvalues": int(len(sp.merged)),
            },
            args,
        )
    print(
        f"{len(sp.segments)} segment(s), resolution {sp.resolution:.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_certify(args):
    op = load_operator(args.config)
    sp = spectrum(op)
    kw = {}
    if args.burn:
        kw["burn"] = args.burn
    cert = certify_operator(op, args.energy, spectrum_approx=sp, **kw)
    _write(cert.to_json(), args)
    print(cert.summary_line(), file=sys.stderr)
    return 0 if cert.verdict in ("verified", "marginal") else 2


def _cmd_green(args):
    op = load_operator(args.config)
    g = greens_column(op, args.energy, args.site, margin=args.margin)
    doc = {
        "site": g.j,
        "energy": [g.E.real, g.E.imag],
        "gamma_fit": g.gamma_fit,
        "delta": g.delta,
        "margin": g.margin,
        "residual": g.residual,
        "normalization_residual": float(normalization_identity_check(g)),
        "j_first": g.j_first,
        "values": [[z.real, z.imag] for z in g.values],
    }
    _write(doc, args)
    print(
        f"gamma_fit={g.gamma_fit:.4f} delta={g.delta:.4g} margin={g.margin}",
        file=sys.stderr,
    )
    return 0


def _scan_energies(args):
    if args.complex:
        r0, r1, i0, i1 = (float(x) for x in args.complex.split(","))
        nre, nim = (args.grid[2] if args.grid else 21), args.im_points
        re = np.linspace(r0, r1, int(nre))
        im = np.linspace(i0, i1, int(nim))
        return (re[None, :] + 1j * im[:, None]).ravel()
    if not args.grid:
        raise ValueError("scan needs --grid LO,HI,N or --complex")
    lo, hi, n = args.grid
    return np.linspace(float(lo), float(hi), int(n))


def _cmd_scan(args):
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv needs --out")
    op = load_operator(args.config)
    report = johnson_scan(op, _scan_energies(args), jobs=args.jobs)
    if args.format == "csv":
        report.to_csv(args.out)
    else:
        report.to_json(args.out) if args.out else _write(report.to_json(), args)
    print(report.summary(), file=sys.stderr)
    return 2 if report.hard_disagreements else 0


def _cmd_perturb(args):
    from .jacobi import cocycle_map

    op = load_operator(args.config)
    cert = certify_operator(op, args.energy)
    if cert.verdict == "failed" or not cert.epsilon:
        print("base window does not certify; nothing to perturb", file=sys.stderr)
        return 2
    size = args.epsilon if args.epsilon else args.epsilon_factor * cert.epsilon
    rep = perturbation_experiment(
        cocycle_map(op, args.energy), size, trials=args.trials, seed=args.seed
    )
    doc = rep.to_json()
    doc["base_epsilon"] = cert.epsilon
    _write(doc, args)
    print(
        f"{rep.n_ok}/{rep.trials} perturbed windows certified at size {size:.4g}",
        file=sys.stderr,
    )
    return 0 if rep.all_ok else 2


def _cmd_dyncheck(args):
    params = {}
    for item in args.param or []:
        k, _, v = item.partition("=")
        params[k] = float(v)
    pair = make_family(args.family, **params)
    p, _, q = args.alpha.partition("/")
    rot = RationalRotation(int(p), int(q or 1), args.omega0)
    rep = dynamical_ds_check(
        pair, rot, args.energy, n_phases=args.phases, periods=args.periods
    )
    doc = {
        "energy": [rep.energy.real, rep.energy.imag],
        "all_ok": rep.all_ok,
        "uniform_N": rep.uniform_N,
        "min_margin": rep.min_margin,
        "min_delta_sep": rep.min_delta_sep,
        "max_adjacent_jump": rep.max_adjacent_jump,
        "grid_step": rep.grid_step,
        "continuity_ok": rep.continuity_ok(),
        "verdicts": [c.verdict for c in rep.certs],
    }
    ok = rep.all_ok and rep.continuity_ok()
    if args.inclusion:
        omega = (rot.omega0 + 0.5 / rot.q) % 1.0
        inc = orbit_spectrum_inclusion(pair, rot, omega, args.inclusion_eps)
        doc["inclusion"] = {
            "eps": inc.eps,
            "omega": inc.omega,
            "orbit_dist": inc.orbit_dist,
            "worst_excess": inc.worst_excess,
            "inconclusive": inc.inconclusive,
            "ok": inc.ok,
        }
        ok = ok and inc.ok
    _write(doc, args)
    print(
        f"phases ok: {rep.all_ok}, uniform N: {rep.uniform_N}, "
        f"continuity ok: {rep.continuity_ok()}",
        file=sys.stderr,
    )
    return 0 if ok else 2


def build_parser():
    top = _Parser(
        prog="domsplit",
        description="dominated splitting certificates for Jacobi cocycles",
    )
    top.add_argument("--verbose", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="operator JSON file")
        p.add_argument("--out", help="write the result here")

    p = sub.add_parser("spectrum", help="truncation eigenvalue ladder and cover")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--sizes", type=_int_list, default=[200, 400, 800])
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("certify", help="dominated splitting certificate at one energy")
    common(p)
    p.add_argument("--energy", type=_energy, required=True, help="RE or RE,IM")
    p.add_argument("--burn", type=int, default=0, help="override the burn-in")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("green", help="one resolvent column with its decay fit")
    common(p)
    p.add_argument("--energy", type=_energy, required=True)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--margin", type=int, default=None)
    p.set_defaults(fn=_cmd_green)

    p = sub.add_parser("scan", help="prediction-vs-certificate sweep over energies")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--grid", type=lambda s: s.split(","), default=None,
                   help="LO,HI,N real energy grid")
    p.add_argument("--complex", default=None,
                   help="RE0,RE1,IM0,IM1 rectangle instead of the real grid")
    p.add_argument("--im-points", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("perturb", help="random perturbations at the stability radius")
    common(p)
    p.add_argument("--energy", type=_energy, required=True)
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="absolute perturbation size (overrides the factor)")
    p.add_argument("--epsilon-factor", type=float, default=0.9)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("dyncheck", help="uniform certificates over a phase grid")
    common(p, config=False)
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", help="NAME=VALUE, repeatable")
    p.add_argument("--alpha", required=True, help="rotation number P/Q")
    p.add_argument("--omega0", type=float, default=0.0)
    p.add_argument("--energy", type=_energy, required=True)
    p.add_argument("--phases", type=int, default=24)
    p.add_argument("--periods", type=int, default=2)
    p.add_argument("--inclusion", action="store_true",
                   help="also check spectra stay inside the base phase's bands")
    p.add_argument("--inclusion-eps", type=float, default=0.05)
    p.set_defaults(fn=_cmd_dyncheck)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if getattr(args, "burn", None) == 0:
        args.burn = None
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
