"""Energy scans and perturbation experiments.

The scan sweeps a grid of energies over one operator and compares two
independent judgments at each: the spectral prediction (outside the
computed spectrum cover means a splitting should exist) and the
certifier's verdict on the transfer cocycle.  Disagreements inside the
uncertainty band around band edges, or with razor-thin domination
margins, are tallied as marginal; anything else is a hard disagreement
and a red flag.

Perturbation experiments re-certify a window after bumping every
factor by an exactly sized random matrix, probing the advertised
stability radius from inside.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

import numpy as np

from .certifier import MARGINAL_MARGIN, DegenerateCocycle, _certify_each, certify_many
from .jacobi import (
    _cover,
    _cover_plan,
    _truncation_eigenvalues,
    cocycle_map,
    dist_to_spectrum,
    spectrum,
)
from .mat2 import MatSequence, _count, op_norm

__all__ = [
    "SCAN_COLUMNS",
    "trial_rng",
    "ScanReport",
    "johnson_scan",
    "PerturbReport",
    "perturb_sequence",
    "perturbation_experiment",
]

SCAN_COLUMNS = [
    "E_re",
    "E_im",
    "delta_spec",
    "ds_status",
    "condition_failed",
    "N",
    "domination_margin",
    "delta_sep",
    "m_N",
    "epsilon",
]


def trial_rng(seed, k):
    """Generator for trial k: counter-based stream splitting, so any
    subset of trials reproduces identically in any order or process."""
    return np.random.Generator(np.random.Philox(key=int(seed)).jumped(int(k)))


def _scan_row(E, cert):
    # cert is E's certificate or the exception certify raised on it;
    # delta_spec is filled in by johnson_scan once the spectrum cover exists
    row = {"E_re": float(E.real), "E_im": float(E.imag), "delta_spec": None}
    if isinstance(cert, DegenerateCocycle):
        row.update(
            ds_status="degenerate",
            condition_failed=None,
            N=None,
            domination_margin=None,
            delta_sep=None,
            m_N=None,
            epsilon=None,
        )
        return row
    if isinstance(cert, Exception):
        raise cert
    row["ds_status"] = cert.verdict
    row["condition_failed"] = cert.failed_condition
    row["N"] = cert.N
    row["domination_margin"] = cert.domination_margin
    row["delta_sep"] = cert.delta_sep
    row["m_N"] = cert.norm_floor_value
    row["epsilon"] = cert.epsilon
    return row


def _scan_chunk(op, energies):
    # one certify_many batch per chunk; a degenerate energy gets its row
    # and leaves the others' certificates as they are
    certs = _certify_each([cocycle_map(op, E) for E in energies])
    return [_scan_row(E, cert) for E, cert in zip(energies, certs)]


@dataclass
class ScanReport:
    """Per-energy rows plus the prediction-vs-certificate tally."""

    rows: list
    resolution: float
    marginal_margin: float
    agree: list = field(default_factory=list)
    marginal: list = field(default_factory=list)
    hard_disagreements: list = field(default_factory=list)

    @property
    def n_total(self):
        return len(self.rows)

    @property
    def n_agree(self):
        return sum(self.agree)

    @property
    def n_marginal(self):
        return sum(self.marginal)

    def summary(self):
        return (
            f"{self.n_total} energies: {self.n_agree} agree, "
            f"{self.n_total - self.n_agree} disagree "
            f"({self.n_marginal} marginal, "
            f"{len(self.hard_disagreements)} hard)"
        )

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=SCAN_COLUMNS)
            w.writeheader()
            for row in self.rows:
                w.writerow({k: ("" if row[k] is None else row[k]) for k in SCAN_COLUMNS})

    def to_json(self):
        return {
            "resolution": self.resolution,
            "marginal_margin": self.marginal_margin,
            "summary": self.summary(),
            "rows": self.rows,
            "agree": self.agree,
            "marginal": self.marginal,
            "hard_disagreements": [[z.real, z.imag] for z in self.hard_disagreements],
        }


def johnson_scan(op, energies, jobs=1, spectrum_sizes=(200, 400, 800)):
    """Compare spectral prediction and certificates over an energy grid.

    An energy predicts a splitting iff it lies strictly outside the
    spectrum cover.  Disagreements are excused as marginal when the
    band-edge distance is within twice the grid step (or twice the
    cover resolution, whichever is larger), when the domination margin
    is under certifier.MARGINAL_MARGIN, or when the verdict is itself
    marginal, which certify decides with the same constant; the report
    records its value.  jobs must be an integer >= 1; jobs > 1
    distributes energies across processes;
    the operator is sent to them by pickle.  The spectrum cover's
    truncations are planned here, so a bad spectrum_sizes raises before
    any pool starts, and solved in the pool, one task per truncation,
    largest first and ahead of the certify chunks, so the largest one
    bounds the cover's wall time (scipy's eigenvalue call holds the GIL,
    and in this process it would stall the pool's feeder thread).  The
    cover is assembled as spectrum() assembles it, bit for bit.  The
    first task to raise ends the scan with its error; the tasks not yet
    started are cancelled.  Each chunk of energies (the whole grid at
    jobs=1) is certified as one certify_many batch.
    """
    jobs = _count("jobs", jobs, 1)
    Es = [complex(e) for e in np.atleast_1d(np.asarray(energies, dtype=complex))]
    re_parts = np.unique([e.real for e in Es])
    h_grid = float(np.min(np.diff(re_parts))) if len(re_parts) > 1 else 0.0
    if jobs == 1:
        sp = spectrum(op, sizes=spectrum_sizes)
        rows = _scan_chunk(op, Es)
    else:
        plan = _cover_plan(op, spectrum_sizes)
        n_chunks = max(1, min(len(Es), jobs * 3))
        bounds = np.linspace(0, len(Es), n_chunks + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            eigs = {
                entry: ex.submit(_truncation_eigenvalues, op, *entry[1:])
                for entry in reversed(plan)
            }
            futures = [
                ex.submit(_scan_chunk, op, Es[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
                if b > a
            ]
            try:
                for f in as_completed([*eigs.values(), *futures]):
                    f.result()
            except BaseException:
                ex.shutdown(cancel_futures=True)
                raise
            sp = _cover(plan, [eigs[entry].result() for entry in plan])
            rows = [row for f in futures for row in f.result()]
    for row, d in zip(rows, dist_to_spectrum(sp, Es).tolist()):
        row["delta_spec"] = d
    report = ScanReport(rows=rows, resolution=sp.resolution, marginal_margin=MARGINAL_MARGIN)
    band = max(2.0 * h_grid, 2.0 * sp.resolution)
    # distance from each energy to the nearest segment endpoint
    Ev = np.asarray(Es, dtype=complex)[:, None]
    edges = np.hypot(Ev.real - np.ravel(sp.segments), Ev.imag).min(axis=1)
    for row, edge in zip(rows, edges.tolist()):
        E = complex(row["E_re"], row["E_im"])
        predicted = row["delta_spec"] > 0.0
        certified = row["ds_status"] in ("verified", "marginal")
        agree = predicted == certified
        margin = row["domination_margin"]
        excused = (
            edge < band
            or (margin is not None and margin < MARGINAL_MARGIN)
            or row["ds_status"] in ("marginal", "degenerate")
        )
        report.agree.append(agree)
        report.marginal.append(not agree and excused)
        if not agree and not excused:
            report.hard_disagreements.append(E)
    return report


def perturb_sequence(seq, size, rng):
    """Add an independent random bump of exact operator norm `size` to
    every factor.  A negative size raises ValueError."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    n = len(seq)
    g = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))
    g *= (float(size) / op_norm(g))[:, None, None]
    return MatSequence(seq.j_lo, seq.values + g)


@dataclass
class PerturbReport:
    size: float
    trials: int
    n_ok: int
    failed_trials: list

    @property
    def all_ok(self):
        return self.n_ok == self.trials

    def to_json(self):
        return {
            "size": self.size,
            "trials": self.trials,
            "n_ok": self.n_ok,
            "failed_trials": self.failed_trials,
        }


def perturbation_experiment(seq, size, trials=100, seed=0):
    """Re-certify `trials` independently perturbed copies of a window.

    Each factor of each copy moves by exactly `size` in operator norm,
    the worst case the stability radius speaks about.  Failed trial
    indices are recorded with their broken condition.  The trials are
    certified as one certify_many batch, each window choosing its own
    burn-in.  A number of trials that is not an integer >= 0 raises
    ValueError, as perturb_sequence does for a negative size.
    """
    trials = _count("trials", trials, 0)
    pert = [perturb_sequence(seq, size, trial_rng(seed, t)) for t in range(trials)]
    n_ok = 0
    failed = []
    for t, cert in enumerate(certify_many(pert)):
        if cert.verdict != "failed":
            n_ok += 1
        else:
            failed.append((t, cert.failed_condition))
    return PerturbReport(
        size=float(size), trials=trials, n_ok=n_ok, failed_trials=failed
    )
