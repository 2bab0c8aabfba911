"""Scan and perturbation drivers: determinism, bookkeeping, reports."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from domsplit import (
    JacobiOperator,
    RationalRotation,
    almost_mathieu,
    certify,
    cocycle_map,
    periodic_operator,
    realize,
    spectrum,
)
from domsplit.harness import (
    SCAN_COLUMNS,
    johnson_scan,
    perturb_sequence,
    perturbation_experiment,
    trial_rng,
)
from domsplit import certifier
from domsplit.certifier import InternalInconsistency
from domsplit.mat2 import op_norm

GOLDEN = Path(__file__).parent / "data" / "golden_free_chain.csv"
GOLDEN_DEAD = Path(__file__).parent / "data" / "golden_dead_coupling.csv"
GOLDEN_DEAD_COMPLEX = Path(__file__).parent / "data" / "golden_dead_coupling_complex.csv"
SCAN_SIZES = (100, 150, 199)


# ------------------------------------------------------------ rng streams


def test_trial_rng_reproducible():
    a = trial_rng(7, 3).standard_normal(5)
    b = trial_rng(7, 3).standard_normal(5)
    assert np.array_equal(a, b)


def test_trial_rng_streams_are_independent():
    a = trial_rng(7, 3).standard_normal(5)
    b = trial_rng(7, 4).standard_normal(5)
    c = trial_rng(8, 3).standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_rng_order_free():
    # drawing trial 9 never depends on whether trial 2 ran first
    first = trial_rng(1, 9).standard_normal(4)
    trial_rng(1, 2).standard_normal(100)
    again = trial_rng(1, 9).standard_normal(4)
    assert np.array_equal(first, again)


# ---------------------------------------------------------- perturbations


def test_perturb_sequence_exact_norm(free_seq):
    rng = np.random.default_rng(5)
    before = free_seq.values.copy()
    bumped = perturb_sequence(free_seq, 0.125, rng)
    assert bumped.j_lo == free_seq.j_lo
    diffs = bumped.values - free_seq.values
    norms = op_norm(diffs)
    assert np.max(np.abs(norms - 0.125)) < 1e-12
    # the input is untouched
    assert np.array_equal(free_seq.values, before)


def test_perturb_zero_size(free_seq):
    rng = np.random.default_rng(5)
    same = perturb_sequence(free_seq, 0.0, rng)
    assert np.array_equal(same.values, free_seq.values)


def test_perturb_refuses_a_negative_size(free_seq):
    # a bump of size -0.05 would have norm 0.05 while the report said -0.05
    with pytest.raises(ValueError, match="size must be >= 0"):
        perturb_sequence(free_seq, -0.05, trial_rng(0, 0))
    with pytest.raises(ValueError, match="size must be >= 0"):
        perturbation_experiment(free_seq, -0.05, trials=3)


def test_perturbation_experiment_within_budget(free_op, free_seq):
    from domsplit import certify_operator

    eps = certify_operator(free_op, 3.0).epsilon
    rep = perturbation_experiment(free_seq, 0.9 * eps, trials=20, seed=3)
    assert rep.all_ok
    assert rep.n_ok == 20
    assert rep.failed_trials == []


def test_perturbation_experiment_reports_failures(free_op):
    # in-band energy: the transfer cocycle is elliptic, and small bumps
    # cannot create a splitting
    seq = cocycle_map(free_op, 1.0)
    rep = perturbation_experiment(seq, 0.01, trials=10, seed=3)
    assert not rep.all_ok
    assert rep.n_ok < 10
    for t, cond in rep.failed_trials:
        assert cond in (1, 2, 3, 4)
    doc = rep.to_json()
    json.dumps(doc)
    assert doc["trials"] == 10


def test_perturbation_experiment_deterministic(free_seq):
    a = perturbation_experiment(free_seq, 0.5, trials=8, seed=11)
    b = perturbation_experiment(free_seq, 0.5, trials=8, seed=11)
    assert a.n_ok == b.n_ok
    assert a.failed_trials == b.failed_trials


def test_perturbation_experiment_refuses_negative_trials(free_seq):
    # -1 trials would report "0/-1 perturbed windows certified"; none is
    # a legal empty experiment
    with pytest.raises(ValueError, match="trials must be >= 0"):
        perturbation_experiment(free_seq, 0.5, trials=-1)
    assert perturbation_experiment(free_seq, 0.5, trials=0).n_ok == 0


# ------------------------------------------------------------------ scans


def test_scan_free_chain(free_op):
    rep = johnson_scan(free_op, np.linspace(-4, 4, 41), spectrum_sizes=SCAN_SIZES)
    assert rep.n_total == 41
    assert rep.hard_disagreements == []
    # the only excused rows sit at the band edges
    marg = [rep.rows[i]["E_re"] for i in range(41) if rep.marginal[i]]
    assert set(marg) == {-2.0, 2.0}
    for row in rep.rows:
        assert set(row) == set(SCAN_COLUMNS)
        inside = abs(row["E_re"]) < 2.0
        if inside:
            assert row["delta_spec"] == 0.0
            assert row["ds_status"] == "failed"
    # outside the band the spectral distance grows strictly
    right = [r["delta_spec"] for r in rep.rows if r["E_re"] >= 2.0]
    assert all(x < y for x, y in zip(right, right[1:]))


def test_scan_parallel_matches_serial(free_op):
    # each chunk of a scan is one certify_many batch, so rows must not
    # depend on how the grid is cut: real and complex energies share
    # chunks (a batch of each dtype), and a degenerate energy, whose
    # factor at the isolated site 0 vanishes, sits among certified ones
    a = np.ones(200, dtype=complex)
    a[[99, 100]] = 0.0
    b = np.zeros(200)
    b[100] = 2.5
    isolated = JacobiOperator(j_lo=-100, a=a, b=b)
    approx = realize(almost_mathieu(0.5), RationalRotation(8, 21, 0.3), (-105, 104))
    mixed = np.linspace(-3, 3, 13).astype(complex)
    mixed[1::3] += 0.25j
    cases = [
        (free_op, np.linspace(-3, 3, 13)),
        (free_op, mixed),
        (approx, np.linspace(-3.5, 3.5, 15)),
        (isolated, [-3.0, 2.5, 3.0, 2.2 + 0.3j, 2.5, 1.0, 3.5, -2.5, 2.5]),
    ]
    for op, Es in cases:
        rows = [
            json.dumps(johnson_scan(op, Es, jobs=jobs, spectrum_sizes=SCAN_SIZES).to_json(),
                       sort_keys=True)
            for jobs in (1, 2, 3)
        ]
        assert rows[0] == rows[1] == rows[2]
    assert json.loads(rows[0])["rows"][1]["ds_status"] == "degenerate"


def test_scan_complex_energies(free_op):
    rep = johnson_scan(free_op, [2.5 + 0.5j, 0.0 + 1.0j], spectrum_sizes=SCAN_SIZES)
    assert rep.n_total == 2
    assert rep.n_agree == 2
    assert rep.rows[1]["delta_spec"] > 0.9


def test_scan_csv_roundtrip(free_op, tmp_path):
    rep = johnson_scan(free_op, [3.0, 0.0], spectrum_sizes=SCAN_SIZES)
    out = tmp_path / "scan.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(SCAN_COLUMNS)
    assert len(lines) == 3
    # failed row leaves the unmeasured cells empty
    cells = dict(zip(SCAN_COLUMNS, lines[2].split(",")))
    assert cells["ds_status"] == "failed"
    assert cells["epsilon"] == ""


def test_scan_empty_grid(free_op, tmp_path):
    rep = johnson_scan(free_op, [], spectrum_sizes=SCAN_SIZES)
    assert rep.n_total == 0
    assert rep.summary().startswith("0 energies")
    out = tmp_path / "empty.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines == [",".join(SCAN_COLUMNS)]


def test_scan_json_payload(free_op):
    rep = johnson_scan(free_op, [3.0], spectrum_sizes=SCAN_SIZES)
    doc = rep.to_json()
    assert doc["summary"] == rep.summary()
    assert doc["rows"][0]["ds_status"] == "verified"
    json.dumps(doc)


def loop_tallies(rep, segments, h_grid):
    # the tally with each row's band-edge distance taken segment by segment
    band = max(2.0 * h_grid, 2.0 * rep.resolution)
    agree, marginal, hard = [], [], []
    for row in rep.rows:
        E = complex(row["E_re"], row["E_im"])
        edge = min(
            min(math.hypot(E.real - lo, E.imag), math.hypot(E.real - hi, E.imag))
            for lo, hi in segments
        )
        ok = (row["delta_spec"] > 0.0) == (row["ds_status"] in ("verified", "marginal"))
        margin = row["domination_margin"]
        excused = (
            edge < band
            or (margin is not None and margin < rep.marginal_margin)
            or row["ds_status"] in ("marginal", "degenerate")
        )
        agree.append(ok)
        marginal.append(not ok and excused)
        if not ok and not excused:
            hard.append(E)
    return agree, marginal, hard


@pytest.mark.parametrize("which", ["golden", "two_site"])
def test_scan_tallies_match_the_per_segment_edges(free_op, which):
    if which == "golden":
        op, Es, sizes = free_op, np.linspace(-4, 4, 41), SCAN_SIZES
    else:
        op = periodic_operator([1.0, 1.0], [0.0, 1.5], (-150, 149))
        Es, sizes = np.linspace(-3.0, 3.5, 66), (200, 400, 800)
    rep = johnson_scan(op, Es, spectrum_sizes=sizes)
    want = loop_tallies(rep, spectrum(op, sizes=sizes).segments, float(np.min(np.diff(Es))))
    assert (rep.agree, rep.marginal, rep.hard_disagreements) == want
    assert any(rep.marginal)
    assert all(type(x) is bool for x in rep.agree + rep.marginal)
    json.dumps(rep.to_json())


@pytest.mark.golden
def test_golden_scan_fixture(free_op, tmp_path):
    # committed reference output: any byte change is a behavior change
    rep = johnson_scan(free_op, np.linspace(-4, 4, 41), spectrum_sizes=SCAN_SIZES)
    out = tmp_path / "fresh.csv"
    rep.to_csv(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.golden
def test_golden_scan_fixture_parallel(free_op, tmp_path):
    rep = johnson_scan(
        free_op, np.linspace(-4, 4, 41), jobs=2, spectrum_sizes=SCAN_SIZES
    )
    out = tmp_path / "fresh.csv"
    rep.to_csv(out)
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert list(rep.rows[0])[:3] == ["E_re", "E_im", "delta_spec"]


def dead_coupling_op():
    a = np.ones(200)
    a[90] = 0.0
    return JacobiOperator(j_lo=-100, a=a, b=0.3 * np.cos(np.arange(200)))


@pytest.mark.golden
@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_dead_coupling_fixture(jobs, tmp_path):
    # a zero coupling inside the window makes two interior factors exactly
    # singular, so field rows stop there on both sides, not only at the
    # window's ends as in the free chain
    rep = johnson_scan(
        dead_coupling_op(), np.linspace(-3, 3.5, 27), jobs=jobs, spectrum_sizes=SCAN_SIZES
    )
    out = tmp_path / "fresh.csv"
    rep.to_csv(out)
    assert out.read_bytes() == GOLDEN_DEAD.read_bytes()


@pytest.mark.golden
@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_dead_coupling_complex_fixture(jobs, tmp_path):
    # the same operator off the real axis: complex factors, fields and
    # cone frames, whose numbers follow mat2's arithmetic rule and so do
    # not depend on the SIMD loops numpy picks
    rep = johnson_scan(
        dead_coupling_op(), np.linspace(-3, 3, 25) + 0.3j, jobs=jobs, spectrum_sizes=SCAN_SIZES
    )
    out = tmp_path / "fresh.csv"
    rep.to_csv(out)
    assert out.read_bytes() == GOLDEN_DEAD_COMPLEX.read_bytes()


@pytest.mark.dispatch
@pytest.mark.parametrize("which", ["free", "dead", "dead_complex"])
def test_delta_sep_is_the_extended_field_separation_on_the_golden_grids(free_op, which):
    # certify reads condition 3 off the core field and the end sites, whose
    # rows sit at other positions of other stacks than in the whole
    # extended field; the separation is that field's, bit for bit
    op, Es = {
        "free": (free_op, np.linspace(-4, 4, 41)),
        "dead": (dead_coupling_op(), np.linspace(-3, 3.5, 27)),
        "dead_complex": (dead_coupling_op(), np.linspace(-3, 3, 25) + 0.3j),
    }[which]
    seqs = [cocycle_map(op, E) for E in Es]
    checked = 0
    for seq, cert in zip(seqs, certifier._certify_each(seqs)):
        if isinstance(cert, Exception) or cert.delta_sep is None:
            continue
        _, delta = certifier.verify_separation(
            certifier.power_directions(seq, cert.burn, extend=True)
        )
        assert np.float64(cert.delta_sep).tobytes() == np.float64(delta).tobytes()
        checked += 1
    assert checked >= 10


def test_scan_rows_read_the_marginal_margin_of_certify(free_op):
    # the free chain at E = 2.13 dominates at N = 1 with margin 0.0488,
    # thin against MARGINAL_MARGIN; at E = 3 with margin 4.85
    rep = johnson_scan(free_op, [2.13, 3.0], spectrum_sizes=SCAN_SIZES)
    thin, wide = rep.rows
    assert thin["ds_status"] == "marginal" and thin["N"] == 1
    assert 0.0 < thin["domination_margin"] < certifier.MARGINAL_MARGIN == rep.marginal_margin
    assert wide["ds_status"] == "verified" and 4.0 < wide["domination_margin"] < 10.0
    # both lie outside the spectrum and certify, so both agree
    assert rep.agree == [True, True] and rep.marginal == [False, False]


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_spectrum_error_propagates(free_op, jobs):
    with pytest.raises(ValueError, match="truncation sizes"):
        johnson_scan(free_op, [3.0], jobs=jobs, spectrum_sizes=())


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_chunk_error_propagates(free_op, jobs, monkeypatch):
    # a NaN invariance residual at E = 7 (the free chain's factors hold E
    # at (0, 0)) makes certify raise InternalInconsistency there; that
    # error is not a DegenerateCocycle row, and the scan raises it whether
    # or not its chunk runs first.  The pool's workers are forked from
    # this process, patched stage included.
    orig = certifier.verify_invariance

    def nan_at_seven(seq, fld, threshold):
        ok, res = orig(seq, fld, threshold)
        return (False, math.nan) if seq.values[0, 0, 0].real == 7.0 else (ok, res)

    monkeypatch.setattr(certifier, "verify_invariance", nan_at_seven)
    Es = [3.0, 2.5, 7.0, -3.0, 3.5]
    with pytest.raises(InternalInconsistency, match="invariance residual is nan"):
        johnson_scan(free_op, Es, jobs=jobs, spectrum_sizes=SCAN_SIZES)
