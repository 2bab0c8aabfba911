"""Scan and perturbation drivers: determinism, bookkeeping, reports."""

import json
import math
import multiprocessing.process
import subprocess
import sys
import threading
import time
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
from domsplit import certifier, harness, jacobi
from domsplit.certifier import InternalInconsistency
from domsplit.jacobi import load_operator, save_operator
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


@pytest.mark.parametrize("trials", [2.7, 3.0, True])
def test_perturbation_experiment_refuses_a_count_that_is_not_an_integer(free_seq, trials):
    # 2.7 trials used to run 2 and report 2, and True to run 1; numpy
    # integers are integers
    with pytest.raises(ValueError, match="trials must be >= 0 and an integer"):
        perturbation_experiment(free_seq, 0.5, trials=trials)
    assert perturbation_experiment(free_seq, 0.5, trials=np.int64(2)).to_json() == (
        perturbation_experiment(free_seq, 0.5, trials=2).to_json()
    )


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


@pytest.mark.golden
@pytest.mark.parametrize("which", ["free", "dead", "dead_pair", "periodic"])
def test_pooled_scan_cover_is_the_spectrum(free_op, period2_op, which, monkeypatch):
    # a jobs=2 scan solves each truncation of the cover plan in its own
    # task and assembles them in this process: the cover is spectrum()'s,
    # bit for bit, whether the plan is plain truncations, truncations
    # across a dead coupling, truncations snapped onto two dead couplings
    # or Bloch rings
    if which == "dead_pair":
        a = np.ones(200)
        a[[40, 150]] = 0.0
        op = JacobiOperator(j_lo=-100, a=a, b=0.3 * np.cos(np.arange(200)))
    else:
        op = {"free": free_op, "dead": dead_coupling_op(), "periodic": period2_op}[which]
    plan = jacobi._cover_plan(op, SCAN_SIZES)
    assert len(plan) == 3
    assert any(j2 - j1 != s for s, j1, j2, _ in plan) == (which == "dead_pair")
    assert all(ring for *_, ring in plan) == (which == "periodic")
    built = []

    def keep(plan, eigs):
        built.append(jacobi._cover(plan, eigs))
        return built[-1]

    monkeypatch.setattr(harness, "_cover", keep)
    johnson_scan(op, np.linspace(-3, 3, 13), jobs=2, spectrum_sizes=SCAN_SIZES)
    (got,) = built
    want = spectrum(op, sizes=SCAN_SIZES)
    assert got.sizes == want.sizes
    assert got.merged.tobytes() == want.merged.tobytes()
    assert got.segments == want.segments
    assert got.resolution == want.resolution


def _eigenvalues_failing_at_150(op, j1, j2, ring):
    if j2 - j1 == 150:
        raise RuntimeError("truncation of 150 sites failed")
    return jacobi._truncation_eigenvalues(op, j1, j2, ring)


def test_scan_truncation_error_propagates(free_op, monkeypatch):
    # one truncation of a jobs=2 scan's cover raises: the scan raises
    # that error and no other
    monkeypatch.setattr(harness, "_truncation_eigenvalues", _eigenvalues_failing_at_150)
    with pytest.raises(RuntimeError) as info:
        johnson_scan(free_op, [3.0, 2.5, -3.0, 3.5], jobs=2, spectrum_sizes=SCAN_SIZES)
    assert type(info.value) is RuntimeError
    assert str(info.value) == "truncation of 150 sites failed"


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_spectrum_error_propagates(free_op, jobs):
    with pytest.raises(ValueError, match="truncation sizes"):
        johnson_scan(free_op, [3.0], jobs=jobs, spectrum_sizes=())


@pytest.mark.parametrize("jobs", [2.5, True, 0, -1])
def test_scan_refuses_jobs_that_are_not_counts(free_op, monkeypatch, jobs):
    # 2.5 used to fail in the pool with a bare TypeError, and True ran
    # serially; now each is refused before the cover is planned
    def no_cover(*_args, **_kwargs):
        raise AssertionError("spectrum cover planned for a refused scan")

    monkeypatch.setattr(harness, "_cover_plan", no_cover)
    with pytest.raises(ValueError, match="jobs must be >= 1 and an integer"):
        johnson_scan(free_op, [3.0], jobs=jobs, spectrum_sizes=SCAN_SIZES)


def test_scan_takes_a_numpy_integer_jobs(free_op):
    rep = johnson_scan(free_op, [3.0, 0.5], jobs=np.int64(1), spectrum_sizes=SCAN_SIZES)
    want = johnson_scan(free_op, [3.0, 0.5], jobs=1, spectrum_sizes=SCAN_SIZES)
    assert json.dumps(rep.to_json()) == json.dumps(want.to_json())


def test_loaded_operator_scans_as_the_saved_one(tmp_path):
    # a coupling of 1e-14 is no zero: not before the save and not after
    # the load, so both scans read the same spectrum cover, byte for byte
    a = np.ones(600, complex)
    a[350] = 1e-14
    op = JacobiOperator(j_lo=-300, a=a, b=np.zeros(600))
    path = tmp_path / "op.json"
    save_operator(op, path)
    back = load_operator(path)
    assert back.zero_sites() == op.zero_sites() == []
    Es = np.linspace(-4, 4, 41)
    assert json.dumps(johnson_scan(back, Es).to_json()) == json.dumps(johnson_scan(op, Es).to_json())


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_chunk_error_propagates(free_op, jobs, monkeypatch):
    # a NaN invariance residual at E = 7 (the free chain's factors hold E
    # at (0, 0)) makes certify raise InternalInconsistency there; that
    # error is not a DegenerateCocycle row, and the scan raises it whether
    # or not the cover's helper thread runs beside the certify;
    # test_batched_scan_error_propagates certifies the same grid in batches.
    orig = certifier.verify_invariance

    def nan_at_seven(seq, fld, threshold):
        ok, res = orig(seq, fld, threshold)
        return (False, math.nan) if seq.values[0, 0, 0].real == 7.0 else (ok, res)

    monkeypatch.setattr(certifier, "verify_invariance", nan_at_seven)
    Es = [3.0, 2.5, 7.0, -3.0, 3.5]
    with pytest.raises(InternalInconsistency, match="invariance residual is nan"):
        johnson_scan(free_op, Es, jobs=jobs, spectrum_sizes=SCAN_SIZES)


def _no_child_process(_process):
    raise AssertionError("a child process was started")


def test_import_loads_no_multiprocessing():
    # in a fresh interpreter, importing the package this file tests loads
    # neither multiprocessing nor scipy.linalg's package (jacobi loads
    # only its cython_lapack extension)
    src = str(Path(harness.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import domsplit; "
            "sys.exit(sorted({'multiprocessing', 'scipy.linalg'} & set(sys.modules)) or None)")
    subprocess.run([sys.executable, "-c", code], check=True)


_IMPORT_ORDER = """
import hashlib, json, sys
sys.path.insert(0, {src!r})
{first}
import numpy as np
import scipy.linalg
from domsplit import jacobi, johnson_scan, load_operator
from scipy.linalg import cython_lapack
assert jacobi._CYTHON_LAPACK is cython_lapack is sys.modules["scipy.linalg.cython_lapack"]
op = load_operator({path!r})
scan = johnson_scan(op, np.linspace(-4, 4, 21), jobs=2, spectrum_sizes=(100, 150, 199))
column = jacobi.greens_column(op, 3.0, 0).values
print(json.dumps(scan.to_json()), hashlib.sha256(column.tobytes()).hexdigest())
"""


def test_scipy_linalg_imported_first_shares_its_lapack_module(free_op, tmp_path):
    # imported before domsplit, scipy.linalg loads cython_lapack itself and
    # jacobi binds LAPACK through that module; imported after, it shares
    # the module jacobi loaded.  Either way a scan's JSON and a resolvent
    # column are the same, byte for byte.
    path = tmp_path / "op.json"
    save_operator(free_op, path)
    src = str(Path(harness.__file__).parents[1])
    out = {}
    orders = {
        "scipy.linalg first": "import scipy.linalg, domsplit.jacobi\n"
        "assert domsplit.jacobi._CYTHON_LAPACK is scipy.linalg.cython_lapack",
        "domsplit first": "import domsplit\nassert 'scipy.linalg' not in sys.modules",
    }
    for order, first in orders.items():
        code = _IMPORT_ORDER.format(src=src, first=first, path=str(path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        out[order] = proc.stdout
    assert out["scipy.linalg first"] == out["domsplit first"]
    assert '"rows"' in out["domsplit first"]


def _scan_in_this_thread(op, Es, jobs, monkeypatch):
    # the scan's report, and the thread and window count of each certify
    # batch, with starting a child process made an error
    batches = []
    orig = certifier._certify_batch

    def certify_batch(batch, burn):
        batches.append((threading.current_thread(), len(batch.seqs)))
        return orig(batch, burn)

    monkeypatch.setattr(certifier, "_certify_batch", certify_batch)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_child_process)
    return johnson_scan(op, Es, jobs=jobs, spectrum_sizes=SCAN_SIZES), batches


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_scan_of_one_batch_starts_no_process(jobs, monkeypatch):
    # 41 energies of a 600-site window are 49,200 product rows, one batch:
    # certify runs in this thread, beside the cover's helper threads, and
    # gives the serial rows
    op = JacobiOperator(j_lo=-300, a=np.ones(600, complex), b=np.zeros(600))
    Es = np.linspace(-4, 4, 41)
    want = json.dumps(johnson_scan(op, Es, spectrum_sizes=SCAN_SIZES).to_json())
    got, batches = _scan_in_this_thread(op, Es, jobs, monkeypatch)
    assert json.dumps(got.to_json()) == want
    assert batches == [(threading.current_thread(), 41)]


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("grid", ["real", "complex"])
def test_scan_of_several_batches_starts_no_process(free_op, monkeypatch, grid, jobs):
    # a real energy of 200 sites is 400 product rows, so 13 of them are
    # seven batches of at most 1,000; a complex energy counts three times,
    # 1,200 rows, and runs alone, so the mixed grid's four complex and
    # nine real energies are nine batches.  This thread certifies them
    # all and gives the serial rows.
    Es = np.linspace(-3, 3, 13).astype(complex)
    if grid == "complex":
        Es[1::3] += 0.25j
    want = json.dumps(johnson_scan(free_op, Es, spectrum_sizes=SCAN_SIZES).to_json())
    monkeypatch.setattr(certifier, "BATCH_ROWS", 1_000)
    got, batches = _scan_in_this_thread(free_op, Es, jobs, monkeypatch)
    assert json.dumps(got.to_json()) == want
    assert [thread for thread, _ in batches] == [threading.current_thread()] * (7 if grid == "real" else 9)


@pytest.mark.golden
def test_golden_scan_fixture_batched(free_op, tmp_path, monkeypatch):
    # the free-chain golden at jobs=2, certified as three batches of at
    # most 8,000 product rows (20 energies of 200 sites each)
    monkeypatch.setattr(certifier, "BATCH_ROWS", 8_000)
    rep, batches = _scan_in_this_thread(free_op, np.linspace(-4, 4, 41), 2, monkeypatch)
    assert batches == [(threading.current_thread(), n) for n in (20, 20, 1)]
    out = tmp_path / "fresh.csv"
    rep.to_csv(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_batched_scan_error_propagates(free_op, monkeypatch):
    # test_scan_chunk_error_propagates, with the grid certified as
    # batches of two energies: the error of the second batch ends the
    # scan, and no helper thread outlives it
    orig = certifier.verify_invariance

    def nan_at_seven(seq, fld, threshold):
        ok, res = orig(seq, fld, threshold)
        return (False, math.nan) if seq.values[0, 0, 0].real == 7.0 else (ok, res)

    monkeypatch.setattr(certifier, "verify_invariance", nan_at_seven)
    monkeypatch.setattr(certifier, "BATCH_ROWS", 800)
    threads = threading.active_count()
    with pytest.raises(InternalInconsistency, match="invariance residual is nan"):
        johnson_scan(free_op, [3.0, 2.5, 7.0, -3.0, 3.5], jobs=2, spectrum_sizes=SCAN_SIZES)
    assert threading.active_count() == threads


def test_scan_certify_error_cancels_the_pending_cover(free_op, monkeypatch):
    # this thread's certify raises while the one helper thread solves the
    # largest truncation: the scan raises the certify error, the two
    # smaller truncations, still pending, never run, and the helper has
    # ended when the scan returns
    ran, started = [], threading.Event()

    def slow_eigenvalues(op, j1, j2, ring):
        ran.append(j2 - j1)
        started.set()
        time.sleep(0.3)
        return jacobi._truncation_eigenvalues(op, j1, j2, ring)

    def failing_certify(seqs):
        assert started.wait(10)
        raise RuntimeError("certify failed")

    monkeypatch.setattr(harness, "_truncation_eigenvalues", slow_eigenvalues)
    monkeypatch.setattr(harness, "_certify_each", failing_certify)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="certify failed"):
        johnson_scan(free_op, [3.0, 2.5], jobs=2, spectrum_sizes=SCAN_SIZES)
    assert ran == [199]
    assert threading.active_count() == threads


def test_scan_cover_thread_error_ends_the_scan(free_op, monkeypatch):
    # the helper thread's first truncation, the largest, raises while this
    # thread certifies: the scan raises that error once the certify is
    # done, and no helper thread outlives it
    failed = threading.Event()
    orig_certify = harness._certify_each

    def failing_eigenvalues(op, j1, j2, ring):
        if j2 - j1 == 199:
            assert threading.current_thread() is not threading.main_thread()
            failed.set()
            raise FloatingPointError("truncation of 199 sites failed")
        return jacobi._truncation_eigenvalues(op, j1, j2, ring)

    def certify_after_the_failure(seqs):
        assert failed.wait(10)
        return orig_certify(seqs)

    monkeypatch.setattr(harness, "_truncation_eigenvalues", failing_eigenvalues)
    monkeypatch.setattr(harness, "_certify_each", certify_after_the_failure)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="truncation of 199 sites failed"):
        johnson_scan(free_op, [3.0, 2.5], jobs=2, spectrum_sizes=SCAN_SIZES)
    assert threading.active_count() == threads
