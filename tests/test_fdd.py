import copy
import dataclasses
import functools
import hashlib
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc, betaincc, fdtrc, fdtri, ndtr, ndtri

from cecbench import _quantiles, fdd
from cecbench.fdd import (
    CsvParseError,
    CsvSchema,
    DetectionResult,
    Drift,
    MeanShift,
    ProcessSample,
    VarianceBump,
    fit_pca,
    generate_synthetic_te,
    ingest_csv,
    residual_contributions,
    score,
    score_stream,
    write_detections,
)


def _samples(matrix):
    return [ProcessSample(float(i), row) for i, row in enumerate(np.asarray(matrix, dtype=float))]


@pytest.fixture(scope="module")
def fitted():
    train, _ = generate_synthetic_te(4000, 0, None, seed=101, n_vars=20)
    return fit_pca(train, n_components=8, alpha=0.01), train


# ------------------------------------------------------------------- fitting


def test_fit_requires_enough_samples():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fit_pca(_samples(rng.normal(size=(30, 5))), n_components=2)
    with pytest.raises(ValueError, match="^no samples$"):
        fit_pca([])


def test_fit_rejects_constant_columns():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 4))
    x[:, 2] = 7.0
    with pytest.raises(ValueError, match="constant"):
        fit_pca(_samples(x), n_components=2)


def test_fit_rejects_too_many_components():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fit_pca(_samples(rng.normal(size=(100, 4))), n_components=5)


def test_correlated_pair_recovers_principal_direction():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4000, 2))
    rho = 0.9
    x = np.column_stack([z[:, 0], rho * z[:, 0] + np.sqrt(1 - rho**2) * z[:, 1]])
    model = fit_pca(_samples(x), n_components=1)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(model.loadings[:, 0]), expected, atol=0.02)


def test_isotropic_full_rank_fit_is_degenerate():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(500, 4))
    with pytest.warns(UserWarning, match="degenerate"):
        model = fit_pca(_samples(x), n_components=4)
    assert model.degenerate_residual
    assert model.residual_eigenvalues.size == 0 or model.residual_eigenvalues.max() < 1e-10
    assert model.spe_limit == 0.0


def test_wide_fit_with_reference_settings():
    train, _ = generate_synthetic_te(1000, 0, None, seed=3)
    model = fit_pca(train, n_components=17, alpha=0.01)
    assert model.n_components == 17
    assert model.spe_limit > 0
    assert model.t2_limit > 0


def test_loadings_orthonormal(fitted):
    model, _ = fitted
    gram = model.loadings.T @ model.loadings
    assert np.max(np.abs(gram - np.eye(model.n_components))) < 1e-8


def test_eigenvalues_non_increasing(fitted):
    model, _ = fitted
    spectrum = np.concatenate([model.eigenvalues, model.residual_eigenvalues])
    assert (np.diff(spectrum) <= 1e-12).all()


def test_fit_is_deterministic():
    train, _ = generate_synthetic_te(500, 0, None, seed=5, n_vars=10)
    a = fit_pca(train, n_components=4)
    b = fit_pca(train, n_components=4)
    assert np.array_equal(a.loadings, b.loadings)
    assert a.spe_limit == b.spe_limit


# ---------------------------------------------------------- control limits


@functools.cache
def _log_beta_half(b):
    """ln B(1/2, b) for an integer or half-integer b, by B(1/2, j + 1) = B(1/2, j) j / (j + 1/2).

    scipy's betaln(0.5, b) is off by 3.5e-11 at b = 5e4.
    """
    j0 = 1.0 if b % 1 == 0 else 0.5
    steps = math.fsum(math.log1p(0.5 / (j0 + i)) for i in range(int(b - j0)))
    return math.log(2.0 if j0 == 1 else math.pi) - steps


def _f_log_sf(k, dfd, f):
    """ln P(F(k, dfd) > f), the reference for _quantiles.f_isf.

    scipy's fdtrc is no reference here: it rounds 1 - x, which costs up to
    2.7e-12 relative at dfd = 1e5, and near alpha = 1e-300 its incomplete beta
    underflows for k >= 8. Instead, with x = k f / (k f + dfd) ~ Beta(a, b),
    the upper tail Q_a grows by one positive term per unit step of a:
    Q_(a+1) = Q_a + x^a (1 - x)^b / (a B(a, b)). It starts from Q_1 = (1 - x)^b
    for even k and from scipy's Q_(1/2) for odd k. Whichever of x and 1 - x is
    below 1/2 is kept exact.
    """
    a, b = k / 2, dfd / 2
    x, y = k * f / (k * f + dfd), dfd / (k * f + dfd)
    log_x, log_y = (math.log(x), math.log1p(-x)) if x < 0.5 else (math.log1p(-y), math.log(y))
    if k % 2 == 0:
        a0, logs = 1.0, [b * log_y]
        log_term = math.log(b) + log_x + b * log_y
    else:
        a0, log_term = 0.5, 0.5 * log_x + b * log_y + math.log(2.0) - _log_beta_half(b)
        q = betaincc(0.5, b, x) if x < 0.5 else betainc(b, 0.5, y)
        if q >= sys.float_info.min:
            logs = [math.log(q)]
        else:
            # scipy's Q_(1/2) underflowed. It lies between (1 - x)^b / (b B(1/2, b))
            # and x^(-1/2) times that: take the midpoint, and check its share below.
            log_low = b * log_y - math.log(b) - _log_beta_half(b)
            logs = [log_low + math.log1p(math.exp(-0.5 * log_x)) - math.log(2.0)]
            log_half_width = log_low + math.log(math.expm1(-0.5 * log_x) / 2)
    while a0 < a:
        logs.append(log_term)
        log_term += math.log((a0 + b) / (a0 + 1)) + log_x
        a0 += 1
    top = max(logs)
    log_sf = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    if k % 2 and q < sys.float_info.min:
        assert log_half_width - log_sf < math.log(1e-13), (k, dfd, f)
    return log_sf


QUANTILE_ALPHAS = (1e-300, 1e-100, 1e-17, 1e-10, 1e-6, 1e-3, 0.01, 0.05, 0.5)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 17, 26, 51, 52])
def test_f_quantile_matches_scipy(k):
    for dfd in (9 * k, 1000, 10**4, 10**5):
        for alpha in QUANTILE_ALPHAS:
            f = _quantiles.f_isf(k, dfd, alpha)
            assert abs(math.expm1(_f_log_sf(k, dfd, f) - math.log(alpha))) <= 1e-12, (dfd, alpha)
            if alpha >= 1e-3:
                assert f == pytest.approx(fdtri(k, dfd, 1 - alpha), rel=1e-12), (dfd, alpha)


@pytest.mark.parametrize("alpha", QUANTILE_ALPHAS)
def test_normal_quantile_matches_scipy(alpha):
    z = _quantiles.norm_isf(alpha)
    assert ndtr(-z) == pytest.approx(alpha, rel=1e-12)
    if alpha >= 1e-3:
        assert z == pytest.approx(ndtri(1 - alpha), rel=1e-12)
    # The SPE limit at the reference alpha is the one scipy gave, bit for bit.
    assert _quantiles.norm_isf(0.01) == ndtri(0.99)


@pytest.mark.parametrize("alpha", [1e-17, 1e-300])
def test_tiny_alpha_gives_finite_limits(alpha):
    # 1 - alpha rounds to 1.0 here; the limits come from alpha itself.
    train, test = generate_synthetic_te(400, 40, MeanShift((0, 1), 1e4), seed=31, n_vars=10)
    n, k = len(train), 3
    model = fit_pca(train, n_components=k, alpha=alpha)
    f = _quantiles.f_isf(k, n - k, alpha)
    assert model.t2_limit == k * (n**2 - 1) / (n * (n - k)) * f
    assert fdtrc(k, n - k, f) == pytest.approx(alpha, rel=1e-12)
    assert ndtr(-_quantiles.norm_isf(alpha)) == pytest.approx(alpha, rel=1e-12)
    loose = fit_pca(train, n_components=k, alpha=0.01)
    assert loose.t2_limit < model.t2_limit < math.inf
    assert loose.spe_limit < model.spe_limit < math.inf
    assert any(r.fault_flag for r in score_stream(model, test[n:]))


def test_alpha_near_one_gives_real_limits():
    # The Jackson-Mudholkar base is negative here, and a fractional power of it complex.
    train, test = generate_synthetic_te(400, 0, None, seed=31, n_vars=10)
    model = fit_pca(train, n_components=3, alpha=1 - 2**-53)
    assert type(model.spe_limit) is float and type(model.t2_limit) is float
    assert 0.0 <= model.spe_limit < fit_pca(train, n_components=3, alpha=0.5).spe_limit
    assert all(r.fault_flag for r in score_stream(model, test))


# ------------------------------------------------------------------- scoring


def test_score_at_training_mean_is_clean(fitted):
    model, _ = fitted
    res = score(model, ProcessSample(0.0, model.mean.copy()))
    assert res.spe == 0.0
    assert res.t2 == 0.0
    assert not res.fault_flag


def test_score_flags_large_excursion(fitted):
    model, _ = fitted
    sample = model.mean.copy()
    sample[3] += 10.0 * model.scale[3]
    res = score(model, ProcessSample(0.0, sample))
    assert res.fault_flag


def test_score_rejects_dimension_mismatch(fitted):
    model, _ = fitted
    with pytest.raises(ValueError):
        score(model, ProcessSample(0.0, np.zeros(model.n_vars + 1)))


def test_spe_pythagorean_decomposition(fitted):
    model, train = fitted
    for sample in train[:50]:
        z = (sample.values - model.mean) / model.scale
        scores = model.loadings.T @ z
        res = score(model, sample)
        assert res.spe == pytest.approx(float(z @ z) - float(scores @ scores), abs=1e-8)


def test_scores_invariant_under_rescaling():
    train, test = generate_synthetic_te(600, 0, None, seed=7, n_vars=12)
    factor = 3.7
    scaled_train = [ProcessSample(s.timestamp, s.values * factor) for s in train]
    scaled_test = [ProcessSample(s.timestamp, s.values * factor) for s in test[:40]]
    m1 = fit_pca(train, n_components=5)
    m2 = fit_pca(scaled_train, n_components=5)
    for raw, scaled in zip(test[:40], scaled_test):
        r1 = score(m1, raw)
        r2 = score(m2, scaled)
        assert r1.spe == pytest.approx(r2.spe, rel=1e-8)
        assert r1.t2 == pytest.approx(r2.t2, rel=1e-8)


def test_training_t2_exceedance_near_alpha(fitted):
    model, train = fitted
    results = score_stream(model, train)
    rate = np.mean([r.t2 > model.t2_limit for r in results])
    assert model.alpha / 3 <= rate <= 3 * model.alpha


def _reference_score(model, sample):
    """The per-row expression score_stream's matrix blocks replace."""
    z = (sample.values - model.mean) / model.scale
    scores = model.loadings.T @ z
    t2 = float(np.sum(scores**2 / model.eigenvalues))
    residual = z - model.loadings @ scores
    spe = float(residual @ residual)
    return spe, t2, spe > model.spe_limit or t2 > model.t2_limit


@pytest.fixture(scope="module")
def faulted_stream():
    # 500 fault-free rows, then 525 faulted ones: the stream has both flags.
    train, test = generate_synthetic_te(1000, 525, MeanShift((0, 4, 9), 3.0), seed=23, n_vars=20)
    return fit_pca(train, n_components=8), test[500:]


@pytest.mark.parametrize("length", [0, 1, 511, 512, 513, 1025])
def test_score_stream_matches_per_row_reference(faulted_stream, length):
    model, stream = faulted_stream
    samples = stream[:length]
    before = [s.values.copy() for s in samples]
    results = score_stream(model, samples)
    assert len(results) == length
    for sample, res in zip(samples, results):
        spe, t2, flag = _reference_score(model, sample)
        assert res.timestamp == sample.timestamp
        assert res.spe == pytest.approx(spe, rel=1e-12)
        assert res.t2 == pytest.approx(t2, rel=1e-12)
        assert res.fault_flag == flag
        assert (res.spe_limit, res.t2_limit) == (model.spe_limit, model.t2_limit)
    assert all(np.array_equal(s.values, v) for s, v in zip(samples, before))
    if length == 1025:
        assert 100 < sum(r.fault_flag for r in results) < 1000


def test_score_is_one_row_of_score_stream(faulted_stream):
    model, stream = faulted_stream
    results = score_stream(model, stream[:600])
    for i in (0, 511, 512, 599):
        one = score(model, stream[i])
        assert one == score_stream(model, [stream[i]])[0]
        # BLAS takes a matrix-vector path for one row and a matrix-matrix path
        # for a block, so the two may differ in the last bit.
        assert one.spe == pytest.approx(results[i].spe, rel=1e-12)
        assert one.t2 == pytest.approx(results[i].t2, rel=1e-12)
        assert one.fault_flag == results[i].fault_flag


def test_score_stream_rejects_mixed_dimensions(fitted):
    model, train = fitted
    odd = ProcessSample(0.0, np.zeros(model.n_vars + 1))
    with pytest.raises(ValueError):
        score_stream(model, [*train[:3], odd])
    with pytest.raises(ValueError):
        score_stream(model, [*train[:600], odd])


def test_residual_contributions_match_reference_order(faulted_stream):
    model, stream = faulted_stream
    for sample in stream[:20]:
        before = sample.values.copy()
        ranked = residual_contributions(model, sample)
        z = (sample.values - model.mean) / model.scale
        contrib = (z - model.loadings @ (model.loadings.T @ z)) ** 2
        order = np.argsort(contrib)[::-1]
        assert [i for i, _ in ranked] == order.tolist()
        assert all(type(i) is int and type(v) is float for i, v in ranked)
        assert [v for _, v in ranked] == pytest.approx(contrib[order].tolist(), rel=1e-12)
        assert np.array_equal(sample.values, before)


def test_residual_contributions_rank_shifted_variable(fitted):
    model, _ = fitted
    sample = model.mean.copy()
    sample[5] += 8.0 * model.scale[5]
    ranked = residual_contributions(model, ProcessSample(0.0, sample))
    assert ranked[0][0] == 5
    assert ranked[0][1] > ranked[-1][1]


# ----------------------------------------------------------------- generator


def test_generator_deterministic():
    a_train, a_test = generate_synthetic_te(50, 10, MeanShift((0,), 2.0), seed=11, n_vars=6)
    b_train, b_test = generate_synthetic_te(50, 10, MeanShift((0,), 2.0), seed=11, n_vars=6)
    assert np.array_equal(
        np.vstack([s.values for s in a_train]), np.vstack([s.values for s in b_train])
    )
    assert np.array_equal(
        np.vstack([s.values for s in a_test]), np.vstack([s.values for s in b_test])
    )


def test_generator_no_fault_matches_training_statistics():
    train, test = generate_synthetic_te(4000, 0, None, seed=13, n_vars=8)
    x = np.vstack([s.values for s in train])
    y = np.vstack([s.values for s in test])
    assert np.allclose(x.mean(axis=0), y.mean(axis=0), atol=0.2)
    assert np.allclose(x.std(axis=0), y.std(axis=0), rtol=0.1)


def test_generator_requires_spec_for_faults():
    with pytest.raises(ValueError):
        generate_synthetic_te(10, 5, None, seed=1)


def test_generator_rejects_fault_variables_outside_the_plant():
    # A negative index would fault a variable counted from the end, and one
    # past the last would fail with IndexError deep in the injection.
    for spec in (Drift(-1, 1.0), MeanShift((-3,), 4.0), VarianceBump(-2, 4.0), MeanShift((60,), 4.0),
                 MeanShift((3, 52), 4.0), Drift(52, 1.0), VarianceBump(99, 4.0)):
        with pytest.raises(ValueError, match="must lie in"):
            generate_synthetic_te(10, 5, spec, seed=1, n_vars=52)
    with pytest.raises(ValueError, match="unknown fault spec"):
        generate_synthetic_te(10, 5, "drift", seed=1)
    # The first and the last variable are both in range.
    _, test = generate_synthetic_te(10, 5, MeanShift((0, 51), 4.0), seed=1, n_vars=52)
    assert len(test) == 15


@pytest.mark.parametrize("spec", [Drift(1.5, 1.0), MeanShift((1.5,), 4.0), VarianceBump(True, 4.0), MeanShift((2, False), 4.0)])
def test_generator_rejects_fault_variables_that_are_not_integers(spec):
    # 1.5 lies in range but indexes nothing, and True would fault variable 1.
    with pytest.raises(ValueError, match="must be an integer"):
        generate_synthetic_te(10, 5, spec, seed=1, n_vars=8)


@pytest.mark.parametrize(
    "spec", [MeanShift((2,), math.inf), MeanShift((0, 4), math.nan), Drift(5, -math.inf)]
)
def test_generator_rejects_non_finite_draws(spec):
    with pytest.raises(ValueError, match="^all readings must be finite$"):
        generate_synthetic_te(20, 5, spec, seed=1, n_vars=6)


def test_generator_takes_numpy_integer_fault_variables():
    plain = generate_synthetic_te(10, 5, MeanShift((1, 3), 4.0), seed=1, n_vars=8)[1]
    numpy = generate_synthetic_te(10, 5, MeanShift((np.int64(1), np.uint8(3)), 4.0), seed=1, n_vars=8)[1]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(plain, numpy))
    generate_synthetic_te(10, 5, Drift(np.int32(7), 1.0), seed=1, n_vars=8)


def test_drift_fault_eventually_flags():
    train, test = generate_synthetic_te(2000, 300, Drift(variable=2, slope=0.05), seed=17, n_vars=12)
    model = fit_pca(train, n_components=5)
    tail = score_stream(model, test[2000:])
    assert any(r.fault_flag for r in tail[-50:])


def test_variance_bump_raises_flag_rate():
    train, test = generate_synthetic_te(2000, 400, VarianceBump(variable=1, factor=16.0), seed=19, n_vars=12)
    model = fit_pca(train, n_components=5)
    normal_rate = np.mean([r.fault_flag for r in score_stream(model, test[:2000])])
    fault_rate = np.mean([r.fault_flag for r in score_stream(model, test[2000:])])
    assert fault_rate > normal_rate + 0.2


def test_variance_bump_validation():
    with pytest.raises(ValueError):
        VarianceBump(variable=0, factor=0.0)


# --------------------------------------------------------------------- CSV IO


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.5,-3\n4,5,6\n7,8,9.25\n")
    samples = ingest_csv(path)
    assert len(samples) == 3
    assert np.array_equal(samples[0].values, [1.0, 2.5, -3.0])
    assert np.array_equal(samples[2].values, [7.0, 8.0, 9.25])


def test_ingest_header_skip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n")
    samples = ingest_csv(path, CsvSchema(has_header=True))
    assert len(samples) == 1


def test_ingest_empty_file_warns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.warns(UserWarning, match="no data rows"):
        assert ingest_csv(path) == []


def test_ingest_reports_bad_cell_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(CsvParseError, match=r"line 2, column 2"):
        ingest_csv(path)


def test_ingest_reports_width_mismatch(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(CsvParseError, match="line 2"):
        ingest_csv(path)


def test_ingest_locates_non_finite_cell(tmp_path):
    path = tmp_path / "nonfinite.csv"
    for cell in ("nan", "-inf", "1e400"):
        path.write_text(f"1,2,3\n4,{cell},6\n")
        with pytest.raises(CsvParseError, match=rf"line 2, column 2: not finite: '{cell}'"):
            ingest_csv(path)


@pytest.mark.parametrize("delimiter", ["", ";;", "\n", "\r", '"'])
def test_csv_schema_rejects_bad_delimiter(delimiter):
    with pytest.raises(ValueError, match="delimiter"):
        CsvSchema(delimiter=delimiter)


def test_well_formed_file_takes_the_bulk_path(tmp_path, monkeypatch):
    def scan(path, schema):
        raise AssertionError("fell back to the per-cell scan")

    monkeypatch.setattr(fdd, "_scan_csv", scan)
    path = tmp_path / "plant.csv"
    path.write_bytes(b"a;b;c\r\n1.5;-2;3e-3\r\n\r\n 4 ;5;6\r\n")
    samples = ingest_csv(path, CsvSchema(has_header=True, delimiter=";"))
    assert [s.timestamp for s in samples] == [0.0, 1.0]
    assert np.array_equal(samples[0].values, [1.5, -2.0, 3e-3])
    assert np.array_equal(samples[1].values, [4.0, 5.0, 6.0])


def _outcome(read, path, schema):
    """What a reader returns or raises, bit for bit, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            samples = read(path, schema)
            result = [(s.timestamp, s.values.dtype, s.values.tobytes()) for s in samples]
        except Exception as exc:  # the exception is the outcome
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_CELLS = st.one_of(
    _NUMBERS,
    st.sampled_from(
        [" 1", "2 ", "+1", "-.5", "1.", "1_000", "inf", "-Infinity", "nan", "1e400", "\ufeff1",
         '"1"', '"', '"1,2"', "", " ", "abc", "\x1c1", "1\x1f", "\u0661", "0x10"]
    ),
)


_FLAWS = st.one_of(
    st.lists(_CELLS, min_size=1, max_size=5),
    st.sampled_from([[], [" "], ["", ""], ["\t"], ["a", "b"], ['"a'], ['"h', 'x"']]),
)


@st.composite
def _csv_texts(draw):
    """Rows of numbers of one width, with up to two flawed rows put anywhere."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_NUMBERS, min_size=width, max_size=width), max_size=6))
    for flaw in draw(st.lists(_FLAWS, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), flaw)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(delimiter.join(row) for row in rows)
    text = draw(st.sampled_from(["", "\ufeff"])) + text + draw(st.sampled_from([newline, ""]))
    return text, CsvSchema(has_header=draw(st.booleans()), delimiter=delimiter)


@settings(max_examples=300, deadline=None)
@given(case=_csv_texts())
@example(case=('"a\n1,2\n3,4\n', CsvSchema(has_header=True)))
@example(case=("1,2\x1c\n3,4\n", CsvSchema()))
@example(case=("1,2\n\n3,nan\n", CsvSchema()))
def test_bulk_read_matches_the_scan(tmp_path_factory, case):
    text, schema = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(ingest_csv, path, schema) == _outcome(fdd._scan_csv, path, schema)


def test_write_detections_schema(tmp_path, fitted):
    model, train = fitted
    results = score_stream(model, train[:5])
    path = tmp_path / "out.csv"
    write_detections(results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp,spe,t2,spe_limit,t2_limit,fault_flag"
    assert len(lines) == 6
    assert lines[1].split(",")[5] in ("0", "1")


# ------------------------------------------------------------ golden pipeline


def _monitor_pipeline_digest(directory, seed):
    """sha256 over one monitor pass: ingest, score, diagnose the flagged rows, write.

    The plant CSV is written with repr floats, as the benchmark writes it, so
    the bulk reader returns the generator's values bit for bit.
    """
    train, test = generate_synthetic_te(700, 400, MeanShift((0, 5, 10, 20, 30), 4.0), seed=seed)
    model = fit_pca(train, n_components=17, alpha=0.01)
    plant = directory / f"plant-{seed}.csv"
    plant.write_text("".join(",".join(repr(float(v)) for v in s.values) + "\n" for s in test))
    samples = ingest_csv(plant)
    results = score_stream(model, samples)
    out = directory / f"detections-{seed}.csv"
    write_detections(results, out)
    h = hashlib.sha256()
    for s in samples:
        h.update(repr(s.timestamp).encode())
        h.update(s.values.tobytes())
    for r in results:
        h.update(repr(tuple(getattr(r, f.name) for f in dataclasses.fields(r))).encode())
    for s, r in zip(samples, results):
        if r.fault_flag:
            h.update(repr(residual_contributions(model, s)).encode())
    h.update(out.read_bytes())
    return h.hexdigest(), len(samples), sum(r.fault_flag for r in results)


# Taken before the trusted-row, slots and writer changes to fdd.py; each of
# them must leave every byte of the pipeline's output as it was. Re-recorded
# once since, when fit_pca's F quantile moved from scipy's fdtri to
# _quantiles.f_isf: t2_limit went from 34.70338182779599 to 34.703381827796
# (exact: 34.7033818277959758), and with the old t2_limit put back into the
# fitted model the pipeline gave the old digests, 6458c0f3… and 0b5dbe08….
MONITOR_DIGESTS = {
    7011: "aa9f28df63769ea36045e51170b65912848620efe20038f9c4c962000ff31e89",
    7012: "2e10111de0f80520924ff554ae36f650e40c8380d2b867013748c76fb91f4926",
}


@pytest.mark.parametrize("seed", sorted(MONITOR_DIGESTS))
def test_golden_monitor_pipeline(tmp_path, seed):
    digest, rows, flagged = _monitor_pipeline_digest(tmp_path, seed)
    assert rows == 1100
    assert 400 <= flagged < 1100
    assert digest == MONITOR_DIGESTS[seed]


def test_bulk_rows_equal_checked_rows(tmp_path):
    _, test = generate_synthetic_te(30, 5, MeanShift((1,), 3.0), seed=29, n_vars=7)
    path = tmp_path / "plant.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in s.values) + "\n" for s in test))
    matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    # The generator's rows are trusted too; its test stream starts at t = 30.
    for samples, t0 in ((ingest_csv(path), 0), (test, 30)):
        assert len(samples) == len(matrix)
        for t, (sample, row) in enumerate(zip(samples, matrix), start=t0):
            checked = ProcessSample(float(t), row)
            assert type(sample) is ProcessSample
            assert type(sample.timestamp) is float and sample.timestamp == checked.timestamp
            assert sample.values.dtype == checked.values.dtype
            assert sample.values.shape == checked.values.shape
            assert sample.values.tobytes() == checked.values.tobytes()


@pytest.mark.parametrize("values", [[1.0, float("nan")], [float("inf")], [[1.0, 2.0]]])
def test_process_sample_keeps_its_checks(values):
    with pytest.raises(ValueError):
        ProcessSample(0.0, values)


# ------------------------------------------------------------------ row types


def test_row_types_behave_as_frozen_dataclasses():
    sample = ProcessSample(3.0, [1.0, 2.0])
    result = DetectionResult(3.0, 0.5, 1.5, 2.0, 4.0, False)
    for row, field in ((sample, "timestamp"), (result, "spe")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, field, 9.0)
        assert not hasattr(row, "__dict__")
    # Equal fields compare equal; a DetectionResult hashes by its fields and
    # a ProcessSample, which holds an array, does not hash at all.
    assert result == DetectionResult(3.0, 0.5, 1.5, 2.0, 4.0, False)
    assert result != DetectionResult(3.0, 0.5, 1.5, 2.0, 4.0, True)
    assert hash(result) == hash((3.0, 0.5, 1.5, 2.0, 4.0, False))
    assert sample == ProcessSample(3.0, sample.values)
    assert sample == ProcessSample(3.0, [1.0, 2.0])
    assert sample != ProcessSample(3.0, [1.0, 2.5])
    assert sample != ProcessSample(4.0, [1.0, 2.0])
    assert sample != ProcessSample(3.0, [1.0])
    with pytest.raises(TypeError):
        hash(sample)
    for copied in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample)):
        assert copied.timestamp == 3.0 and copied.values is not sample.values
        assert copied.values.tobytes() == sample.values.tobytes()
    for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert copied == result
    moved = dataclasses.replace(sample, timestamp=4.0)
    assert moved.timestamp == 4.0 and moved.values is sample.values
    assert dataclasses.replace(result, fault_flag=True).fault_flag
    with pytest.raises(ValueError):
        dataclasses.replace(sample, values=[float("inf")])
