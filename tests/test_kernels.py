import numpy as np
import pytest

from fockdirichlet import AdmissibleKernel, admissibility_report


def test_fourier_closed_form_values():
    k = AdmissibleKernel()
    assert k.fourier(0.0).real == pytest.approx(0.5, abs=1e-14)
    assert k.fourier(2.0).real == pytest.approx(0.5 / np.cosh(0.5), abs=1e-14)
    assert k.fourier(2.0).real == pytest.approx(0.443409, abs=5e-7)


def test_fourier_quadrature_agreement():
    for kern in [AdmissibleKernel(), AdmissibleKernel(0.7, 2, 0.0),
                 AdmissibleKernel(0.0, 1, 0.5)]:
        for s in [0.0, 1.0, -2.0, 2.0, 4.0, -4.0]:
            closed = kern.fourier(s)
            quad = kern.fourier_quad(s)
            assert abs(closed - quad) < 1e-8


def test_gaussian_factor_at_zero():
    raw = AdmissibleKernel(0.0, 1, 0.0)
    smooth = AdmissibleKernel(0.0, 1, 0.7)
    assert smooth.fourier(0.0) == pytest.approx(raw.fourier(0.0).real, abs=1e-14)
    s = 1.3
    assert smooth.fourier(s).real == pytest.approx(
        raw.fourier(s).real * np.exp(-0.7 ** 2 * s ** 2 / 2), abs=1e-14)


def test_raw_contour_line_is_singular():
    raw = AdmissibleKernel()
    with pytest.raises(ValueError):
        raw.eta_strip(0.0, 0.25)
    # inside the strip the direct continuation works
    val = raw.eta_strip(np.array([0.0]), 0.1)
    assert np.isfinite(val).all()


def test_smoothed_contour_sum_is_gaussian():
    # for kappa=0, n=1 the smoothed contour sum collapses to the Gaussian
    k = AdmissibleKernel(0.0, 1, 0.5)
    t = np.linspace(-2, 2, 9)
    got = k.contour_sum(t)
    want = np.exp(-t ** 2 / (2 * 0.25)) / (0.5 * np.sqrt(2 * np.pi))
    assert np.max(np.abs(got - want)) < 1e-10


def test_contour_constant_equals_twice_fourier_zero():
    for kern in [AdmissibleKernel(0.0, 1, 0.5), AdmissibleKernel(0.0, 2, 0.3)]:
        C = kern.contour_constant()
        assert abs(C - 2 * kern.fourier(0.0)) < 1e-9


def test_admissibility_report_raw_and_smoothed():
    raw = admissibility_report(AdmissibleKernel())
    assert raw.condition1_ok
    assert not raw.condition2_ok          # singular contour line, flagged
    assert any("poles" in n for n in raw.notes)
    assert raw.condition3_ok and np.isfinite(raw.decay_M)

    smooth = admissibility_report(AdmissibleKernel(0.0, 1, 0.5))
    assert smooth.condition1_ok and smooth.condition2_ok and smooth.condition3_ok

    shifted = admissibility_report(AdmissibleKernel(1.5, 1, 0.0))
    assert any("complex" in n for n in shifted.notes)
    assert shifted.imag_max > 1e-6


def test_invalid_parameters():
    with pytest.raises(ValueError):
        AdmissibleKernel(n=0)
    with pytest.raises(ValueError):
        AdmissibleKernel(sigma=-0.1)
