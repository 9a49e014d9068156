import json
import pathlib
from fractions import Fraction

import pytest

from genform.cli import cover_from_json
from genform.cover import (
    ChartData,
    CoverData,
    ExpConstant,
    canonicalize,
    general_gd,
    glue_validate,
    ideal_residual,
    rescaled_soul,
)
from genform.exterior import OrdinaryForm, ext_d
from genform.gform import GenForm, gd
from genform.randgen import FormRandom
from genform.ring import ConstructionError, ExpPoly, InputError, Polynomial

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    with open(FIXTURES / name) as fh:
        return cover_from_json(json.load(fh))


def test_ideal_residual_constant_case():
    dim = 2
    theta = ExpPoly.from_poly(Polynomial.const(dim, 3))
    phi = OrdinaryForm.zero(dim, 1)
    r1, r2 = ideal_residual(theta, phi)
    assert r1.is_zero() and r2.is_zero()


def test_ideal_residual_exponential_solution():
    dim = 1
    x = Polynomial.var(dim, 1)
    theta = ExpPoly.exp(-x)
    phi = OrdinaryForm(dim, 1, {(1,): Polynomial.one(dim)})
    r1, r2 = ideal_residual(theta, phi)
    assert r1.is_zero() and r2.is_zero()


def test_ideal_residual_failure():
    dim = 1
    x = Polynomial.var(dim, 1)
    r1, r2 = ideal_residual(ExpPoly.from_poly(x), OrdinaryForm.zero(dim, 1))
    assert not r1.is_zero()
    assert r2.is_zero()


def test_general_gd_reduces_to_gd():
    dim = 2
    eps = Fraction(3)
    theta = ExpPoly.from_poly(Polynomial.const(dim, eps))
    phi = OrdinaryForm.zero(dim, 1)
    rnd = FormRandom(1, dim, eps)
    for degree in range(-1, dim + 1):
        a = rnd.genform(degree)
        assert general_gd(a, theta, phi) == gd(a)


def test_general_gd_of_m():
    dim = 1
    x = Polynomial.var(dim, 1)
    theta = ExpPoly.exp(-x)
    phi = OrdinaryForm(dim, 1, {(1,): Polynomial.one(dim)})
    m = GenForm.minus_one(dim, Fraction(0))
    dm = general_gd(m, theta, phi)
    assert dm.body == OrdinaryForm.from_scalar(theta)
    assert dm.soul == -phi


def test_general_gd_squares_to_zero():
    dim = 1
    x = Polynomial.var(dim, 1)
    theta = ExpPoly.exp(-x)
    phi = OrdinaryForm(dim, 1, {(1,): Polynomial.one(dim)})
    rnd = FormRandom(2, dim, Fraction(0))
    for trial in range(30):
        a = rnd.genform((trial % 3) - 1)
        assert general_gd(general_gd(a, theta, phi), theta, phi).is_zero()


def test_general_gd_rejects_broken_ideal():
    dim = 1
    x = Polynomial.var(dim, 1)
    with pytest.raises(ConstructionError):
        general_gd(GenForm.minus_one(dim, Fraction(0)),
                   ExpPoly.from_poly(x), OrdinaryForm.zero(dim, 1))


def test_chart_theta_phi_satisfy_ideal():
    dim = 1
    chart = ChartData("c", Polynomial.parse(dim, "2*x1 + 1"),
                      ExpConstant(Fraction(5), Fraction(-2)))
    r1, r2 = ideal_residual(chart.theta(), chart.phi())
    assert r1.is_zero() and r2.is_zero()


def test_two_chart_fixture_validates_case_ii():
    cover = load("two_chart.json")
    report = glue_validate(cover)
    assert report.ok
    assert report.case == "ii"
    canon = canonicalize(cover, report, Fraction(2))
    assert canon.case == "ii"
    assert canon.dm_tilde == Fraction(2)
    # the announced constants: c1 = e^3/2, c2 = 1/2
    assert canon.constants["1"] == "1/2*e^3"
    assert canon.constants["2"] == "1/2"


def test_case_i_fixture():
    cover = load("case_i_cover.json")
    report = glue_validate(cover)
    assert report.ok and report.case == "i"
    canon = canonicalize(cover, report, Fraction(0))
    assert canon.dm_tilde == 0


@pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(-1, 2)])
def test_case_i_canonicalize_requires_zero_epsilon(epsilon):
    # theta = 0 in case i, so d(u m) = (du - u phi) m has no body: no rescaling
    # gives dm-tilde = epsilon != 0
    cover = load("case_i_cover.json")
    with pytest.raises(ConstructionError, match=r"^case \(i\) needs a zero epsilon$"):
        canonicalize(cover, glue_validate(cover), epsilon)


def test_single_chart_identity_rescale():
    cover = CoverData(1, (ChartData("only", Polynomial.zero(1),
                                    ExpConstant(Fraction(2), Fraction(0))),), ())
    report = glue_validate(cover)
    assert report.ok and report.case == "ii"
    canon = canonicalize(cover, report, Fraction(2))
    # c = tau/eps = 1: the rescaling is the identity and dm = eps as before
    assert canon.constants["only"] == "1"
    assert canon.dm_tilde == Fraction(2)


def test_broken_triple_rejected():
    cover = load("broken_triple.json")
    report = glue_validate(cover)
    assert not report.ok
    assert report.cocycle_failures
    with pytest.raises(ConstructionError, match="^cover does not glue"):
        canonicalize(cover, report, Fraction(1))


def test_mixed_zero_nonzero_tau_rejected():
    data = {
        "dim": 1,
        "charts": [
            {"id": "1", "xi": "1*x1", "tau": {"r": "1", "s": "0"}},
            {"id": "2", "xi": "1*x1", "tau": {"r": "0", "s": "0"}},
        ],
        "overlaps": [["1", "2", "0"]],
    }
    report = glue_validate(cover_from_json(data))
    assert not report.ok
    assert report.classification_failure is not None
    assert report.classification_failure["pair"] == ["2", "1"]


def test_overlap_mismatch_detected():
    data = {
        "dim": 1,
        "charts": [
            {"id": "1", "xi": "1*x1 + 1", "tau": {"r": "1", "s": "1"}},
            {"id": "2", "xi": "1*x1", "tau": {"r": "1", "s": "0"}},
        ],
        "overlaps": [["1", "2", "2"]],  # true difference is 1
    }
    report = glue_validate(cover_from_json(data))
    assert not report.ok
    assert report.overlap_failures


def test_case_ii_canonicalize_requires_epsilon():
    cover = load("two_chart.json")
    with pytest.raises(ConstructionError, match=r"^case \(ii\) needs a non-zero epsilon$"):
        canonicalize(cover, glue_validate(cover), Fraction(0))


def test_rescaling_gauge_freedom():
    # tau -> tau e^chi, xi -> xi + chi leaves theta unchanged
    dim = 1
    x = Polynomial.var(dim, 1)
    chart = ChartData("c", x, ExpConstant(Fraction(3), Fraction(1)))
    chi = Fraction(7, 2)
    shifted = ChartData("c", x + Polynomial.const(dim, chi),
                        chart.tau.times_exp(chi))
    assert chart.theta() == shifted.theta()
    assert chart.phi() == shifted.phi()


def test_transformed_derivative_dual_path():
    # express a in the rescaled basis and differentiate there; transport back
    cover = load("two_chart.json")
    eps = Fraction(2)
    canonicalize(cover, glue_validate(cover), eps)  # raises unless the rescaled basis glues
    rnd = FormRandom(3, 1, Fraction(0))
    for chart in cover.charts:
        c = chart.tau.scale(1 / eps)
        u = ExpPoly.exp(chart.xi + Polynomial.const(1, c.inverse().s),
                        Polynomial.const(1, c.inverse().r))
        theta, phi = chart.theta(), chart.phi()
        for trial in range(6):
            a = rnd.genform((trial % 3) - 1)
            direct = general_gd(a, theta, phi)
            # rescaled-basis path: body' = d(alpha) + (-1)^(p+1) (tau/c) alpha-tilde,
            # soul' (in the m basis) = d(alpha-tilde) * u
            alpha_tilde = rescaled_soul(a, chart, c)
            dm_tilde = ExpPoly.from_poly(Polynomial.const(1, eps))
            theta_term = alpha_tilde.scale(dm_tilde)
            if (a.degree + 1) % 2:
                theta_term = -theta_term
            body = ext_d(a.body) + theta_term
            soul = ext_d(alpha_tilde).scale(u)
            assert direct.body == body
            assert direct.soul == soul


def test_cover_json_errors():
    with pytest.raises(InputError):
        cover_from_json({"dim": 1, "charts": [
            {"id": "a", "xi": "1*x1", "tau": {"r": "0", "s": "0"}},
            {"id": "a", "xi": "1*x1", "tau": {"r": "0", "s": "0"}},
        ]})
    cover = load("two_chart.json")
    with pytest.raises(InputError):
        cover.overlap_constant("1", "missing")
