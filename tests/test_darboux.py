import random

import pytest

from hamdarboux.darboux import (
    certificate_holds,
    cofactor_of,
    reversal_integral,
    verify_first_integral,
)
from hamdarboux.hamsys import gamma_direction, load_system, tau
from hamdarboux.structure import jacobian_independent

from conftest import poly_of


def _cert_pool(system, texts):
    certs = []
    for text in texts:
        cert = cofactor_of(system, poly_of(system, text))
        assert cert is not None
        certs.append(cert)
    return certs


def test_cofactor_examples(sys_s1_ext):
    F = poly_of(sys_s1_ext, "p1 + i*sqrt(2)*q1^2")
    cert = cofactor_of(sys_s1_ext, F)
    assert cert is not None
    assert str(cert.Lambda) == "2*i*sqrt(2)*q1"
    assert cert.proper
    assert str(cert.F) == "p1 + i*sqrt(2)*q1^2"  # monic normal form
    assert certificate_holds(sys_s1_ext, cert)


def test_non_darboux_returns_none(sys_s1_ext):
    assert cofactor_of(sys_s1_ext, poly_of(sys_s1_ext, "p1 + q1")) is None
    assert cofactor_of(sys_s1_ext, poly_of(sys_s1_ext, "q1^2 + p2")) is None


def test_cofactors_of_low_degree_potentials():
    # deg V = 2 validates a constant cofactor: the oscillator's q1 + i*p1 is
    # p1 - i*q1 in monic form, with cofactor -i. For deg V <= 1, L_H lowers
    # the weight (2 for q, 1 for p) by one, so a Darboux polynomial's
    # cofactor is 0 and anything else is none
    with pytest.warns(UserWarning, match="deg V = 2"):
        oscillator = load_system("m = 2\nfield = Q(i,sqrt2)\nmu = 1, 1\nV = 1/2*q1^2 + 1/2*q2^2\n")
    cert = cofactor_of(oscillator, poly_of(oscillator, "q1 + i*p1"))
    assert (str(cert.F), str(cert.Lambda)) == ("p1 - i*q1", "-i")
    assert certificate_holds(oscillator, cert)
    with pytest.warns(UserWarning, match="deg V = 1"):
        linear = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1 + 2*q2\n")
    cert = cofactor_of(linear, poly_of(linear, "2*p1 - p2"))
    assert cert.Lambda.is_zero() and certificate_holds(linear, cert)
    assert cofactor_of(linear, poly_of(linear, "p1")) is None


def test_zero_polynomial_rejected(sys_s1):
    with pytest.raises(ValueError):
        cofactor_of(sys_s1, poly_of(sys_s1, "q1 - q1"))


def test_first_integral_examples(sys_s1, sys_s2, sys_s4):
    assert verify_first_integral(sys_s1, poly_of(sys_s1, "p2"))
    assert verify_first_integral(sys_s2, poly_of(sys_s2, "q1*p2 - q2*p1"))
    assert verify_first_integral(
        sys_s4, poly_of(sys_s4, "p2*(p1*q2 - p2*q1) + q2^2*(2*q1^3 + q1*q2^2)*1/3")
    )
    assert not verify_first_integral(sys_s1, poly_of(sys_s1, "p1"))


def test_cofactor_additivity(sys_s1_ext, sys_s3):
    # cofactor of a product is the sum of cofactors
    rng = random.Random(19)
    pools = [
        (sys_s1_ext, _cert_pool(sys_s1_ext, ["p2", "p1 + i*sqrt(2)*q1^2", "p1 - i*sqrt(2)*q1^2"])),
        (sys_s3, _cert_pool(sys_s3, ["i*p2 + sqrt(2)*q2^2", "i*p2 - sqrt(2)*q2^2"])),
    ]
    for _ in range(300):
        system, pool = pools[rng.randrange(len(pools))]
        picks = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        product = picks[0].F
        total = picks[0].Lambda
        for cert in picks[1:]:
            product = product * cert.F
            total = total + cert.Lambda
        got = cofactor_of(system, product)
        assert got is not None
        assert got.Lambda == total


def test_cofactor_position_only_and_degree_bound(sys_s1_ext, sys_s3, sys_s5):
    for system, texts in (
        (sys_s1_ext, ["p2", "p1 + i*sqrt(2)*q1^2"]),
        (sys_s3, ["i*p2 + sqrt(2)*q2^2"]),
        (sys_s5, ["3*sqrt(6)*p2^2 + 12*i*p2*q1*q2 + q2^2*(-6*i*p1 + sqrt(6)*(2*q1^2 + q2^2))"]),
    ):
        direction = gamma_direction(system)
        for text in texts:
            cert = cofactor_of(system, poly_of(system, text))
            assert cert is not None
            assert not cert.Lambda.depends_on_p()
            if not cert.Lambda.is_zero():
                assert cert.Lambda.gamma_degree(direction) <= system.r - 2


def test_reversal_integral(sys_s3):
    cert = cofactor_of(sys_s3, poly_of(sys_s3, "i*p2 + sqrt(2)*q2^2"))
    integral = reversal_integral(sys_s3, cert)
    assert integral.Lambda.is_zero()
    assert integral.F == (tau(cert.F) * cert.F).monic()
    assert verify_first_integral(sys_s3, integral.F)
    assert str(integral.F) == "p2^2 + 2*q2^4"


def test_reversal_at_odd_degree():
    # tau(F)*F is a first integral at every deg V: on the degenerate-top
    # cubic, F = p2 + 2*q2 has cofactor 2 and tau(F)*F = -(p2^2 - 4*q2^2)
    system = load_system("m = 2\nfield = Q\nmu = 1, 1\nV = q1^3 - 2*q2^2\n")
    cert = cofactor_of(system, poly_of(system, "p2 + 2*q2"))
    assert cert is not None and cert.proper
    integral = reversal_integral(system, cert)
    assert integral.Lambda.is_zero()
    assert str(integral.F) == "p2^2 - 4*q2^2"
    assert verify_first_integral(system, integral.F)
    assert jacobian_independent(system, system.H, integral.F)
