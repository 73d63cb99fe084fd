import math

import numpy as np
import pytest

from kerrcasimir.errors import MaterialError
from kerrcasimir.lifshitz_nonlinear import (casimir_pressure,
                                            crossover_distance,
                                            pressure_transparent_mirror)
from kerrcasimir.materials import LayerStack, MaterialResponse
from kerrcasimir.quadrature import Temperature

INF = math.inf


def test_constant_material():
    mat = MaterialResponse.constant(2.5)
    assert mat.permittivity(0.0) == 2.5
    assert mat.permittivity(1e15) == 2.5
    assert np.array_equal(mat.permittivity(np.array([0.0, 1e14])),
                          [2.5, 2.5])
    assert mat.is_constant and not mat.is_mirror and not mat.has_kerr


def test_mirror():
    mat = MaterialResponse.perfect_mirror()
    assert mat.is_mirror
    assert math.isinf(mat.permittivity(1e15))
    with pytest.raises(MaterialError):
        MaterialResponse(eps_constant=INF, chi3=1e-18)


def test_vacuum():
    assert MaterialResponse.vacuum().permittivity(1e12) == 1.0


def test_constant_validation():
    for bad in (0.5, 0.0, -2.0, math.nan):
        with pytest.raises(MaterialError):
            MaterialResponse.constant(bad)


def test_exactly_one_response():
    with pytest.raises(MaterialError):
        MaterialResponse()
    with pytest.raises(MaterialError):
        MaterialResponse(eps_constant=2.0, eps_table=((0.0, 3.0), (1.0, 2.0)))


def test_table_interpolation():
    table = ((1e13, 9.0), (1e14, 3.0), (1e15, 1.5))
    mat = MaterialResponse.from_table(table)
    assert not mat.is_constant
    # exact at the knots
    for xi, eps in table:
        assert mat.permittivity(xi) == pytest.approx(eps, rel=1e-14)
    # linear in eps over log-frequency between knots
    mid = math.sqrt(1e13 * 1e14)
    assert mat.permittivity(mid) == pytest.approx(6.0, rel=1e-12)
    # clipped outside the tabulated range
    assert mat.permittivity(0.0) == pytest.approx(9.0)
    assert mat.permittivity(1e17) == pytest.approx(1.5)


def test_table_validation():
    with pytest.raises(MaterialError):
        MaterialResponse.from_table(((0.0, 2.0),))  # too short
    with pytest.raises(MaterialError):
        MaterialResponse.from_table(((1e14, 2.0), (1e13, 3.0)))  # not sorted
    with pytest.raises(MaterialError):
        MaterialResponse.from_table(((1e13, 2.0), (1e14, 3.0)))  # increasing
    with pytest.raises(MaterialError):
        MaterialResponse.from_table(((1e13, 2.0), (1e14, 0.5)))  # below 1


def test_table_with_zero_frequency_knot():
    mat = MaterialResponse.from_table(((0.0, 4.0), (1e14, 2.0)))
    assert mat.permittivity(0.0) == 4.0
    assert 2.0 < mat.permittivity(5e13) < 4.0


def test_breakpoints_are_positive_table_nodes():
    assert MaterialResponse.constant(2.5).breakpoints.size == 0
    assert MaterialResponse.perfect_mirror().breakpoints.size == 0
    a = MaterialResponse.from_table(((0.0, 4.0), (1e14, 2.0), (1e15, 1.5)))
    b = MaterialResponse.from_table(((1e13, 9.0), (1e14, 3.0)))
    assert np.array_equal(a.breakpoints, [1e14, 1e15])
    assert np.array_equal(b.breakpoints, [1e13, 1e14])
    stack = LayerStack(a, b, 1e-7, Temperature.zero())
    assert np.array_equal(stack.breakpoints, [1e13, 1e14, 1e15])


def test_stack_validation():
    kerr = MaterialResponse.constant(2.0, chi3=1e-18)
    lin = MaterialResponse.perfect_mirror()
    temp = Temperature.zero()
    stack = LayerStack(kerr, lin, 1e-8, temp)
    assert stack.kerr_layer is kerr
    with pytest.raises(MaterialError):
        LayerStack(kerr, kerr, 1e-8, temp)  # two Kerr plates
    with pytest.raises(MaterialError):
        LayerStack(kerr, lin, 0.0, temp)
    with pytest.raises(MaterialError):
        LayerStack(kerr, lin, math.inf, temp)
    with pytest.raises(MaterialError):
        LayerStack(kerr, lin, math.nan, temp)


def test_stack_rejects_a_gap_whose_eighth_power_is_not_normal():
    # d**8 of 1e-100 m underflowed to zero, and the pressures divided by
    # it (ZeroDivisionError); the bound is 2**-127 m, where d**8 is
    # 2**-1016
    kerr = MaterialResponse.constant(2.0, chi3=1e-18)
    lin = MaterialResponse.perfect_mirror()
    temp = Temperature.zero()
    for gap in (1e-100, 1e-150, math.nextafter(2.0 ** -127, 0.0)):
        with pytest.raises(MaterialError, match="2\\*\\*-127"):
            LayerStack(kerr, lin, gap, temp)
    stack = LayerStack(kerr, lin, 2.0 ** -127, temp)
    assert stack.gap ** 8 == 2.0 ** -1016


def test_stack_rejects_a_gap_whose_eighth_power_overflows():
    # d**6 and d**8 of 1e60 m and beyond overflowed in the pressures
    # (OverflowError); the bound is 2**127 m, where d**8 is 2**1016
    kerr = MaterialResponse.constant(2.0, chi3=1e-18)
    lin = MaterialResponse.perfect_mirror()
    temp = Temperature.zero()
    for gap in (1e60, 1e300, math.nextafter(2.0 ** 127, INF)):
        with pytest.raises(MaterialError, match="2\\*\\*127"):
            LayerStack(kerr, lin, gap, temp)
    stack = LayerStack(kerr, lin, 2.0 ** 127, temp)
    assert stack.gap ** 8 == 2.0 ** 1016


def test_stack_orientation():
    kerr = MaterialResponse.constant(2.0, chi3=1e-18)
    lin = MaterialResponse.constant(10.0)
    temp = Temperature.zero()
    flipped = LayerStack(lin, kerr, 1e-8, temp).oriented()
    assert flipped.layer1 is kerr and flipped.layer3 is lin
    straight = LayerStack(kerr, lin, 1e-8, temp).oriented()
    assert straight.layer1 is kerr
    # purely linear stacks stay as given
    plain = LayerStack(lin, lin, 1e-8, temp)
    assert plain.oriented().layer1 is lin
    assert plain.kerr_layer is None


# every number of a stack, its plates and its temperature, and the
# crossover's d_tol: (error, call with the value in place)
_NUMBER_ENTRIES = {
    "gap": (MaterialError, lambda v: LayerStack(
        MaterialResponse.constant(2.0), MaterialResponse.perfect_mirror(),
        v, Temperature.zero())),
    "transparent_gap": (MaterialError, lambda v: pressure_transparent_mirror(
        v, Temperature.zero(), 1e-18)),
    "kelvin": (ValueError, lambda v: Temperature("finite", v)),
    "finite": (ValueError, Temperature.finite),
    "high": (ValueError, Temperature.high),
    "eps_constant": (MaterialError, MaterialResponse.constant),
    "table_frequency": (MaterialError, lambda v: MaterialResponse.from_table(
        [(0.0, 3.0), (v, 2.0)])),
    "table_permittivity": (MaterialError,
                           lambda v: MaterialResponse.from_table(
                               [(0.0, v), (1e14, 1.0)])),
    "chi3": (MaterialError, lambda v: MaterialResponse.constant(2.0, v)),
    "d_tol": (ValueError, lambda v: crossover_distance(LayerStack(
        MaterialResponse.constant(2.0, chi3=1e-18),
        MaterialResponse.perfect_mirror(), 1e-8, Temperature.zero()),
        d_tol=v)),
}


@pytest.mark.parametrize("bad", [True, np.True_, "300", None],
                         ids=["bool", "numpy_bool", "str", "none"])
@pytest.mark.parametrize("entry", sorted(_NUMBER_ENTRIES))
def test_numbers_must_be_real_numbers(entry, bad):
    # a bool used to count as 1 (gap=True computed a pressure at 1 m,
    # chi3=True became 1.0, d_tol=True bisected to a log-width of 1,
    # a table took True as 1.0 and "300" as 300.0); a string was parsed
    # or raised a bare TypeError
    error, call = _NUMBER_ENTRIES[entry]
    with pytest.raises(error):
        call(bad)


def test_int_and_numpy_numbers_keep_their_bits():
    # an int, a numpy float and a numpy int give the float's results
    def outcome(eps, chi3, gap, kelvin):
        stack = LayerStack(MaterialResponse.constant(eps, chi3),
                           MaterialResponse.constant(10.0), gap,
                           Temperature.high(kelvin))
        res = casimir_pressure(stack, 1e-6, 1e-4)
        assert type(stack.temperature.kelvin) is float
        return tuple((part.value.hex(), part.error.hex(), part.n_evals,
                      part.converged)
                     for part in (res.linear, res.nonlinear))

    ref = outcome(2.0, 1.0, 1.0, 300.0)
    for kind in (int, np.float64, np.int64):
        assert outcome(kind(2), kind(1), kind(1), kind(300)) == ref, kind
    assert type(Temperature("finite", np.float32(300.5)).kelvin) is float
    stack = LayerStack(MaterialResponse.constant(2.0, chi3=1e-18),
                       MaterialResponse.perfect_mirror(), 1e-8,
                       Temperature.zero())
    ref = crossover_distance(stack, d_tol=1e-3)
    assert crossover_distance(stack, d_tol=np.float64(1e-3)) == ref
    assert crossover_distance(stack, d_tol=1) == crossover_distance(
        stack, d_tol=1.0)


def test_numpy_and_int_tables_keep_their_bits():
    # a table of numpy floats (float64 or float32), numpy ints or ints
    # gives the permittivity of the same table converted to floats
    table = ((0.0, 11.7), (1e14, 11.0), (1e15, 6.0), (1e16, 1.5),
             (1e17, 1.01))
    xi = np.geomspace(1e12, 1e18, 61)
    for given in (np.array(table), np.array(table, dtype=np.float32),
                  [(np.float64(a), np.float32(b)) for a, b in table],
                  np.array([(0, 12), (10 ** 14, 11), (10 ** 16, 2)]),
                  [(0, 12), (np.int64(10 ** 14), 11), (10 ** 16, 2)]):
        ref = MaterialResponse.from_table(
            [tuple(float(entry) for entry in pair) for pair in given])
        got = MaterialResponse.from_table(given).permittivity(xi)
        assert got.tobytes() == ref.permittivity(xi).tobytes()
