"""csvformat.encode against '%.17g' % v, value by value."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import same_bits
from hypothesis import given
from hypothesis import strategies as st

from parakahler import csvformat


def encoded(table) -> bytes:
    return b"".join(csvformat.encode(table))


def per_cell(table) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(table, dtype=float).tolist()).encode()


def true_ties() -> list[float]:
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: '%.17g' rounds them half to even."""
    ties = []
    for n in range(20, 80):
        for i in range(1, 400, 2):
            x = i * 2.0 ** -n
            if len(Decimal(x).normalize().as_tuple().digits) == 18:
                ties.append(x)
    return ties


def edge_values() -> np.ndarray:
    powers = 10.0 ** np.arange(-300, 301)
    switches = np.array([1e-4, 1e-5, 1e16, 1e17, 9.9999999999999995e-5, 9.9999e-5,
                         1.2345e-5, 9.9999999999999984e15, 9.9999999999999998e16,
                         1.2345678901234567e16, 1.2345678901234567e17])
    dyadic = np.concatenate([-0.5 + np.arange(129) / 128, np.arange(-64, 65) * 2.0 ** -20,
                             2.0 ** np.arange(-1074, 1024, 7)])
    special = np.array([5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max,
                        -np.finfo(float).max, 0.0, -0.0, 2.5, 0.5, 1.5, 0.1, 1 / 3, 2 / 3,
                        1.0, 10.0, 100.0, 1e100, 1e-100, 1e99, 1e-99, 123.0, 0.001,
                        np.nan, -np.nan, np.inf, -np.inf])
    values = np.concatenate([powers, switches, dyadic, special, true_ties(),
                             np.arange(-50.0, 51.0)])
    with np.errstate(over="ignore"):  # the neighbours of the largest double
        values = np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, -np.inf)])
    return np.concatenate([values, -values])


@given(st.floats())
def test_every_float_prints_as_percent_17g(v):
    assert encoded([[v]]) == ("%.17g\n" % v).encode()


@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 4))
def test_tables_of_floats_print_cell_by_cell(values, ncols):
    table = np.resize(np.array(values), (len(values), ncols))
    assert encoded(table) == per_cell(table)


def test_edge_values_print_as_percent_17g():
    values = edge_values()
    assert len(true_ties()) >= 50
    assert encoded(values[:, None]) == per_cell(values[:, None])
    table = values[:len(values) // 7 * 7].reshape(-1, 7)
    assert encoded(table) == per_cell(table)


def test_random_doubles_print_as_percent_17g(rng):
    bits = rng.integers(0, 2 ** 64, size=30000, dtype=np.uint64).view(np.float64)
    normal = rng.standard_normal(30000) * 10.0 ** rng.integers(-20, 20, 30000)
    for values in (bits, normal):
        table = values.reshape(-1, 6)
        assert encoded(table) == per_cell(table)


def test_long_double_path_off_gives_the_same_bytes(rng, monkeypatch):
    values = np.concatenate([edge_values(), rng.standard_normal(5000)])
    table = values[:len(values) // 5 * 5].reshape(-1, 5)
    fast = encoded(table)
    monkeypatch.setattr(csvformat, "FAST", False)
    assert encoded(table) == fast == per_cell(table)


@pytest.mark.skipif(not csvformat.FAST, reason="the table is used only with a 64-bit significand")
def test_powers_of_ten_are_correctly_rounded():
    bits = np.finfo(np.longdouble).nmant + 1
    for p, power in zip(range(csvformat._P_MIN, csvformat._P_MAX + 1), csvformat.POW10):
        exact = Fraction(10) ** p
        error = abs(Fraction(*power.as_integer_ratio()) - exact)
        ulp = Fraction(2) ** (int(np.frexp(power)[1]) - bits)
        assert error <= ulp / 2, p
        if 0 <= p <= 27:  # the smaller error margin rests on these being exact
            assert error == 0, p


def test_blocks_of_every_size_print_cell_by_cell(rng):
    ncols = 3
    block = csvformat.BLOCK_VALUES // ncols
    tie = true_ties()[0]
    for rows in (1, block - 1, block, block + 1, 2 * block + 1):
        table = rng.standard_normal((rows, ncols))
        table[rng.random((rows, ncols)) < 0.05] = np.nan
        # a fallback value in the first block, a negative value in the same
        # cell of the next: its sign slot must hold '-' again
        table[0, 0] = tie
        if rows > block:
            table[block, 0] = -0.25
        assert encoded(table) == per_cell(table)


def _mask_row_by_slot(cls: int, nsig: int) -> np.ndarray:
    """The mask row of one (class, significant digits), slot by slot: the
    loop the module's table was once built with."""
    row = np.zeros(csvformat.SLOTS, dtype=bool)
    row[csvformat._SEP] = True
    digit = csvformat._DIGITS + 2 * np.arange(17)
    exp = csvformat._EXP
    if cls < csvformat._SCI:
        k = cls - 4
        if k < 0:
            row[csvformat._PREFIX:csvformat._PREFIX + 1 - k] = True
            row[digit[:nsig]] = True
        else:
            row[digit[:max(nsig, k + 1)]] = True
            row[digit[k] + 1] = nsig > k + 1
    else:
        row[digit[:nsig]] = True
        row[digit[0] + 1] = nsig > 1
        positive, three = divmod(cls - csvformat._SCI, 2)
        row[exp] = True
        row[exp + 1 if positive else exp + 2] = True
        row[exp + 4 - three:exp + 6] = True
    return row


def test_tables_equal_the_comprehensions_they_replace():
    # built by arithmetic on aranges; these comprehensions built them before
    digits4 = np.frombuffer("".join(".".join(f"{i:04d}") + "." for i in range(10 ** 4)).encode(),
                            dtype=np.uint64)
    exp4 = np.frombuffer("".join(f"-{i:03d}" for i in range(400)).encode(), dtype=np.uint32)
    trailing4 = np.array([4 - len(f"{i:04d}".rstrip("0")) for i in range(10 ** 4)],
                         dtype=np.int8)
    masks = np.array([_mask_row_by_slot(cls, nsig) for cls in range(csvformat._CLASSES)
                      for nsig in range(1, 18)])
    masks = np.concatenate([masks, masks, np.zeros((1, csvformat.SLOTS), dtype=bool)])
    masks[csvformat._CLASSES * 17:-1, csvformat._SIGN] = True
    masks[-1, :len(csvformat._FALLBACK)] = masks[-1, csvformat._SEP] = True
    for table, want in ((csvformat._DIGITS4, digits4), (csvformat._EXP4, exp4),
                        (csvformat._TRAILING4, trailing4), (csvformat._MASKS, masks)):
        assert same_bits(table, want)
