"""Contact parsing, the sorted multiset, and the disjoint-alphabet map."""

import io
import random

import numpy as np
import pytest

from tgcsa.corpus import (AlphabetMap, Contact, ContactError, ContactSet, build_sid,
                          load_contacts, parse_contacts, write_contacts)
from conftest import G5_B_ONES, G5_CONTACTS, G5_SID


def test_parse_ignores_comments_and_blanks():
    text = """
# header comment
1 3 1 8

2 1 1 6   # trailing comment
"""
    cs = parse_contacts(text)
    assert cs.tuples() == [(1, 3, 1, 8), (2, 1, 1, 6)]
    assert cs.nu == 3
    assert cs.tau == 8


def test_parse_errors_carry_source_line_numbers():
    with pytest.raises(ValueError, match="line 2: expected 4 fields, got 3"):
        parse_contacts("1 2 3 4\n1 2 3\n")
    with pytest.raises(ValueError, match="line 1: fields must be integers"):
        parse_contacts("1 2 x 4\n")
    # the empty-interval check runs on the assembled set; the row index
    # must be translated back through comments and blank lines
    with pytest.raises(ValueError, match="line 4: empty interval"):
        parse_contacts("# head\n1 2 1 5\n\n1 2 6 6\n")
    with pytest.raises(ValueError, match="line 2: terms must be >= 1"):
        parse_contacts("1 2 1 5\n0 2 1 5\n")
    with pytest.raises(ValueError, match="line 3: term exceeds the 32-bit id range"):
        parse_contacts("1 2 1 5\n# note\n1 2 1 4294967296\n")
    with pytest.raises(ValueError, match="line 2: term exceeds the 32-bit id range"):
        parse_contacts("1 2 1 5\n9223372036854775808 1 1 2\n")
    # a file-like source is read once; its line numbers must survive
    with pytest.raises(ValueError, match="line 3: empty interval"):
        parse_contacts(io.StringIO("# c\n1 2 3 4\n5 6 7 2\n"))


def test_oversized_term_names_its_row():
    # rows are checked before sorting, so the index is the input row
    with pytest.raises(ValueError, match="contact 1: term exceeds the 32-bit id range"):
        ContactSet([(3, 1, 1, 2), (1, 2 ** 32, 1, 2)])
    # however large: past int64, a list holds Python ints and numpy holds
    # them as uint64 or as objects
    for big, dtype in ((2 ** 63, np.uint64), (2 ** 64 - 1, np.uint64), (2 ** 70, object)):
        rows = [(3, 1, 1, 2), (1, big, 1, 2)]
        for contacts in (rows, np.array(rows, dtype=dtype)):
            with pytest.raises(ContactError, match="contact 1: term exceeds") as info:
                ContactSet(contacts)
            assert info.value.row == 1


def test_declared_universe_is_bounded_by_the_id_range():
    for kw in (dict(nu=2 ** 32), dict(tau=10 ** 12)):
        with pytest.raises(ValueError, match="exceeds the 32-bit id range"):
            ContactSet([(1, 2, 1, 2)], **kw)
    cs = ContactSet([(1, 2, 1, 2)], nu=2 ** 32 - 1, tau=2 ** 32 - 1)
    assert (cs.nu, cs.tau) == (2 ** 32 - 1, 2 ** 32 - 1)


def test_contactset_sorts_and_keeps_duplicates():
    rows = [(2, 1, 1, 6), (1, 3, 1, 8), (1, 3, 1, 8)]
    cs = ContactSet(rows)
    assert cs.tuples() == [(1, 3, 1, 8), (1, 3, 1, 8), (2, 1, 1, 6)]
    assert len(cs) == 3
    assert cs.distinct_edges() == 2
    assert cs[0] == Contact(1, 3, 1, 8)


# each column's values lie just below 2**width; a key of more than 63
# bits is sorted by np.lexsort, a narrower one packed into int64
@pytest.mark.parametrize("widths", [(6, 6, 6), (6, 6, 8, 8), (32, 21, 10), (31, 16, 8, 8),
                                    (20, 20, 12, 12), (32, 32, 32), (32, 32, 32, 32)])
def test_contactset_sorts_as_lexsort(widths, monkeypatch):
    rng = random.Random(sum(widths))
    tops = [2 ** w - 1 for w in widths]
    distinct = []
    for _ in range(60):
        row = [top - rng.randint(0, 40) for top in tops[:2]]
        ts = tops[2] - rng.randint(10, 40)
        row += [ts, min(ts + rng.randint(1, 9), tops[3])] if len(widths) == 4 else [ts]
        distinct.append(tuple(row))
    rows = [rng.choice(distinct) for _ in range(200)]
    cols = np.array(rows, dtype=np.int64)
    lexsort = np.lexsort
    want = cols[lexsort(cols.T[::-1])]
    sorts = []
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    cs = ContactSet(rows, arity=len(widths))
    assert len(sorts) == (sum(widths) > 63)
    got = np.column_stack([col for col in (cs.u, cs.v, cs.ts, cs.te) if col is not None])
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_contactset_validation():
    with pytest.raises(ValueError, match="arity must be 3 or 4"):
        ContactSet([], arity=5)
    with pytest.raises(ValueError, match="expected 4 terms, got 3"):
        ContactSet([(1, 2, 3)])
    with pytest.raises(ValueError, match="empty interval"):
        ContactSet([(1, 2, 5, 5)])
    with pytest.raises(ValueError, match="empty interval"):
        ContactSet([(1, 2, 5, 4)])
    with pytest.raises(ValueError, match="semantics 'interval' not valid"):
        ContactSet([(1, 2, 3)], arity=3, semantics="interval")
    with pytest.raises(ValueError, match="semantics 'point' not valid"):
        ContactSet([(1, 2, 3, 4)], semantics="point")
    # a float of integral value is its integer; other floats and terms
    # that are no number are refused with their row
    assert ContactSet([(1.0, 2, 3, 4)]).tuples() == [(1, 2, 3, 4)]
    for bad in (1.5, float("nan"), None, "1"):
        with pytest.raises(ContactError, match="contact 1: term is not an integer"):
            ContactSet([(1, 2, 3, 4), (bad, 2, 3, 4)])
    with pytest.raises(ContactError, match="contact 0: term is not an integer"):
        ContactSet(np.array([("1", "2", "3", "4")]))


def test_array_input_matches_rows():
    rng = random.Random(5)
    for arity in (3, 4):
        rows = []
        for _ in range(40):
            ts = rng.randint(1, 30)
            rows.append((rng.randint(1, 9), rng.randint(1, 9), ts, ts + rng.randint(1, 5))[:arity])
        for kw in ({}, dict(nu=12, tau=40)):
            a = ContactSet(rows, arity=arity, **kw)
            b = ContactSet(np.array(rows, dtype=np.uint64), arity=arity, **kw)
            assert (a.nu, a.tau, len(a)) == (b.nu, b.tau, len(b))
            for x, y in zip((a.u, a.v, a.ts, a.te), (b.u, b.v, b.ts, b.te)):
                assert (x is None and y is None) or (x.dtype == y.dtype and np.array_equal(x, y))
            assert a.tuples() == b.tuples()
    empty = ContactSet(np.empty((0, 4), dtype=np.int64), nu=3, tau=4)
    assert (len(empty), empty.nu, empty.tau) == (0, 3, 4)
    with pytest.raises(ValueError, match="must have 2 dimensions, not 1"):
        ContactSet(np.arange(1, 5))


@pytest.mark.parametrize("rows, kw", [
    ([(1, 2, 1, 5), (1, 0, 1, 5)], {}),                 # a term below 1
    ([(1, 2, 1, 5), (1, 2, 1, 2 ** 32)], {}),           # a term past 2**32 - 1
    ([(1, 2, 1, 5), (3, 1, 4, 4), (2, 2, 7, 6)], {}),   # ts >= te
    ([(1, 2, 3), (2, 1, 5)], {}),                       # three columns at arity 4
    ([(1, 2, 1, 5), (4, 2, 1, 5)], dict(nu=3)),         # nu too small
    ([(1, 2, 1, 5), (3, 2, 1, 9)], dict(tau=8)),        # tau too small
    ([(1, 2, 1, 5), (1.5, 2, 3, 4)], {}),               # a term that is no integer
    ([(1, 2, 1, 5), (1, 2, 3, float("nan"))], {}),
    ([(1, 2, 1, 5), (1, None, 3, 4)], {}),
    ([(1, 2, 1, 5), (2 ** 63, 1, 1, 2)], {}),           # terms past int64
    ([(1, 2, 1, 5), (1, 2 ** 70, 1, 2)], {}),
])
def test_array_input_is_rejected_like_rows(rows, kw):
    errors = []
    for contacts in (rows, np.array(rows)):  # the array at its own dtype
        with pytest.raises(ValueError) as info:
            ContactSet(contacts, **kw)
        errors.append((type(info.value), str(info.value), getattr(info.value, "row", None)))
    assert errors[0] == errors[1]


def test_universe_overrides():
    cs = ContactSet(G5_CONTACTS, nu=9, tau=12)
    assert cs.nu == 9 and cs.tau == 12
    with pytest.raises(ValueError, match="outside the declared universe"):
        ContactSet(G5_CONTACTS, nu=4)
    with pytest.raises(ValueError, match="outside the declared lifetime"):
        ContactSet(G5_CONTACTS, tau=7)


def test_arity3_defaults():
    cs = ContactSet([(1, 2, 5), (2, 1, 3)], arity=3)
    assert cs.semantics == "incremental"
    assert cs.tau == 5
    assert cs.te is None
    pt = ContactSet([(1, 2, 5)], arity=3, semantics="point")
    assert pt.semantics == "point"


def test_columns_are_read_only():
    cs = ContactSet(G5_CONTACTS)
    with pytest.raises(ValueError):
        cs.u[0] = 9


def test_write_then_parse_roundtrip():
    cs = ContactSet(G5_CONTACTS)
    buf = io.StringIO()
    write_contacts(cs, buf, header=("five contacts", "hand made"))
    text = buf.getvalue()
    assert text.startswith("# five contacts\n# hand made\n")
    back = parse_contacts(text, nu=cs.nu, tau=cs.tau)
    assert back.tuples() == cs.tuples()


def test_write_contacts_prints_each_row_as_its_terms():
    rng = random.Random(8)
    for arity in (3, 4):
        rows = [(rng.randint(1, 2 ** 32 - 1), rng.randint(1, 40), t, t + rng.randint(1, 9))[:arity]
                for t in (rng.randint(1, 2 ** 31) for _ in range(50))]
        cs = ContactSet(rows, arity=arity)
        buf = io.StringIO()
        write_contacts(cs, buf)
        expected = "".join(" ".join(str(t) for t in row) + "\n" for row in sorted(rows))
        assert buf.getvalue() == expected
        assert list(cs) == [Contact(*row) for row in sorted(rows)]


def test_load_contacts(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2 1 1 6\n1 3 1 8\n")
    cs = load_contacts(p)
    assert cs.tuples() == [(1, 3, 1, 8), (2, 1, 1, 6)]


def test_alphabet_map_frozen_for_g5():
    cs = ContactSet(G5_CONTACTS)
    am = AlphabetMap.build(cs)
    assert am.gaps == (0, 5, 10, 18)
    assert len(am.B) == 2 * 5 + 2 * 8
    assert list(am.B.positions()) == G5_B_ONES
    assert am.sigma == 13


def test_map_and_unmap_are_inverse_on_used_symbols():
    cs = ContactSet(G5_CONTACTS)
    am = AlphabetMap.build(cs)
    for sid in range(1, am.sigma + 1):
        section = sum(am.values[sid - 1] > g for g in am.gaps)
        assert am.getmap(am.getunmap(sid, section), section) == sid
    # unused universe positions map to 0
    assert am.getmap(3, 1) == 0
    assert am.getmap(5, 1) == 0
    with pytest.raises(ValueError):
        am.getmap(0, 1)
    with pytest.raises(ValueError):
        am.getunmap(am.sigma + 1, 4)


def test_getmap_by_section():
    am = AlphabetMap.build(ContactSet(G5_CONTACTS))
    assert am.getmap(1, 1) == 1          # source vertex 1
    assert am.getmap(3, 1) == 0          # 3 never acts as a source
    assert am.getmap(3, 2) == 5          # ...but it is a target
    assert am.getmap(1, 3) == 8          # start time 1
    assert am.getmap(8, 4) == 13         # end time 8
    with pytest.raises(ValueError, match="no section 5"):
        am.getmap(1, 5)
    with pytest.raises(ValueError, match="outside section 1"):
        am.getmap(6, 1)
    with pytest.raises(ValueError, match="outside section 3"):
        am.getmap(9, 3)


def test_getmap_floor_finds_preceding_symbol():
    am = AlphabetMap.build(ContactSet(G5_CONTACTS))
    positions = list(am.B.positions())

    def floor_by_scan(value, section):
        target = value + am.gaps[section - 1]
        best = 0
        for sid, pos in enumerate(positions, 1):
            if pos <= target:
                best = sid
        return best

    for section in (3, 4):
        for value in range(0, am.tau + 1):
            assert am.getmap_floor(value, section) == floor_by_scan(value, section)
    assert am.getmap_floor(0, 3) == 7    # last id before the start-time block
    with pytest.raises(ValueError, match="time sections"):
        am.getmap_floor(3, 1)
    with pytest.raises(ValueError):
        am.getmap_floor(am.tau + 1, 3)


def test_getunmap_restores_raw_terms():
    cs = ContactSet(G5_CONTACTS)
    am = AlphabetMap.build(cs)
    for section, col in ((1, cs.u), (2, cs.v), (3, cs.ts), (4, cs.te)):
        for raw in np.unique(col):
            sid = am.getmap(int(raw), section)
            assert am.getunmap(sid, section) == raw


def test_build_sid_frozen_for_g5():
    cs = ContactSet(G5_CONTACTS)
    am = AlphabetMap.build(cs)
    assert build_sid(cs, am).tolist() == G5_SID


def test_alphabet_map_arity3():
    cs = ContactSet([(1, 2, 5), (2, 1, 3)], arity=3)
    am = AlphabetMap.build(cs)
    assert am.gaps == (0, 2, 4)
    assert len(am.B) == 2 * 2 + 5
    # sections: sources {1,2} -> 1,2; targets {2,1}+2 -> 3,4; times {3,5}+4 -> 7,9
    assert list(am.B.positions()) == [1, 2, 3, 4, 7, 9]
    assert am.getmap(5, 3) == 6
    assert am.getmap_floor(4, 3) == 5


def test_sid_ids_walk_sections_in_order():
    rng = random.Random(11)
    for _ in range(20):
        nu, tau = rng.randint(2, 9), rng.randint(3, 11)
        rows = []
        for _ in range(rng.randint(1, 12)):
            ts = rng.randint(1, tau - 1)
            rows.append((rng.randint(1, nu), rng.randint(1, nu),
                         ts, rng.randint(ts + 1, tau)))
        cs = ContactSet(rows, nu=nu, tau=tau)
        am = AlphabetMap.build(cs)
        sid = build_sid(cs, am)
        n = len(cs)
        for q in range(n):
            u, v, ts, te = cs.tuples()[q]
            assert am.getunmap(int(sid[4 * q]), 1) == u
            assert am.getunmap(int(sid[4 * q + 1]), 2) == v
            assert am.getunmap(int(sid[4 * q + 2]), 3) == ts
            assert am.getunmap(int(sid[4 * q + 3]), 4) == te
