import pytest

from sympl_moduli import CatalogEntry, EndClass, Label2, Label3, catalog_entries
from sympl_moduli.cli import _catalog_item
from sympl_moduli.invariants import Side

from conftest import sigma


@pytest.fixture(scope="module")
def entries():
    return catalog_entries()


def by_id(entries, case_id):
    matches = [e for e in entries if e.case_id == case_id]
    assert len(matches) == 1
    return matches[0]


def test_expected_cases_present(entries):
    ids = {e.case_id for e in entries}
    assert {
        "I=aleph=0.polar-cylinder",
        "I=aleph=1.orbit-cylinder",
        "I=aleph=2.constant-t-cylinder",
        "I=aleph=2.middle-profile-cylinder",
        "I=aleph+1.plane",
        "I=aleph+1.widest-profile-cylinder",
        "I=aleph+1.pole-crossing-cylinder",
        "I=aleph+1.two-end-sphere",
        "I=aleph+1.three-end-sphere",
    } <= ids


def test_every_index_matches(entries):
    for e in entries:
        assert e.index() == e.expected_index, e.case_id
        assert e.aleph() == e.expected_aleph, e.case_id


def test_index_is_aleph_or_aleph_plus_one(entries):
    for e in entries:
        assert e.expected_index in (e.expected_aleph, e.expected_aleph + 1)


def test_lower_bound_holds_where_defined(entries):
    for e in entries:
        bound = e.lower_bound()
        if bound is not None:
            assert e.index() >= bound, e.case_id


def test_lower_bound_is_taken_at_genus_zero(entries):
    # Every entry is a punctured sphere (chi = 2 - #ends), so the bound
    # takes genus 0 and the entries carry no genus field.
    assert "genus" not in CatalogEntry._fields
    for e in entries:
        assert e.chi == 2 - len(e.ends), e.case_id


def test_polar_cylinder_is_only_bound_exemption(entries):
    exempt = [e for e in entries if e.lower_bound() is None]
    assert [e.case_id for e in exempt] == ["I=aleph=0.polar-cylinder"]
    # The exemption is genuine: this entry lies inside the polar locus,
    # so its polar intersection count is undefined.
    assert exempt[0].polar_intersections is None


def test_specific_indices(entries):
    assert by_id(entries, "I=aleph=0.polar-cylinder").index() == 0
    assert by_id(entries, "I=aleph=1.orbit-cylinder").index() == 1
    assert by_id(entries, "I=aleph+1.plane").index() == 2
    assert by_id(entries, "I=aleph+1.pole-crossing-cylinder").index() == 2
    assert by_id(entries, "I=aleph+1.two-end-sphere").index() == 3
    assert by_id(entries, "I=aleph+1.three-end-sphere").index() == 4


def test_plane_c1(entries):
    e = by_id(entries, "I=aleph+1.plane")
    assert e.chi == 1 and e.nu0 == 1
    assert e.c1() == -1


def test_pole_crossing_cylinder_breakdown(entries):
    # index = -chi - 2 c1 + aleph + aleph_+ = 0 + 4 + 1 - 3 = 2.
    e = by_id(entries, "I=aleph+1.pole-crossing-cylinder")
    assert e.chi == 0
    assert e.c1() == -2
    polar = [x for x in e.ends if x.kind == "polar"]
    assert len(polar) == 1 and polar[0].side is Side.CONCAVE
    assert polar[0].multiplicity == 1 and polar[0].winding == -2


def test_reverse_engineered_windings_flagged(entries):
    flagged = [e for e in entries if "reverse-engineered" in e.winding_provenance]
    assert [e.case_id for e in flagged] == ["I=aleph+1.widest-profile-cylinder"]


def test_sphere_entries_match_reports(entries):
    from sympl_moduli import sphere_report
    two = by_id(entries, "I=aleph+1.two-end-sphere")
    assert sphere_report(two.label).index == two.expected_index
    assert sphere_report(two.label).m_c == 0


def test_json_dump(entries):
    import json
    payload = [_catalog_item(e) for e in entries]
    text = json.dumps(payload)
    again = json.loads(text)
    assert len(again) == len(entries)
    assert all(item["index"] == item["expected_index"] for item in again)


def _reflected(entry):
    """The entry's image under sigma(s, t, theta, phi) = (s, t, pi - theta,
    -phi): each generic end class (m, m') goes to (m, -m'), and a
    two-end label {x, y} to {sigma y, sigma x}.  A polar end keeps its
    multiplicity and winding, since sigma swaps the poles with their
    neighbourhoods, and chi and nu0 stay, as sigma keeps the polar locus."""
    ends = tuple(end._replace(end_class=EndClass(*sigma(end.end_class)))
                 if end.end_class is not None else end for end in entry.ends)
    label = entry.label
    if isinstance(label, Label2):
        label = Label2.make(sigma(label.q_pair), sigma(label.p_pair))
    elif isinstance(label, Label3):
        label = Label3.make([sigma(x) for x in label.pairs])
    return entry._replace(ends=ends, label=label)


def test_reflected_entries_keep_index_and_aleph(entries):
    """ROADMAP item 17 on the catalog: each entry's sigma-image, with its
    label admissible, has the same index, aleph and index lower bound.
    A mutation that reads the sign of m' fails here, though no entry's
    own ends change: end_windings or aleph() skipping a convex end with
    m > 0 and m' < -1 leaves every entry as it was and drops one end of
    each sphere's image."""
    for entry in entries:
        image = _reflected(entry)
        assert image.index() == entry.index(), entry.case_id
        assert image.aleph() == entry.aleph(), entry.case_id
        assert image.lower_bound() == entry.lower_bound(), entry.case_id
