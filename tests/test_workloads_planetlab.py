"""PlanetLab catalogue tests: fidelity to the paper's appendix."""

from repro.net.latency import REGIONS
from repro.workloads.planetlab import (
    CLIENT_CATALOG,
    EXTRA_RELAY_CATALOG,
    RELAY_CATALOG,
    SECTION4_CLIENTS,
    SECTION4_RELAY_CATALOG,
    SITES,
)


class TestClientCatalog:
    def test_twenty_two_clients(self):
        assert len(CLIENT_CATALOG) == 22  # Table IV

    def test_names_unique(self):
        assert len({e.name for e in CLIENT_CATALOG}) == 22

    def test_known_entries(self):
        by_name = {e.name: e for e in CLIENT_CATALOG}
        assert by_name["Italy"].hostname == "planetlab1.polito.it"
        assert by_name["Korea"].hostname == "arari.snu.ac.kr"
        assert by_name["Sweden"].hostname == "planetlab1.sics.se"

    def test_regions_valid(self):
        for e in CLIENT_CATALOG:
            assert e.region in REGIONS

    def test_no_us_clients(self):
        # Table IV clients are all international.
        assert all(e.region != "us" for e in CLIENT_CATALOG)


class TestRelayCatalog:
    def test_twenty_one_relays(self):
        assert len(RELAY_CATALOG) == 21  # Table V

    def test_all_us(self):
        assert all(e.region == "us" for e in RELAY_CATALOG)
        assert all(e.region == "us" for e in EXTRA_RELAY_CATALOG)

    def test_known_entries(self):
        by_name = {e.name: e for e in RELAY_CATALOG}
        assert by_name["Texas"].hostname == "planetlab1.csres.utexas.edu"
        assert by_name["Princeton"].hostname == "planetlab-1.cs.princeton.edu"

    def test_table_v_entries_not_extrapolated(self):
        assert all(not e.extrapolated for e in RELAY_CATALOG)

    def test_extrapolated_marked(self):
        assert sum(e.extrapolated for e in EXTRA_RELAY_CATALOG) == 7

    def test_table3_relays_present_in_extras(self):
        names = {e.name for e in EXTRA_RELAY_CATALOG}
        for n in ("Northwestern", "Minnesota", "DePaul", "Utah",
                  "Maryland", "Wayne State", "UCSB", "Georgetown"):
            assert n in names


class TestSection4Catalog:
    def test_thirty_five_relays(self):
        assert len(SECTION4_RELAY_CATALOG) == 35  # paper §4.2

    def test_duke_excluded_from_relays(self):
        assert "Duke" not in {e.name for e in SECTION4_RELAY_CATALOG}

    def test_clients_are_duke_italy_sweden(self):
        assert [e.name for e in SECTION4_CLIENTS] == ["Duke", "Italy", "Sweden"]

    def test_no_overlap_clients_relays(self):
        relays = {e.name for e in SECTION4_RELAY_CATALOG}
        assert not relays & {e.name for e in SECTION4_CLIENTS}

    def test_relay_names_unique(self):
        names = [e.name for e in SECTION4_RELAY_CATALOG]
        assert len(set(names)) == 35


class TestSites:
    def test_four_sites(self):
        assert SITES == ("eBay", "Google", "Microsoft", "Yahoo")
