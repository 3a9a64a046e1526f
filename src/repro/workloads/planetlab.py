"""PlanetLab node catalogues and destination sites (paper Tables IV & V).

The client and relay listings are transcribed verbatim from the paper's
appendix.  The §4 experiments used 35 intermediate nodes, but the published
Table V lists only 21; Table III names 8 more (Northwestern, Minnesota,
DePaul, Utah, Maryland, Wayne State, UCSB, Georgetown).  The remaining 6
needed to reach 35 are filled with plausible 2005-era PlanetLab university
sites and are marked ``extrapolated=True`` - a documented substitution (see
DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "CatalogEntry",
    "CLIENT_CATALOG",
    "RELAY_CATALOG",
    "EXTRA_RELAY_CATALOG",
    "SECTION4_RELAY_CATALOG",
    "SECTION4_CLIENTS",
    "SITES",
    "DEFAULT_SITE",
]


@dataclass(frozen=True)
class CatalogEntry:
    """One catalogued PlanetLab node."""

    name: str
    hostname: str
    region: str
    extrapolated: bool = False


#: Table IV - the 22 international client nodes.
CLIENT_CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry("Australia 1", "plnode02.cs.mu.oz.au", "oceania"),
    CatalogEntry("Australia 2", "planet-lab-1.csse.monash.edu.au", "oceania"),
    CatalogEntry("Beirut", "planetlab1.aub.edu.lb", "middle_east"),
    CatalogEntry("Berlin", "planetlab1.info.ucl.ac.be", "europe"),
    CatalogEntry("Brazil", "planetlab2.lsd.ufcg.edu.br", "south_america"),
    CatalogEntry("Canada", "planetlab1.enel.ucalgary.ca", "canada"),
    CatalogEntry("Denmark", "planetlab2.diku.dk", "europe"),
    CatalogEntry("Finland", "planetlab2.hiit.fi", "europe"),
    CatalogEntry("France", "planetlab2.eurecom.fr", "europe"),
    CatalogEntry("Greece", "planetlab1.cslab.ece.ntua.gr", "europe"),
    CatalogEntry("Iceland", "planetlab1.ru.is", "europe"),
    CatalogEntry("India", "planetlab1.iiitb.ac.in", "asia"),
    CatalogEntry("Israel", "planetlab2.bgu.ac.il", "middle_east"),
    CatalogEntry("Italy", "planetlab1.polito.it", "europe"),
    CatalogEntry("Korea", "arari.snu.ac.kr", "asia"),
    CatalogEntry("Norway", "planetlab1.ifi.uio.no", "europe"),
    CatalogEntry("Russia", "planet-lab.iki.rssi.ru", "europe"),
    CatalogEntry("Singapore", "soccf-planet-001.comp.nus.edu.sg", "asia"),
    CatalogEntry("Sweden", "planetlab1.sics.se", "europe"),
    CatalogEntry("Switzerland", "planetlab02.ethz.ch", "europe"),
    CatalogEntry("Taiwan", "ent1.cs.nccu.edu.tw", "asia"),
    CatalogEntry("UK", "planetlab1.rn.informatics.scitech.susx.ac.uk", "europe"),
)

#: Table V - the 21 USA intermediate (relay) nodes.
RELAY_CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry("CMU", "planetlab-2.cmcl.cs.cmu.edu", "us"),
    CatalogEntry("Berkeley", "planetlab1.millennium.berkeley.edu", "us"),
    CatalogEntry("Caltech", "planlab1.cs.caltech.edu", "us"),
    CatalogEntry("Columbia", "planetlab1.comet.columbia.edu", "us"),
    CatalogEntry("Duke", "planetlab1.cs.duke.edu", "us"),
    CatalogEntry("Georgia Tech", "planet.cc.gt.atl.ga.us", "us"),
    CatalogEntry("Harvard", "lefthand.eecs.harvard.edu", "us"),
    CatalogEntry("Michigan", "planetlab1.eecs.umich.edu", "us"),
    CatalogEntry("MIT", "planetlab1.csail.mit.edu", "us"),
    CatalogEntry("Notre Dame", "planetlab1.cse.nd.edu", "us"),
    CatalogEntry("NYU", "planet1.scs.cs.nyu.edu", "us"),
    CatalogEntry("Princeton", "planetlab-1.cs.princeton.edu", "us"),
    CatalogEntry("Rice", "ricepl-1.cs.rice.edu", "us"),
    CatalogEntry("Stanford", "planetlab-1.stanford.edu", "us"),
    CatalogEntry("Texas", "planetlab1.csres.utexas.edu", "us"),
    CatalogEntry("UCLA", "planetlab2.cs.ucla.edu", "us"),
    CatalogEntry("UCSD", "planetlab2.ucsd.edu", "us"),
    CatalogEntry("UIUC", "planetlab1.cs.uiuc.edu", "us"),
    CatalogEntry("Upenn", "planetlab1.cis.upenn.edu", "us"),
    CatalogEntry("Washington", "planetlab01.cs.washington.edu", "us"),
    CatalogEntry("Wisconsin", "planetlab1.cs.wisc.edu", "us"),
)

#: Relays named in Table III but absent from Table V, plus seven extrapolated
#: sites needed to reach the §4 experiments' 35 intermediate nodes (Table V
#: lists 21 relays; Duke acts as a client in §4, leaving 20 + 8 + 7 = 35).
EXTRA_RELAY_CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry("Northwestern", "planetlab1.cs.northwestern.edu", "us"),
    CatalogEntry("Minnesota", "planetlab1.dtc.umn.edu", "us"),
    CatalogEntry("DePaul", "planetlab1.cti.depaul.edu", "us"),
    CatalogEntry("Utah", "planetlab1.flux.utah.edu", "us"),
    CatalogEntry("Maryland", "planetlab1.cs.umd.edu", "us"),
    CatalogEntry("Wayne State", "planetlab-01.cs.wayne.edu", "us"),
    CatalogEntry("UCSB", "planetlab1.cs.ucsb.edu", "us"),
    CatalogEntry("Georgetown", "planetlab1.georgetown.edu", "us"),
    CatalogEntry("Purdue", "planetlab1.cs.purdue.edu", "us", extrapolated=True),
    CatalogEntry("Cornell", "planetlab1.cs.cornell.edu", "us", extrapolated=True),
    CatalogEntry("Virginia", "planetlab1.cs.virginia.edu", "us", extrapolated=True),
    CatalogEntry("Arizona", "planetlab1.cs.arizona.edu", "us", extrapolated=True),
    CatalogEntry("Colorado", "planetlab1.cs.colorado.edu", "us", extrapolated=True),
    CatalogEntry("Ohio State", "planetlab1.cse.ohio-state.edu", "us", extrapolated=True),
    CatalogEntry("UMass", "planetlab1.cs.umass.edu", "us", extrapolated=True),
)

#: The §4 experiments' 35 intermediate nodes: Table V minus Duke (which acts
#: as a client there) plus the Table III / extrapolated sites.
SECTION4_RELAY_CATALOG: Tuple[CatalogEntry, ...] = tuple(
    e for e in RELAY_CATALOG if e.name != "Duke"
) + EXTRA_RELAY_CATALOG

#: The §4 client nodes: Duke (a well-connected US site, Low/Medium to eBay),
#: Italy and Sweden.
SECTION4_CLIENTS: Tuple[CatalogEntry, ...] = (
    CatalogEntry("Duke", "planetlab1.cs.duke.edu", "us"),
    CatalogEntry("Italy", "planetlab1.polito.it", "europe"),
    CatalogEntry("Sweden", "planetlab1.sics.se", "europe"),
)

#: The destination web sites (§2.2).  All are US-hosted.
SITES: Tuple[str, ...] = ("eBay", "Google", "Microsoft", "Yahoo")

#: The paper's detailed analyses all use the eBay data set.
DEFAULT_SITE: str = "eBay"

