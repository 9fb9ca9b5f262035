"""Embedded verification data: every published curve, Selmer rank, rank and
generator listing, plus the rank-6 companion lists.

Generator coordinates are stored as exact "num/den" strings and checked
bit-exactly against the curve equations.  One published anomaly: the rank-6
case for theta = 2pi/3 is headlined with n = 4562490669, but the printed
coefficients and all six generators belong to E_{456249066, 2pi/3}
(456249066 is itself the first entry of the companion list).  The entry
below records the internally consistent curve and keeps the headline label
for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import PointQ, ThetaParams, PI_3, TWO_PI_3


@dataclass(frozen=True)
class PublishedCurve:
    n: int
    theta: ThetaParams
    a2: int
    a4: int
    rank: int
    selmer: int | None = None
    generators: tuple[tuple[str, str], ...] = ()
    companions: tuple[int, ...] = ()
    label: str = ""  # headline n as printed, when it differs from n

    def generator_points(self) -> list[PointQ]:
        return [PointQ(Fraction(x), Fraction(y)) for x, y in self.generators]


PUBLISHED: tuple[PublishedCurve, ...] = (
    PublishedCurve(
        n=646, theta=PI_3, a2=1292, a4=-1251948, rank=3, selmer=3,
        generators=(("-722", "34656"), ("6137", "521645"), ("-1216", "40432")),
    ),
    PublishedCurve(
        n=172081, theta=PI_3, a2=344162, a4=-88835611683, rank=4, selmer=4,
        generators=(
            ("-505141", "-61627202"),
            ("-58621", "-78669382"),
            ("-440076", "-143244738"),
            ("224175", "92987790"),
        ),
    ),
    PublishedCurve(
        n=221746, theta=PI_3, a2=443492, a4=-147513865548, rank=5, selmer=5,
        generators=(
            ("345450", "207822720"),
            ("-15792", "49357896"),
            ("994896", "1130036040"),
            ("-13254", "-45063600"),
            ("-386575", "-255989965"),
        ),
    ),
    PublishedCurve(
        n=11229594411, theta=PI_3, a2=22459188822, a4=-378311371906687310763, rank=6,
        generators=(
            ("904103532759/25", "-992069570757491352/125"),
            ("1541731888897/16", "2090318638263775025/64"),
            ("265444083202036/2025", "4636387440736982658134/91125"),
            ("719501508201/64", "40873417425022581/512"),
            ("13006760076899764/269361", "1693181585331404000267498/139798359"),
            ("50286669020153449/278784", "11896090671289659453790795/147197952"),
        ),
        companions=(
            167514827545, 198606002595, 2713148227665, 3302971161265,
            3492293850595, 6634009064865, 4058213000419, 455633303263450,
        ),
    ),
    PublishedCurve(
        n=365803464586, theta=PI_3, a2=731606929172, a4=-401436524109362868454188, rank=7,
        generators=(
            ("433764757524", "212456676940982628"),
            ("1291274050073", "-1689545579159165609"),
            ("-59335333874904423/3644281", "-570541659890431976790514695/6956932429"),
            ("11954902524369/4", "-45277466996084516865/8"),
            ("2138828658027602/5329", "56890395483549429623312/389017"),
            ("786769181014433554/80089", "721982407380536692088852160/22665187"),
            ("-562236028164373765342/540237049", "3617165210435366625559445197360/12556729729907"),
        ),
    ),
    PublishedCurve(
        n=221, theta=TWO_PI_3, a2=-442, a4=-146523, rank=3, selmer=3,
        generators=(("-204", "1734"), ("-169", "2704"), ("4131", "-249696")),
    ),
    PublishedCurve(
        n=12710, theta=TWO_PI_3, a2=-25420, a4=-484632300, rank=4, selmer=4,
        generators=(
            ("-310", "384400"),
            ("-9920", "-1153200"),
            ("48050", "5381600"),
            ("76880", "16337000"),
        ),
    ),
    PublishedCurve(
        n=16470069, theta=TWO_PI_3, a2=-32940138, a4=-813789518594283, rank=5,
        generators=(
            ("-3115959/4", "-198146948769/8"),
            ("-16255958103/1024", "-813789518594283/32768"),
            ("118172745075/1849", "-21701053829180880/79507"),
            ("174895662711/3481", "-10850526914590440/205379"),
            ("18013358979/361", "-275820552686448/6859"),
        ),
    ),
    PublishedCurve(
        # printed with headline n = 4562490669; coefficients and generators
        # are those of n = 456249066
        n=456249066, theta=TWO_PI_3, a2=-912498132, a4=-624489630677617068, rank=6,
        label="4562490669",
        generators=(
            ("1372171206", "2930957696016"),
            ("24303608784", "3714988879700280"),
            ("1677715326", "-33259028622624"),
            ("3635049873", "-183588193835865"),
            ("27273656667348/18769", "39342846732689875284/2571353"),
            ("36967427406/25", "2217080599939296/125"),
        ),
        # list as printed, duplicates included
        companions=(
            456249066, 764046470, 902472906, 5062245006, 9667090290,
            11801899970, 19969987310, 20240772006, 23819599518, 24080567966,
            30834423438, 39360775454, 58181539130, 64256704710, 98708770590,
            106366008126, 148280772990, 181684390314, 292826163630,
            309000045354, 333515184002, 685374515826, 713465075246,
            685374515826, 713465075246, 860842004286, 1185986591790,
            1248260820170, 1185986591790, 1248260820170,
        ),
    ),
)

# small anchors with proven ranks (Yoshida) plus other Selmer facts quoted
# alongside the listings
SMALL_RANKS: tuple[tuple[int, ThetaParams, int], ...] = (
    (6, PI_3, 1),
    (39, PI_3, 2),
    (5, TWO_PI_3, 1),
    (14, TWO_PI_3, 2),
)

EXTRA_SELMER: tuple[tuple[int, ThetaParams, int], ...] = (
    (407, PI_3, 3),
    (4718, TWO_PI_3, 4),
    (6398, TWO_PI_3, 4),
)

SQUAREFREE_TOTAL_5E6 = 3_039_633

TABLE1 = {
    "pi/3": (783043, 1401045, 734290, 116158, 5045, 52, 0),
    "2pi/3": (760511, 1374165, 751192, 144641, 9038, 86, 0),
}


def find_published(n: int, theta: ThetaParams) -> PublishedCurve | None:
    for entry in PUBLISHED:
        if entry.theta == theta and (entry.n == n or entry.label == str(n)):
            return entry
    return None
