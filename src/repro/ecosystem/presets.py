"""Scenario presets.

:func:`paper_preset` encodes the paper's published inventory: the sixteen
verticals of Table 1 and the campaigns of Table 2 (doorway/store/brand
counts and peak durations), the KEY campaign's 13-vertical targeting, the
scripted mid-December KEY penalization, MSVALIDATE's supplier partnership,
BIGLOVE's proactive domain rotation, and the two brand-protection firms of
Table 3.  Counts scale by ``scale`` so the whole eight-month ecosystem runs
on a laptop; shapes are preserved, not absolute magnitudes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.util.simtime import DateRange, SimDate, STUDY_END, STUDY_START
from repro.seo.campaign import CampaignSpec
from repro.seo.cloaking import CloakingType
from repro.interventions.search_ops import ScriptedDemotion, SearchOpsPolicy
from repro.interventions.seizure import SeizurePolicy
from repro.ecosystem.config import FirmSpec, ScenarioConfig, VerticalSpec

#: Table 1's verticals; '*' rows (Ed Hardy, Louis Vuitton, Uggs) are the
#: ones the KEY campaign does NOT target.
VERTICAL_TABLE: Tuple[Tuple[str, Tuple[str, ...], bool], ...] = (
    ("Abercrombie", ("Abercrombie",), False),
    ("Adidas", ("Adidas",), False),
    ("Beats By Dre", ("Beats By Dre",), False),
    ("Clarisonic", ("Clarisonic",), False),
    ("Ed Hardy", ("Ed Hardy",), False),
    ("Golf", ("TaylorMade", "Callaway", "Titleist"), True),
    ("Isabel Marant", ("Isabel Marant",), False),
    ("Louis Vuitton", ("Louis Vuitton",), False),
    ("Moncler", ("Moncler",), False),
    ("Nike", ("Nike",), False),
    ("Ralph Lauren", ("Ralph Lauren",), False),
    ("Sunglasses", ("Oakley", "Ray-Ban", "Christian Dior"), True),
    ("Tiffany", ("Tiffany",), False),
    ("Uggs", ("Uggs",), False),
    ("Watches", ("Rolex", "Omega", "Breitling"), True),
    ("Woolrich", ("Woolrich",), False),
)

NON_KEY_VERTICALS = ("Ed Hardy", "Louis Vuitton", "Uggs")

#: Table 2: (name, doorways, stores, brands, peak days).
CAMPAIGN_TABLE: Tuple[Tuple[str, int, int, int, int], ...] = (
    ("171760", 30, 14, 7, 44),
    ("ADFLYID", 100, 18, 4, 66),
    ("BIGLOVE", 767, 92, 30, 92),
    ("BITLY", 190, 40, 15, 89),
    ("CAMPAIGN.02", 26, 4, 3, 61),
    ("CAMPAIGN.10", 94, 18, 5, 99),
    ("CAMPAIGN.12", 118, 5, 1, 59),
    ("CAMPAIGN.14", 39, 8, 2, 67),
    ("CAMPAIGN.15", 364, 10, 10, 8),
    ("CAMPAIGN.17", 61, 8, 3, 44),
    ("CHANEL.1", 50, 10, 4, 24),
    ("G2GMART", 916, 28, 3, 53),
    ("HACKEDLIVEZILLA", 43, 49, 9, 56),
    ("IFRAMEINJS", 200, 2, 1, 39),
    ("JAROKRAFKA", 266, 55, 3, 87),
    ("JSUS", 439, 59, 27, 68),
    ("KEY", 1980, 97, 28, 65),
    ("LIVEZILLA", 420, 33, 16, 70),
    ("LV.0", 42, 3, 1, 62),
    ("LV.1", 270, 12, 9, 90),
    ("M10", 581, 35, 8, 30),
    ("MOKLELE", 982, 15, 4, 36),
    ("MOONKIS", 95, 7, 4, 99),
    ("MSVALIDATE", 530, 98, 6, 52),
    ("NEWSORG", 926, 7, 5, 24),
    ("NORTHFACEC", 432, 2, 1, 60),
    ("NYY", 29, 14, 5, 40),
    ("PAGERAND", 122, 7, 4, 43),
    ("PARTNER", 62, 9, 5, 33),
    ("PAULSIMON", 328, 33, 12, 128),
    ("PHP?P=", 255, 55, 24, 96),
    ("ROBERTPENNER", 56, 7, 12, 50),
    ("SCHEMA.ORG", 46, 17, 7, 54),
    ("SNOWFLASH", 271, 14, 1, 48),
    ("STYLESHEET", 222, 9, 6, 63),
    ("TIFFANY.0", 26, 1, 1, 4),
    ("UGGS.0", 428, 6, 5, 30),
    ("VERA", 155, 38, 12, 156),
)

#: The paper identifies 52 campaigns; Table 2 lists only those with 25+
#: doorways, so 14 small ones round out the census.
SMALL_CAMPAIGN_COUNT = 52 - len(CAMPAIGN_TABLE)

#: Hand-pinned vertical targeting for the campaigns the figures feature.
PINNED_VERTICALS: Dict[str, Tuple[str, ...]] = {
    "KEY": tuple(n for n, _, _ in VERTICAL_TABLE if n not in NON_KEY_VERTICALS),
    "MOONKIS": ("Beats By Dre",),
    "NEWSORG": ("Beats By Dre", "Nike", "Adidas"),
    "JSUS": ("Beats By Dre", "Uggs", "Moncler", "Nike", "Isabel Marant", "Abercrombie"),
    "PAULSIMON": ("Beats By Dre", "Moncler", "Watches", "Sunglasses"),
    "MSVALIDATE": ("Louis Vuitton", "Uggs", "Moncler"),
    "BIGLOVE": ("Louis Vuitton", "Uggs", "Moncler", "Isabel Marant", "Sunglasses",
                "Watches", "Tiffany", "Nike"),
    "MOKLELE": ("Louis Vuitton", "Moncler"),
    "NORTHFACEC": ("Louis Vuitton",),
    "LV.0": ("Louis Vuitton",),
    "LV.1": ("Louis Vuitton", "Tiffany"),
    "UGGS.0": ("Uggs",),
    "PHP?P=": ("Abercrombie", "Woolrich", "Moncler", "Ralph Lauren", "Adidas"),
    "VERA": ("Beats By Dre", "Moncler", "Uggs", "Watches"),
    "TIFFANY.0": ("Tiffany",),
    "CHANEL.1": ("Sunglasses", "Watches"),
}

#: Campaigns forced to carry specific extra brands (the BIGLOVE Chanel
#: storefront of Figure 5; PHP?P='s Hollister store of Figure 6).
PINNED_EXTRA_BRANDS: Dict[str, Tuple[str, ...]] = {
    "BIGLOVE": ("Chanel",),
    "PHP?P=": ("Hollister",),
    "NORTHFACEC": ("The North Face",),
}

GBC_CLIENTS = (
    "Uggs", "Louis Vuitton", "Moncler", "Abercrombie", "Nike", "Tiffany",
    "Isabel Marant", "Oakley", "Ralph Lauren", "Woolrich", "Rolex",
    "Christian Dior", "Adidas", "Beats By Dre", "Burberry", "Gucci", "Hermes",
)
SMGPA_CLIENTS = (
    "Chanel", "Ed Hardy", "Clarisonic", "Ray-Ban", "TaylorMade", "Omega",
    "Prada", "Michael Kors", "The North Face", "Callaway", "Titleist",
)


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, round(value * scale))


def _pick_verticals(name: str, brand_count: int, rng: random.Random,
                    all_names: List[str]) -> List[str]:
    pinned = PINNED_VERTICALS.get(name)
    if pinned is not None:
        return list(pinned)
    count = max(1, min(len(all_names), round(brand_count * 0.6) + rng.randint(0, 2)))
    return sorted(rng.sample(all_names, count))


def _cloaking_for(name: str, rng: random.Random) -> CloakingType:
    if name == "IFRAMEINJS":
        return CloakingType.IFRAME
    if name in ("KEY", "NEWSORG"):
        return CloakingType.REDIRECT
    # Iframe cloaking is pervasive in this niche (Section 3.1.1).
    return CloakingType.IFRAME if rng.random() < 0.65 else CloakingType.REDIRECT


def paper_preset(
    scale: float = 0.12,
    terms_per_vertical: int = 12,
    seed: int = 20141105,
    window: Optional[DateRange] = None,
) -> ScenarioConfig:
    """The full 16-vertical, 52-campaign scenario, scaled by ``scale``."""
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    rng = random.Random(seed ^ 0x5E0CAFE)
    window = window or DateRange(STUDY_START, STUDY_END)
    verticals = [
        VerticalSpec(name=name, brands=list(brands), composite=composite)
        for name, brands, composite in VERTICAL_TABLE
    ]
    names = [v.name for v in verticals]

    campaigns: List[CampaignSpec] = []
    for name, doorways, stores, brands, peak in CAMPAIGN_TABLE:
        spec = CampaignSpec(
            name=name,
            verticals=_pick_verticals(name, brands, rng, names),
            doorways=_scaled(doorways, scale, 2),
            stores=_scaled(stores, scale, 1),
            brands=brands,
            peak_days=peak,
            cloaking=_cloaking_for(name, rng),
            peak_level=rng.uniform(0.62, 0.88),
            proactive_rotation_days=45 if name == "BIGLOVE" else None,
            reaction_delay_mean=3.0 if name == "PHP?P=" else rng.uniform(4.0, 12.0),
            main_burst_start_offset=0 if name == "KEY" else None,
        )
        campaigns.append(spec)
    for i in range(SMALL_CAMPAIGN_COUNT):
        doorways = rng.randint(8, 24)
        campaigns.append(
            CampaignSpec(
                name=f"SMALL.{i + 1:02d}",
                verticals=sorted(rng.sample(names, rng.randint(1, 3))),
                doorways=_scaled(doorways, max(scale, 0.25), 2),
                stores=rng.randint(1, 3),
                brands=rng.randint(1, 4),
                peak_days=rng.randint(10, 70),
                cloaking=_cloaking_for(f"SMALL.{i}", rng),
                peak_level=rng.uniform(0.5, 0.75),
            )
        )

    background: List[CampaignSpec] = []
    for i in range(round(26 * max(scale * 4, 0.5))):
        background.append(
            CampaignSpec(
                name=f"BG.{i + 1:02d}",
                verticals=sorted(rng.sample(names, rng.randint(2, 6))),
                doorways=_scaled(rng.randint(40, 400), scale, 2),
                stores=_scaled(rng.randint(4, 40), scale, 1),
                brands=rng.randint(2, 8),
                peak_days=rng.randint(15, 100),
                cloaking=_cloaking_for(f"BG.{i}", rng),
                peak_level=rng.uniform(0.55, 0.8),
            )
        )

    for spec in campaigns:
        extras = PINNED_EXTRA_BRANDS.get(spec.name)
        if extras:
            # Extra brands ride along via the brand pool; see Campaign.
            spec.extra_brands = list(extras)  # type: ignore[attr-defined]

    firms = [
        FirmSpec(
            name="GBC",
            clients=list(GBC_CLIENTS),
            policy=SeizurePolicy(
                case_interval_days=75,
                brand_interval_overrides={"Uggs": 14, "Oakley": 30},
                batch_size=1,
                external_domains_per_case=max(4, round(450 * scale)),
                enforcement_probability=0.5,
                legal_delay_days=14,
                min_observed_age_days=40,
            ),
        ),
        FirmSpec(
            name="SMGPA",
            clients=list(SMGPA_CLIENTS),
            policy=SeizurePolicy(
                case_interval_days=80,
                brand_interval_overrides={"Chanel": 14},
                batch_size=1,
                external_domains_per_case=max(3, round(170 * scale)),
                enforcement_probability=0.5,
                legal_delay_days=12,
                min_observed_age_days=32,
            ),
        ),
    ]

    scripted = [
        # The KEY campaign's PSR collapse in mid-December 2013 (§5.2.1).
        ScriptedDemotion(campaign="KEY", day=SimDate("2013-12-12"), amount=2.6, also_label=True),
    ]

    return ScenarioConfig(
        seed=seed,
        window=window,
        terms_per_vertical=terms_per_vertical,
        competitor_sites_per_vertical=90,
        legit_candidates_per_term=140,
        compromise_pool_size=_scaled(21000, scale, 200),
        verticals=verticals,
        campaigns=campaigns,
        background_campaigns=background,
        search_policy=SearchOpsPolicy(),
        scripted_demotions=scripted,
        firms=firms,
        supplier_partners=["MSVALIDATE"],
        supplier_background_orders_per_day=1030.0 * scale,
    )


def small_preset(seed: int = 7, days: int = 70) -> ScenarioConfig:
    """A tiny scenario for tests: 3 verticals, 5 campaigns, ~10 weeks."""
    window = DateRange(STUDY_START, STUDY_START + (days - 1))
    verticals = [
        VerticalSpec("Louis Vuitton", ["Louis Vuitton"]),
        VerticalSpec("Uggs", ["Uggs"]),
        VerticalSpec("Beats By Dre", ["Beats By Dre"]),
    ]
    campaigns = [
        CampaignSpec(
            name="MSVALIDATE", verticals=["Louis Vuitton", "Uggs"], doorways=14,
            stores=4, brands=4, peak_days=35, cloaking=CloakingType.IFRAME,
            peak_level=0.8, theme_family="zc-classic",
        ),
        CampaignSpec(
            name="KEY", verticals=["Beats By Dre"], doorways=12, stores=3,
            brands=3, peak_days=30, cloaking=CloakingType.REDIRECT, peak_level=0.8,
            main_burst_start_offset=0, theme_family="mg-lux",
        ),
        CampaignSpec(
            name="BIGLOVE", verticals=["Uggs", "Louis Vuitton"], doorways=10,
            stores=3, brands=4, peak_days=40, cloaking=CloakingType.IFRAME,
            peak_level=0.75, proactive_rotation_days=25, theme_family="zc-luxe",
        ),
        CampaignSpec(
            name="MOONKIS", verticals=["Beats By Dre"], doorways=8, stores=2,
            brands=2, peak_days=25, cloaking=CloakingType.IFRAME, peak_level=0.85,
            theme_family="mg-mall",
        ),
        CampaignSpec(
            name="PHP?P=", verticals=["Uggs"], doorways=8, stores=3, brands=3,
            peak_days=30, cloaking=CloakingType.REDIRECT, peak_level=0.7,
            reaction_delay_mean=2.0, theme_family="zc-outlet",
        ),
    ]
    background = [
        CampaignSpec(
            name="BG.01", verticals=["Louis Vuitton", "Beats By Dre"], doorways=6,
            stores=2, brands=2, peak_days=30, cloaking=CloakingType.IFRAME,
            theme_family="mg-fashion",
        ),
    ]
    firms = [
        FirmSpec(
            name="GBC",
            clients=["Louis Vuitton", "Uggs", "Beats By Dre"],
            policy=SeizurePolicy(
                case_interval_days=21, brand_interval_overrides={"Uggs": 14},
                batch_size=6, external_domains_per_case=3,
                legal_delay_days=7, min_observed_age_days=12,
            ),
        ),
    ]
    return ScenarioConfig(
        seed=seed,
        window=window,
        terms_per_vertical=6,
        # The tiny scenario monitors its whole term universe: statistics are
        # too sparse otherwise.  The paper preset keeps the 2x universe that
        # the Section 4.1.1 bias experiment needs.
        term_universe_factor=1.0,
        # Keep the SERP smaller than the candidate pool so ranking (and
        # demotion) actually gates visibility in the tiny scenario.
        serp_size=30,
        competitor_sites_per_vertical=30,
        legit_candidates_per_term=45,
        compromise_pool_size=120,
        verticals=verticals,
        campaigns=campaigns,
        background_campaigns=background,
        scripted_demotions=[
            ScriptedDemotion(campaign="KEY", day=window.start + 30, amount=2.6)
        ],
        firms=firms,
        supplier_partners=["MSVALIDATE"],
        supplier_background_orders_per_day=40.0,
    )
