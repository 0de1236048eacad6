"""Tests for the analysis layer: tables, figures, intervention metrics."""

import pytest

from repro.util.simtime import SimDate
from repro.crawler.records import PsrDataset, PsrRecord
from repro.ecosystem import small_preset
from repro.study import StudyRun
from repro.analysis import (
    DailyAggregates,
    campaign_figure4,
    campaign_table,
    conversion_metrics,
    label_coverage,
    label_lifetimes,
    pearson,
    poisoning_series,
    root_only_undercount,
    rotation_case_study,
    rotation_reactions,
    seized_store_lifetimes,
    seizure_order_case_study,
    seizure_table,
    sparkline_extremes,
    stacked_attribution,
    supplier_summary,
    vertical_table,
)


def _record(day0, **overrides):
    fields = dict(
        day=day0, vertical="Uggs", term="cheap uggs", rank=3,
        url="http://d.com/x.html", host="d.com", path="/x.html",
        label="none", mechanism="iframe", landing_url="http://s.com/",
        landing_host="s.com", is_store=True, seizure_case=None,
        seizure_firm=None, seizure_brand=None, campaign="KEY",
    )
    fields.update(overrides)
    return PsrRecord(**fields)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1], [1, 2])


class TestAggregatesSynthetic:
    def test_counts_by_campaign_and_topk(self, day0):
        dataset = PsrDataset()
        dataset.note_serp(day0, "Uggs", 100)
        dataset.add(_record(day0, rank=5, campaign="KEY"))
        dataset.add(_record(day0, rank=50, campaign="VERA", url="u2", host="e.com"))
        dataset.add(_record(day0, rank=60, campaign="", url="u3", host="f.com"))
        agg = DailyAggregates(dataset)
        cell = agg.cell("Uggs", day0.ordinal)
        assert cell.total == 3
        assert cell.top10 == 1
        assert cell.by_campaign["KEY"] == 1
        assert cell.by_campaign[""] == 1
        assert agg.campaign_series("KEY", topk=10)[day0.ordinal] == 1
        assert agg.campaign_series("VERA", topk=10) == {}

    def test_penalized_tracked(self, day0):
        dataset = PsrDataset()
        dataset.add(_record(day0, label="hacked"))
        dataset.add(_record(day0, seizure_case="c1", url="u2", host="e.com"))
        dataset.add(_record(day0, url="u3", host="f.com"))
        agg = DailyAggregates(dataset)
        assert agg.cell("Uggs", day0.ordinal).penalized == 2


class TestVerticalSeriesSynthetic:
    def _dataset(self, day0):
        dataset = PsrDataset()
        for offset in (0, 1, 2):
            day = day0 + offset
            dataset.note_serp(day, "Uggs", 100)
            for i in range(10 * (offset + 1)):
                dataset.add(_record(day, rank=i + 1, url=f"u{offset}-{i}",
                                    host=f"h{i}.com"))
        return dataset

    def test_poisoning_series_values(self, day0):
        dataset = self._dataset(day0)
        series = dict(poisoning_series(dataset, "Uggs", topk=100))
        assert series[day0.ordinal] == pytest.approx(0.10)
        assert series[(day0 + 2).ordinal] == pytest.approx(0.30)

    def test_sparkline_extremes(self, day0):
        extremes = sparkline_extremes(self._dataset(day0), "Uggs", 100)
        assert extremes.minimum == pytest.approx(0.10)
        assert extremes.maximum == pytest.approx(0.30)

    def test_stacked_bands_sum_to_total(self, day0):
        dataset = PsrDataset()
        dataset.note_serp(day0, "Uggs", 100)
        dataset.add(_record(day0, campaign="KEY", host="a.com", url="u1"))
        dataset.add(_record(day0, campaign="VERA", host="b.com", url="u2"))
        dataset.add(_record(day0, campaign="", host="c.com", url="u3"))
        dataset.add(_record(day0, campaign="KEY", label="hacked", host="d.com", url="u4"))
        stacked = stacked_attribution(dataset, "Uggs", top_campaigns=2)
        total = stacked.total_poisoned(0)
        assert total == pytest.approx(0.04)
        assert stacked.penalized_share[0] == pytest.approx(0.01)


class TestLabelAnalysisSynthetic:
    def test_coverage(self, day0):
        dataset = PsrDataset()
        dataset.add(_record(day0, label="hacked"))
        for i in range(3):
            dataset.add(_record(day0, url=f"u{i}", host=f"h{i}.com"))
        stats = label_coverage(dataset)
        assert stats.coverage == pytest.approx(0.25)

    def test_root_only_undercount(self, day0):
        dataset = PsrDataset()
        # Root PSR labeled; two subpage PSRs on the same host unlabeled.
        dataset.add(_record(day0, label="hacked", path="/", url="http://d.com/"))
        dataset.add(_record(day0, path="/a.html", url="http://d.com/a.html"))
        dataset.add(_record(day0, path="/b.html", url="http://d.com/b.html"))
        # Unrelated host, never labeled: not counted.
        dataset.add(_record(day0, host="other.com", url="http://other.com/x"))
        gap = root_only_undercount(dataset)
        assert gap.labeled_results == 1
        assert gap.additional_labelable == 2
        assert gap.undercount_fraction == pytest.approx(2.0)

    def test_label_lifetimes_bounds(self, day0):
        dataset = PsrDataset()
        dataset.add(_record(day0))                      # first seen clean
        dataset.add(_record(day0 + 10))                 # last clean sighting
        dataset.add(_record(day0 + 20, label="hacked"))  # first labeled
        lifetimes = label_lifetimes(dataset)
        assert lifetimes.measured_hosts == 1
        lower, upper = lifetimes.per_host_bounds["d.com"]
        assert (lower, upper) == (10, 20)

    def test_pre_labeled_hosts_counted(self, day0):
        dataset = PsrDataset()
        dataset.add(_record(day0, label="hacked"))
        lifetimes = label_lifetimes(dataset)
        assert lifetimes.pre_labeled_hosts == 1
        assert lifetimes.measured_hosts == 0


class TestSeizureAnalysisSynthetic:
    def _dataset_with_seizure(self, day0):
        dataset = PsrDataset()
        # Store visible for 20 days, then notice, then doorway points to a
        # new store 5 days later.
        dataset.add(_record(day0, landing_host="store1.com"))
        dataset.add(_record(day0 + 20, landing_host="store1.com"))
        dataset.add(_record(
            day0 + 30, landing_host="store1.com", is_store=False,
            seizure_case="14-cv-1", seizure_firm="GBC", seizure_brand="Uggs",
        ))
        dataset.add(_record(day0 + 35, landing_host="store2.com"))
        return dataset

    def test_lifetimes(self, day0):
        stats = seized_store_lifetimes(self._dataset_with_seizure(day0))
        assert len(stats) == 1
        assert stats[0].firm == "GBC"
        assert stats[0].mean_lower_days == pytest.approx(20.0)
        assert stats[0].mean_upper_days == pytest.approx(30.0)

    def test_rotation_reaction(self, day0):
        stats = rotation_reactions(self._dataset_with_seizure(day0))
        assert len(stats) == 1
        assert stats[0].seized_stores == 1
        assert stats[0].redirected_stores == 1
        assert stats[0].mean_reaction_days == pytest.approx(5.0)


class TestTablesIntegration:
    """Tables built from the session study's measured data."""

    def test_table1_rows(self, study):
        rows = vertical_table(study.dataset)
        names = {r.vertical for r in rows}
        assert names == set(study.dataset.verticals())
        for row in rows:
            assert row.psrs > 0
            assert row.doorways > 0
            # Store and campaign counts bounded by ground truth totals.
            assert row.campaigns <= len(study.world.campaigns())

    def test_table2_rows(self, study):
        brand_names = [b.name for b in study.world.brand_catalog.all()]
        rows = campaign_table(study.dataset, study.archive, brand_names)
        assert rows
        by_name = {r.campaign: r for r in rows}
        for name, row in by_name.items():
            truth = study.world.campaign_by_name(name)
            assert truth is not None
            # Measured doorways never exceed ground truth.
            assert row.doorways <= len(truth.doorways)
            assert row.peak_days >= 1

    def test_table2_brands_detected_from_html(self, study):
        brand_names = [b.name for b in study.world.brand_catalog.all()]
        rows = campaign_table(study.dataset, study.archive, brand_names)
        assert any(r.brands >= 1 for r in rows)

    def test_table3_matches_ground_truth_cases(self, study):
        rows = seizure_table(study.dataset, study.crawler)
        if not rows:
            pytest.skip("no seizures observed in crawl window")
        events = study.world.events.of_kind(study.world.events.SEIZURE_CASE)
        true_case_count = len({e.payload["case_id"] for e in events})
        for row in rows:
            assert row.cases <= true_case_count
            assert row.observed_stores <= row.seized_domains
            assert row.classified_stores <= row.observed_stores


class TestFiguresIntegration:
    def test_figure2_stacked(self, study):
        stacked = stacked_attribution(study.dataset, "Uggs", top_campaigns=4)
        assert stacked.ordinals
        for index in range(len(stacked.ordinals)):
            total = stacked.total_poisoned(index)
            assert 0.0 <= total <= 1.0

    def test_figure3_sparklines(self, study):
        for vertical in study.dataset.verticals():
            top10 = sparkline_extremes(study.dataset, vertical, 10)
            top100 = sparkline_extremes(study.dataset, vertical, 100)
            assert 0 <= top10.minimum <= top10.maximum <= 1
            assert 0 <= top100.minimum <= top100.maximum <= 1

    def test_figure4_panel(self, study):
        panel = campaign_figure4(study.dataset, study.orderer, "MSVALIDATE")
        assert panel.campaign == "MSVALIDATE"
        assert panel.top100_series
        if panel.volume_points:
            values = [v for _, v in panel.volume_points]
            assert values == sorted(values) or len(panel.stores_used) > 1

    def test_figure5_rotation_case_study(self, study):
        case = rotation_case_study(study.dataset, study.orderer,
                                   world=study.world, campaign="BIGLOVE")
        if case is None:
            case = rotation_case_study(study.dataset, study.orderer,
                                       world=study.world)
        assert case is not None
        assert case.rotations >= 1
        assert case.top100_series

    def test_figure6_seizure_case_study(self, study):
        case = seizure_order_case_study(study.dataset, study.orderer,
                                        "PHP?P=", world=study.world)
        assert case.campaign == "PHP?P="
        for track in case.stores:
            numbers = [n for _, n in track.samples]
            assert numbers == sorted(numbers)

    def test_conversion_metrics_when_awstats_public(self):
        # The shared fixture's seed (7) builds no public-AWStats store, so
        # this test runs its own study at a seed that tracks several.
        study = StudyRun(small_preset(seed=4), classify=False).execute()
        world = study.world
        candidates = [
            t.key for t in study.orderer.tracked_with_samples()
            if world.store_at(t.key) is not None
            and world.store_at(t.key).awstats_public
        ]
        assert candidates, "seed 4 should track a public-AWStats store"
        metrics = conversion_metrics(
            study.dataset, study.orderer, world, candidates[0],
            world.window.start, world.window.end,
        )
        assert metrics is not None
        assert metrics.total_visits > 0
        assert 0 <= metrics.referrer_fraction <= 1
        assert 0 < metrics.pages_per_visit < 20
        if metrics.orders_created:
            assert 0 < metrics.conversion_rate < 0.2
