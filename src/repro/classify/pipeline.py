"""End-to-end campaign classification pipeline.

Fits the multiclass L1 model on labeled pages and attributes every PSR in a
dataset to a campaign: the landing store's page is classified when
available (store templates are the strongest signal), falling back to the
doorway's crawler-view HTML; predictions below the confidence threshold
stay unattributed — the "unknown" share of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.classify.features import Vocabulary, extract_features, vectorize
from repro.classify.labeling import LabeledPage
from repro.classify.linear import OneVsRestL1Logistic
from repro.crawler.records import PageArchive, PsrDataset
from repro.obs.trace import TRACER


@dataclass
class AttributionResult:
    """Summary of one attribution pass over a PSR dataset."""

    total_records: int
    attributed_records: int
    campaigns: List[str]
    #: host -> (campaign, confidence) for every host we classified.
    host_predictions: Dict[str, Tuple[str, float]]

    @property
    def attribution_rate(self) -> float:
        if self.total_records == 0:
            return 0.0
        return self.attributed_records / self.total_records


class CampaignClassifier:
    """Vocabulary + one-vs-rest L1 logistic regression over page HTML."""

    def __init__(self, lam: float = 1e-3, min_df: int = 2,
                 confidence_threshold: float = 0.5):
        self.lam = lam
        self.min_df = min_df
        self.confidence_threshold = confidence_threshold
        self.vocabulary: Optional[Vocabulary] = None
        self.model: Optional[OneVsRestL1Logistic] = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    def fit(self, labeled: Sequence[LabeledPage]) -> "CampaignClassifier":
        if not labeled:
            raise ValueError("no labeled pages")
        with TRACER.span("features", pages=len(labeled)):
            feature_maps = [extract_features(page.html) for page in labeled]
            self.vocabulary = Vocabulary(min_df=self.min_df).fit(feature_maps)
            X = vectorize(feature_maps, self.vocabulary)
        with TRACER.span("fit", pages=len(labeled)):
            self.model = OneVsRestL1Logistic(lam=self.lam)
            self.model.fit(X, [page.campaign for page in labeled])
        return self

    @property
    def classes(self) -> List[str]:
        if self.model is None:
            return []
        return list(self.model.classes_)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict_pages(self, pages: Sequence[str]) -> List[Tuple[str, float]]:
        """(campaign, confidence) for each HTML page."""
        if self.model is None or self.vocabulary is None:
            raise RuntimeError("classifier not fitted")
        if not pages:
            return []
        feature_maps = [extract_features(html) for html in pages]
        X = vectorize(feature_maps, self.vocabulary)
        return self.model.predict_with_confidence(X)

    def predict_page(self, html: str) -> Tuple[str, float]:
        return self.predict_pages([html])[0]

    # ------------------------------------------------------------------ #
    # Dataset attribution
    # ------------------------------------------------------------------ #

    def attribute(self, dataset: PsrDataset, archive: PageArchive) -> AttributionResult:
        """Fill in ``record.campaign`` for every PSR whose landing store or
        doorway page classifies above threshold."""
        host_predictions: Dict[str, Tuple[str, float]] = {}
        store_hosts = sorted(archive.stores)
        doorway_hosts = sorted(archive.doorways)
        for hosts, pages in (
            (store_hosts, [archive.stores[h] for h in store_hosts]),
            (doorway_hosts, [archive.doorways[h] for h in doorway_hosts]),
        ):
            if not hosts:
                continue
            for host, prediction in zip(hosts, self.predict_pages(pages)):
                # Store-page predictions win over doorway-page ones.
                host_predictions.setdefault(host, prediction)

        attributed = 0
        for record in dataset.records:
            prediction = host_predictions.get(record.landing_host)
            if prediction is None or prediction[1] < self.confidence_threshold:
                prediction = host_predictions.get(record.host)
            if prediction is not None and prediction[1] >= self.confidence_threshold:
                record.campaign = prediction[0]
                attributed += 1
            else:
                record.campaign = ""
        return AttributionResult(
            total_records=len(dataset),
            attributed_records=attributed,
            campaigns=self.classes,
            host_predictions=host_predictions,
        )
