"""Global confirmation survey (§7).

The paper closes by asking how to characterize URL-filter use "in a high
confidence, yet scalable, way" toward "a more complete picture of URL
filtering deployments". This module is that generalization: take the §3
identification output, map installations to available vantage points,
and run the §4 confirmation methodology against *every* (product, ISP)
pair — trying a short ladder of content categories per pair, because (as
§7 notes) the methodology "require[s] that we identify which categories
are blocked in each ISP before creating test sites".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.confirm import ConfirmationConfig, ConfirmationResult, ConfirmationStudy
from repro.core.identify import IdentificationReport
from repro.products.base import UrlFilterProduct
from repro.products.registry import default_registry
from repro.world.content import ContentClass
from repro.world.world import World


def _ladder() -> Sequence[Tuple[ContentClass, Dict[str, Optional[str]]]]:
    registry = default_registry()
    return tuple(
        (
            content_class,
            {
                spec.name: spec.category_requests.get(content_class)
                for spec in registry.all()
            },
        )
        for content_class in (
            ContentClass.PROXY_ANONYMIZER,
            ContentClass.ADULT_IMAGES,
            ContentClass.PORNOGRAPHY,
        )
    )


#: The category ladder: content classes tried per target, in order, with
#: the vendor category name to request per product (from each spec's
#: ``category_requests``; None where the vendor's form takes no
#: category, like Netsweeper's test-a-site). Proxy content first (the
#: most commonly blocked class in the paper's case studies), then adult
#: content (the Saudi lesson of §4.3: proxies accessible, porn not) —
#: vendors categorize a bare adult image differently from a porn site,
#: and operators may block one and not the other, so both rungs are
#: needed.
CATEGORY_LADDER: Sequence[Tuple[ContentClass, Dict[str, Optional[str]]]] = (
    _ladder()
)


@dataclass
class SurveyTarget:
    """One (product, ISP) pair the survey will test."""

    product_name: str
    isp_name: str
    asn: Optional[int] = None


@dataclass
class SurveyEntry:
    """The survey's verdict for one target."""

    target: SurveyTarget
    attempts: List[ConfirmationResult] = field(default_factory=list)

    @property
    def confirmed(self) -> bool:
        return any(attempt.confirmed for attempt in self.attempts)

    @property
    def confirming_category(self) -> Optional[str]:
        for attempt in self.attempts:
            if attempt.confirmed:
                return attempt.config.category_label
        return None


@dataclass
class SurveyReport:
    entries: List[SurveyEntry] = field(default_factory=list)

    def confirmed_pairs(self) -> List[Tuple[str, str]]:
        return sorted(
            (entry.target.product_name, entry.target.isp_name)
            for entry in self.entries
            if entry.confirmed
        )

    def confirmed_count(self) -> int:
        return sum(1 for entry in self.entries if entry.confirmed)

    def by_product(self, product_name: str) -> List[SurveyEntry]:
        return [
            entry
            for entry in self.entries
            if entry.target.product_name == product_name
        ]

    def summary_lines(self) -> List[str]:
        lines = []
        for entry in self.entries:
            state = (
                f"CONFIRMED via {entry.confirming_category}"
                if entry.confirmed
                else "not confirmed"
            )
            lines.append(
                f"{entry.target.product_name:20s} {entry.target.isp_name:20s} {state}"
            )
        return lines


class GlobalSurvey:
    """Runs the §4 methodology against every reachable identification hit."""

    def __init__(
        self,
        world: World,
        products: Dict[str, UrlFilterProduct],
        hosting_asn: int,
    ) -> None:
        self._world = world
        self._products = products
        self._hosting_asn = hosting_asn
        self._isp_by_asn = {isp.asn: name for name, isp in world.isps.items()}

    # ---------------------------------------------------------------- plan
    def plan(self, identification: IdentificationReport) -> List[SurveyTarget]:
        """Targets: identified installations with an available vantage.

        The engine products of stacked boxes appear as their own
        installations (their surfaces are fingerprinted too), so the
        plan covers them naturally.
        """
        targets: List[SurveyTarget] = []
        seen = set()
        for installation in identification.installations:
            isp_name = self._isp_by_asn.get(installation.asn)
            if isp_name is None:
                continue
            key = (installation.product, isp_name)
            if key in seen:
                continue
            seen.add(key)
            targets.append(
                SurveyTarget(installation.product, isp_name, installation.asn)
            )
        return targets

    # ----------------------------------------------------------------- run
    def run(self, targets: Sequence[SurveyTarget]) -> SurveyReport:
        """Try the category ladder against each target, stopping early
        once a category confirms."""
        report = SurveyReport()
        for target in targets:
            product = self._products.get(target.product_name)
            if product is None:
                continue
            entry = SurveyEntry(target)
            study = ConfirmationStudy(
                self._world, product, self._hosting_asn
            )
            for content_class, request_map in CATEGORY_LADDER:
                config = self._config_for(
                    target, product, content_class, request_map
                )
                entry.attempts.append(study.run(config))
                if entry.attempts[-1].confirmed:
                    break
            report.entries.append(entry)
        return report

    def _config_for(
        self,
        target: SurveyTarget,
        product: UrlFilterProduct,
        content_class: ContentClass,
        request_map: Dict[str, Optional[str]],
    ) -> ConfirmationConfig:
        spec = default_registry().find(target.product_name)
        label = (
            content_class.value.replace("_", " ").title()
        )
        return ConfirmationConfig(
            product_name=target.product_name,
            isp_name=target.isp_name,
            content_class=content_class,
            category_label=label,
            requested_category=request_map.get(target.product_name),
            total_domains=8,
            submit_count=4,
            pre_validate=spec.pre_validate if spec else True,
        )
