"""The paper's methodology: identify (§3), confirm (§4), characterize
(§5), and evasion analysis (§6)."""

from repro.core.characterize import (
    CategoryBlockStats,
    CharacterizationResult,
    ContentCharacterization,
)
from repro.core.confirm import (
    CategoryProbeResult,
    ConfirmationConfig,
    ConfirmationResult,
    ConfirmationStudy,
    DEFAULT_SUBMITTER,
    DomainOutcome,
    run_category_probe,
)
from repro.core.evasion import (
    BRAND_TOKENS,
    EvasionOutcome,
    hide_installation,
    mask_installation,
    screen_submissions,
    scrub_response,
)
from repro.core.identify import (
    Candidate,
    IdentificationPipeline,
    IdentificationReport,
    Installation,
)
from repro.core.legacy import (
    LegacyReport,
    UserReport,
    UserReportChannel,
    analyze_block_page,
    run_legacy_identification,
)
from repro.core.pipeline import FullStudy, StudyReport, config_for_row
from repro.core.survey import (
    CATEGORY_LADDER,
    GlobalSurvey,
    SurveyEntry,
    SurveyReport,
    SurveyTarget,
)
from repro.core.scale import (
    CampaignCost,
    campaign_cost,
    case_study_cost,
    exhaustive_campaign,
    reduction_factor,
    targeted_campaign,
)

__all__ = [
    "BRAND_TOKENS",
    "CATEGORY_LADDER",
    "CampaignCost",
    "GlobalSurvey",
    "SurveyEntry",
    "SurveyReport",
    "SurveyTarget",
    "Candidate",
    "LegacyReport",
    "UserReport",
    "UserReportChannel",
    "analyze_block_page",
    "campaign_cost",
    "case_study_cost",
    "exhaustive_campaign",
    "reduction_factor",
    "run_legacy_identification",
    "targeted_campaign",
    "CategoryBlockStats",
    "CategoryProbeResult",
    "CharacterizationResult",
    "ConfirmationConfig",
    "ConfirmationResult",
    "ConfirmationStudy",
    "ContentCharacterization",
    "DEFAULT_SUBMITTER",
    "DomainOutcome",
    "EvasionOutcome",
    "FullStudy",
    "IdentificationPipeline",
    "IdentificationReport",
    "Installation",
    "StudyReport",
    "config_for_row",
    "hide_installation",
    "mask_installation",
    "run_category_probe",
    "screen_submissions",
    "scrub_response",
]
