"""SenseDroid middleware: nodes, brokers, the hierarchy, and services
(query/filter, storage, privacy, scheduling, incentives)."""

from .api import SenseDroid
from .broker import Broker, ZoneEstimate
from .config import BrokerConfig, CompressionPolicy, HierarchyConfig
from .hierarchy import GlobalEstimate, Hierarchy
from .incentives import (
    AuctionResult,
    Bid,
    Candidate,
    RecruitmentSelector,
    ReverseAuction,
    second_price_auction,
)
from .localcloud import LocalCloud, LocalCloudResult
from .nanocloud import NanoCloud, default_node_sensors
from .node import MobileNode
from .privacy import PrivacyAudit, PrivacyPolicy
from .query import FilterEngine, Predicate, Query, StandingQuery
from .scheduler import AdaptiveDutyCycle, RoundRobinScheduler
from .participation import (
    MixedCrowd,
    ParticipationModel,
    RequestOutcome,
    opportunistic,
    participatory,
)
from .spacetime import SpaceTimeWindow, gather_spacetime_window
from .storage import ContextRecord, DataStore
from .trust import TrustManager
from .upload import (
    BatchedUpload,
    ImmediateUpload,
    OpportunisticUpload,
    UploadItem,
    UploadStats,
)

__all__ = [
    "SenseDroid",
    "Broker",
    "ZoneEstimate",
    "BrokerConfig",
    "CompressionPolicy",
    "HierarchyConfig",
    "GlobalEstimate",
    "Hierarchy",
    "AuctionResult",
    "Bid",
    "Candidate",
    "RecruitmentSelector",
    "ReverseAuction",
    "second_price_auction",
    "LocalCloud",
    "LocalCloudResult",
    "NanoCloud",
    "default_node_sensors",
    "MobileNode",
    "PrivacyAudit",
    "PrivacyPolicy",
    "FilterEngine",
    "Predicate",
    "Query",
    "StandingQuery",
    "AdaptiveDutyCycle",
    "RoundRobinScheduler",
    "MixedCrowd",
    "ParticipationModel",
    "RequestOutcome",
    "opportunistic",
    "participatory",
    "SpaceTimeWindow",
    "gather_spacetime_window",
    "BatchedUpload",
    "ImmediateUpload",
    "OpportunisticUpload",
    "UploadItem",
    "UploadStats",
    "ContextRecord",
    "DataStore",
    "TrustManager",
]
